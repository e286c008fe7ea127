"""Exception types, and the value checks every constructor runs on its arguments,
so a wrong-typed value from a config file or a caller raises DomainError.
"""
import contextlib
import math
import numbers
import os


class DomainError(ValueError):
    """An argument violates an operation's domain contract."""


class BelowRandomFloor(DomainError):
    """A benchmark score sits at or below the discounted random floor.

    Change ratios for higher-is-better metrics are formed on scores with
    4/5 of the random-guess floor subtracted; a score at or below that
    level carries no usable signal.
    """


class ShapeError(DomainError):
    """An array shape is incompatible with the requested operation."""


class FormatError(ValueError):
    """A weights file is malformed.

    ``offset`` is the byte position in the file where the problem was
    detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class ParseError(ValueError):
    """A metrics or config document failed to parse.

    ``line`` is the 1-based line number of the offending row.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class StateError(RuntimeError):
    """An operation was invoked in an illegal state, e.g. a nested measurement."""


class SourceError(RuntimeError):
    """An energy source failed to deliver a reading."""


@contextlib.contextmanager
def named(what: str, errors=DomainError):
    """Re-raise errors from the block prefixed with what: a DomainError keeps its type, any
    other becomes a DomainError."""
    try:
        yield
    except errors as exc:
        kind = type(exc) if isinstance(exc, DomainError) else DomainError
        raise kind(f"{what}: {exc}") from exc


def check_integer(value, what: str, minimum: int = 1) -> int:
    """An integer of at least minimum; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise DomainError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_number(value, what: str) -> float:
    """A finite real number; a boolean is not one."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int too large for a float
            number = float(value)
    if not math.isfinite(number):
        raise DomainError(f"{what} must be a finite number, got {value!r}")
    return number


def check_string(value, what: str) -> str:
    """A non-empty string, such as a file path or a name."""
    if not isinstance(value, str) or not value:
        raise DomainError(f"{what} must be a non-empty string, got {value!r}")
    return value


def check_path(value, what: str) -> str:
    """A non-empty string that can name a file: it holds no NUL, and the file system
    encoding can encode it (a lone surrogate it cannot)."""
    check_string(value, what)
    try:
        nameable = b"\0" not in os.fsencode(value)
    except UnicodeEncodeError:
        nameable = False
    if not nameable:
        raise DomainError(f"{what} must be a path with no NUL or unencodable character, "
                          f"got {value!r}")
    return value
