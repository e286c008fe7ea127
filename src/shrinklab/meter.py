"""Wall-time and energy measurement around a repeated workload.

Three interchangeable sources: a scripted synthetic clock for deterministic
tests, a constant-power model, and a cumulative microjoule counter file of
the kind exposed by on-chip energy meters.  One measurement may be active
per process at a time.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import (DomainError, SourceError, StateError, check_integer, check_number,
                     check_string)

DEFAULT_REPETITIONS = 30
DEFAULT_CARBON_INTENSITY = 475.0  # g CO2-eq per kWh, world average grid
JOULES_PER_KWH = 3.6e6


@dataclass(frozen=True)
class ResourceRecord:
    """Accumulated cost of a measured workload."""

    wall_time_s: float
    energy_kwh: float
    carbon_g: float
    repetitions: int
    source: str


def _script(deltas, what: str) -> list[float]:
    """A non-empty list of non-negative scripted deltas."""
    if isinstance(deltas, (str, bytes)) or not isinstance(deltas, Iterable):
        raise DomainError(f"{what} must be a list of numbers, got {deltas!r}")
    values = [check_number(d, what) for d in deltas]
    if not values or min(values) < 0:
        raise DomainError(f"{what} must hold at least one delta and no negative one")
    return values


class SyntheticClock:
    """Scripted source for deterministic tests.

    Each start/stop cycle yields the next (time delta, energy delta) from
    the scripts; scripts cycle when exhausted so any repetition count is
    serviceable.  Energy deltas are joules, time deltas seconds; each script
    defaults to a single 1.0.
    """

    kind = "synthetic"

    def __init__(self, energy_deltas_j: Sequence[float] = (1.0,),
                 time_deltas_s: Sequence[float] = (1.0,)):
        self._energy = _script(energy_deltas_j, "energy_deltas_j")
        self._times = _script(time_deltas_s, "time_deltas_s")
        self._cycle = 0

    def start(self) -> None:
        pass

    def stop(self) -> tuple[float, float]:
        i = self._cycle
        self._cycle += 1
        return self._times[i % len(self._times)], self._energy[i % len(self._energy)]


class PowerModel:
    """Constant average power: energy is watts x elapsed wall time.

    The clock is injectable so tests can script elapsed time.
    """

    kind = "power"

    def __init__(self, watts: float, *, clock: Callable[[], float] = time.perf_counter):
        self.watts = check_number(watts, "watts")
        if self.watts <= 0:
            raise DomainError(f"watts must be positive, got {watts}")
        self._clock = clock
        self._t0: float | None = None

    def start(self) -> None:
        self._t0 = self._clock()

    def stop(self) -> tuple[float, float]:
        if self._t0 is None:
            raise StateError("PowerModel.stop without start")
        dt = self._clock() - self._t0
        self._t0 = None
        return dt, self.watts * dt


class CounterFile:
    """Cumulative microjoule counter in a single-line file, wrap-aware.

    The file holds one decimal integer in [0, wrap_max); the counter wraps
    to zero at wrap_max like hardware energy counters do.  Unreadable or
    malformed reads raise SourceError.
    """

    kind = "counter"

    def __init__(self, path, wrap_max_microjoules: int, *,
                 clock: Callable[[], float] = time.perf_counter):
        self.path = Path(path if isinstance(path, os.PathLike) else check_string(path, "path"))
        self.wrap_max = check_integer(wrap_max_microjoules, "wrap_max_microjoules")
        self._clock = clock
        self._t0: float | None = None
        self._e0: int | None = None

    def _read(self) -> int:
        try:
            text = self.path.read_text()
        except OSError as exc:
            raise SourceError(f"cannot read counter file {self.path}: {exc}") from exc
        try:
            value = int(text.strip())
        except ValueError as exc:
            raise SourceError(
                f"counter file {self.path} does not hold a decimal integer"
            ) from exc
        if not 0 <= value < self.wrap_max:
            raise SourceError(
                f"counter value {value} outside [0, {self.wrap_max})"
            )
        return value

    def start(self) -> None:
        self._t0 = self._clock()
        self._e0 = self._read()

    def stop(self) -> tuple[float, float]:
        if self._t0 is None or self._e0 is None:
            raise StateError("CounterFile.stop without start")
        dt = self._clock() - self._t0
        de_uj = counter_delta(self._e0, self._read(), self.wrap_max)
        self._t0 = None
        self._e0 = None
        return dt, de_uj * 1e-6


EnergySource = SyntheticClock | PowerModel | CounterFile


def counter_delta(previous: int, current: int, wrap_max: int) -> int:
    """Energy consumed between two counter readings, assuming at most one wrap."""
    check_integer(wrap_max, "wrap_max")
    for label, reading in (("previous", previous), ("current", current)):
        if check_integer(reading, f"{label} reading", minimum=0) >= wrap_max:
            raise DomainError(f"{label} reading {reading} outside [0, {wrap_max})")
    if current >= previous:
        return current - previous
    return current + wrap_max - previous


def carbon_estimate(energy_kwh: float,
                    intensity_g_per_kwh: float = DEFAULT_CARBON_INTENSITY) -> float:
    """Grams of CO2-equivalent for the given energy at a grid intensity."""
    if check_number(energy_kwh, "energy_kwh") < 0:
        raise DomainError("energy must be non-negative")
    if check_number(intensity_g_per_kwh, "carbon_intensity_g_per_kwh") < 0:
        raise DomainError(f"carbon_intensity_g_per_kwh must be non-negative, "
                          f"got {intensity_g_per_kwh!r}")
    return energy_kwh * intensity_g_per_kwh


_measuring = False  # one measurement per process; nesting would double-count


def measure(source: EnergySource, work: Callable[[], object],
            repetitions: int = DEFAULT_REPETITIONS,
            carbon_intensity: float = DEFAULT_CARBON_INTENSITY) -> ResourceRecord:
    """Run work repeatedly, accumulating wall time and energy across runs.

    Deltas from consecutive sessions add exactly: measuring A then B in one
    process equals the sum of measuring each alone with the same source
    state.  A measurement inside work raises StateError.
    """
    global _measuring
    check_integer(repetitions, "repetitions")
    if _measuring:
        raise StateError("a measurement is already active in this process")
    _measuring = True
    try:
        total_t = 0.0
        total_j = 0.0
        for _ in range(repetitions):
            source.start()
            work()
            dt, dj = source.stop()
            total_t += dt
            total_j += dj
    finally:
        _measuring = False
    kwh = total_j / JOULES_PER_KWH
    return ResourceRecord(
        wall_time_s=total_t,
        energy_kwh=kwh,
        carbon_g=carbon_estimate(kwh, carbon_intensity),
        repetitions=repetitions,
        source=source.kind,
    )
