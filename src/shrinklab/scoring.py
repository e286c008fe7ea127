"""Resource/performance trade-off scoring.

A compressed model is scored against its base model by combining a quality
factor (per-metric degradation ratios raised to a fixed exponent and
averaged) with a resource cost factor (a weighted blend of the time and
energy change ratios).  The product is the final score; lower is better,
and a model identical to its base scores exactly 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import BelowRandomFloor, DomainError, check_number, check_string, named

# Exponent applied to each quality ratio before averaging.  Chosen so that
# quality loss dominates resource savings once degradation is substantial.
QUALITY_EXPONENT = 1.5

# Fraction of the random-guess floor subtracted from benchmark scores before
# forming ratios.  Keeps near-random scores from looking deceptively close
# to strong ones.
FLOOR_DISCOUNT = 0.8


class Direction(Enum):
    """Whether smaller or larger raw values mean better performance."""

    LOWER_BETTER = "lower"
    HIGHER_BETTER = "higher"


@dataclass(frozen=True)
class WeightProfile:
    """Weighting of time cost (alpha) against energy cost (beta).

    The weights must be non-negative and sum to 1, so the cost factor of an
    unchanged model is exactly 1 under every profile.
    """

    name: str
    alpha: float
    beta: float

    def __post_init__(self):
        check_string(self.name, "weight profile name")
        if check_number(self.alpha, "alpha") < 0 or check_number(self.beta, "beta") < 0:
            raise DomainError(f"profile {self.name!r}: weights must be non-negative")
        if abs(self.alpha + self.beta - 1.0) > 1e-12:
            raise DomainError(
                f"profile {self.name!r}: alpha + beta must equal 1, got {self.alpha + self.beta!r}"
            )


BALANCED = WeightProfile("balanced", 0.5, 0.5)
ENERGY_FOCUS = WeightProfile("energy", 0.1, 0.9)
RUNTIME_FOCUS = WeightProfile("runtime", 0.9, 0.1)
BUILTIN_PROFILES = (BALANCED, ENERGY_FOCUS, RUNTIME_FOCUS)


def profile_by_name(name: str) -> WeightProfile:
    for p in BUILTIN_PROFILES:
        if p.name == name:
            return p
    raise DomainError(f"unknown weight profile {name!r}; expected one of "
                      + ", ".join(p.name for p in BUILTIN_PROFILES))


@dataclass(frozen=True)
class MetricRecord:
    """One quality measurement of a compressed model against its base.

    Lower-is-better records (perplexity and the like) take no random floor;
    higher-is-better records (benchmark accuracies) require one.  Values are
    validated on construction, by the ratio functions, so that a ratio can
    always be formed.
    """

    name: str
    direction: Direction
    base_value: float
    model_value: float
    random_floor: float | None = None

    def __post_init__(self):
        check_string(self.name, "metric record name")
        if not isinstance(self.direction, Direction):
            raise DomainError(f"{self.name}: direction must be a Direction, got {self.direction!r}")
        if self.direction is Direction.LOWER_BETTER and self.random_floor is not None:
            raise DomainError(f"{self.name}: lower-is-better metrics take no random floor")
        if self.direction is Direction.HIGHER_BETTER and self.random_floor is None:
            raise DomainError(f"{self.name}: higher-is-better metrics require a random floor")
        with named(self.name):
            metric_ratio(self)


def ratio_lower_better(base: float, model: float) -> float:
    """Change ratio for metrics where smaller is better (perplexity, time, energy).

    Returns model / base: 1 means unchanged, above 1 means worse.
    """
    base, model = check_number(base, "base value"), check_number(model, "model value")
    if not (0 < base and 0 < model and model / base < math.inf):
        raise DomainError("lower-is-better ratio requires positive values and "
                          f"a finite ratio, got {base} and {model}")
    return model / base


def ratio_higher_better(base: float, model: float, random_floor: float) -> float:
    """Change ratio for metrics where larger is better (benchmark accuracies).

    Both scores are first reduced by 4/5 of the random-guess floor, then the
    ratio base/model is returned so that degradation again lands above 1.
    """
    if check_number(random_floor, "random floor") < 0:
        raise DomainError(f"random floor must be non-negative, got {random_floor}")
    floor = FLOOR_DISCOUNT * random_floor
    for label, score in (("base", base), ("model", model)):
        if check_number(score, f"{label} score") - floor <= 0:
            raise BelowRandomFloor(f"{label} score {score} is at or below "
                                   f"{FLOOR_DISCOUNT:g} x random floor {random_floor}")
    ratio = (base - floor) / (model - floor)
    if not math.isfinite(ratio):
        raise DomainError(f"higher-is-better ratio of {base} and {model} is not finite")
    return ratio


def metric_ratio(record: MetricRecord) -> float:
    """Change ratio of a single record, direction handled appropriately."""
    if record.direction is Direction.LOWER_BETTER:
        return ratio_lower_better(record.base_value, record.model_value)
    return ratio_higher_better(record.base_value, record.model_value, record.random_floor)


def check_quality_exponent(exponent) -> float:
    """A positive finite exponent: zero makes every ratio 1, a negative one inverts the order."""
    if check_number(exponent, "quality_exponent") <= 0:
        raise DomainError(f"quality_exponent must be positive, got {exponent!r}")
    return float(exponent)


def aggregate_quality(records: Sequence[MetricRecord],
                      exponent: float = QUALITY_EXPONENT) -> float:
    """Quality factor over a set of metrics.

    Each record's change ratio is raised to ``exponent`` and the results are
    averaged.  The mean itself is the quality factor entering the final
    score; it is not raised to the exponent a second time.
    """
    check_quality_exponent(exponent)
    if not records:
        raise DomainError("aggregate_quality needs at least one metric record")
    try:
        return sum(metric_ratio(r) ** exponent for r in records) / len(records)
    except OverflowError:
        raise DomainError(f"a quality ratio raised to {exponent} overflows") from None


@dataclass(frozen=True)
class ResourceRatios:
    """Time and energy change ratios (compressed over base)."""

    time_ratio: float
    energy_ratio: float

    def __post_init__(self):
        if not (0 < self.time_ratio < math.inf and 0 < self.energy_ratio < math.inf):
            raise DomainError("resource ratios must be positive and finite, got "
                              f"{self.time_ratio} and {self.energy_ratio}")

    @classmethod
    def from_measurements(cls, base_time: float, model_time: float,
                          base_energy: float, model_energy: float) -> "ResourceRatios":
        return cls(ratio_lower_better(base_time, model_time),
                   ratio_lower_better(base_energy, model_energy))


@dataclass(frozen=True)
class OptResult:
    """Final score of one method under one weight profile.

    quality_factor x cost_factor = opt; all three are kept so a consumer can
    see which side drove the score.
    """

    profile: WeightProfile
    quality_factor: float
    cost_factor: float
    opt: float


def opt_score(quality: Sequence[MetricRecord], ratios: ResourceRatios,
              profile: WeightProfile, exponent: float = QUALITY_EXPONENT) -> OptResult:
    """Score one compressed model; lower is better.

    The quality records are aggregated into one quality factor.  A score
    that is not finite cannot be ranked and raises DomainError.
    """
    q = aggregate_quality(quality, exponent)
    cost = profile.alpha * ratios.time_ratio + profile.beta * ratios.energy_ratio
    opt = q * cost
    if not math.isfinite(opt):
        raise DomainError(f"opt score of quality {q} and cost {cost} is not finite")
    return OptResult(profile=profile, quality_factor=q, cost_factor=cost, opt=opt)


def rank_methods(candidates: Sequence[tuple[str, OptResult]]) -> list[tuple[str, OptResult]]:
    """Order scored methods best first.

    Ascending by score, ties broken by label.  All candidates must have been
    scored under the same weight profile; mixing profiles would compare
    incomparable numbers.
    """
    ordered = list(candidates)
    if not ordered:
        return []
    profile = ordered[0][1].profile
    for label, result in ordered:
        if result.profile != profile:
            raise DomainError(
                f"rank_methods: {label!r} was scored under profile {result.profile.name!r}, "
                f"others under {profile.name!r}"
            )
    return sorted(ordered, key=lambda c: (c[1].opt, c[0]))
