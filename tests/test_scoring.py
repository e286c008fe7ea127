"""Scorer unit tests: ratio directions, floors, aggregation, profiles, ranking."""
import math

import pytest

from shrinklab.errors import BelowRandomFloor, DomainError
from shrinklab.scoring import (
    BALANCED,
    BUILTIN_PROFILES,
    ENERGY_FOCUS,
    FLOOR_DISCOUNT,
    QUALITY_EXPONENT,
    RUNTIME_FOCUS,
    Direction,
    MetricRecord,
    ResourceRatios,
    WeightProfile,
    aggregate_quality,
    metric_ratio,
    opt_score,
    profile_by_name,
    rank_methods,
    ratio_higher_better,
    ratio_lower_better,
)


def ppl(base, model):
    """Quality records of a single lower-is-better perplexity metric."""
    return [MetricRecord("ppl", Direction.LOWER_BETTER, base, model)]


def test_lower_better_ratio():
    # model/base: degradation lands above 1, improvement below
    assert ratio_lower_better(34.29, 34.40) == pytest.approx(1.0032079323417906, abs=1e-12)
    assert ratio_lower_better(10.0, 5.0) == 0.5
    assert ratio_lower_better(10.0, 10.0) == 1.0
    assert ratio_lower_better(5.0, 20.0) > 1.0


def test_lower_better_rejects_nonpositive():
    with pytest.raises(DomainError):
        ratio_lower_better(0.0, 1.0)
    with pytest.raises(DomainError):
        ratio_lower_better(1.0, -2.0)


@pytest.mark.parametrize("base, model", [
    (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
    (1e-300, 1e300),  # finite inputs whose ratio overflows
])
def test_lower_better_rejects_non_finite(base, model):
    with pytest.raises(DomainError):
        ratio_lower_better(base, model)
    with pytest.raises(DomainError):
        MetricRecord("ppl", Direction.LOWER_BETTER, base, model)


def test_higher_better_ratio_with_floor():
    # floor-adjusted: (base - 0.8*floor) / (model - 0.8*floor)
    assert ratio_higher_better(0.3951, 0.407, 0.25) == pytest.approx(
        0.9425120772946861, abs=1e-12)
    assert ratio_higher_better(0.3951, 0.2841, 0.25) == pytest.approx(
        2.3198573127229487, abs=1e-12)
    # matched accuracy scores exactly 1 regardless of the floor
    assert ratio_higher_better(0.7, 0.7, 0.5) == 1.0


def test_higher_better_floor_violations():
    # adjusted model value at or below zero is not scoreable
    with pytest.raises(BelowRandomFloor):
        ratio_higher_better(0.9, 0.2, 0.25)
    with pytest.raises(BelowRandomFloor):
        ratio_higher_better(0.19, 0.9, 0.25)
    with pytest.raises(DomainError):
        ratio_higher_better(0.9, 0.8, -0.1)


@pytest.mark.parametrize("base, model, floor", [
    (math.nan, 0.5, 0.25), (0.5, math.nan, 0.25), (0.5, 0.5, math.nan),
    (math.inf, 0.5, 0.25), (0.5, math.inf, 0.25), (0.5, 0.5, math.inf),
    (-math.inf, 0.5, 0.25),
    (1.0, 5e-324, 0.0),  # finite inputs whose ratio overflows
])
def test_higher_better_rejects_non_finite(base, model, floor):
    with pytest.raises(DomainError):
        ratio_higher_better(base, model, floor)


def test_floor_discount_constant():
    assert FLOOR_DISCOUNT == 0.8
    base, model, floor = 0.6, 0.5, 0.5
    expect = (base - 0.8 * floor) / (model - 0.8 * floor)
    assert ratio_higher_better(base, model, floor) == pytest.approx(expect, rel=1e-15)


def test_metric_record_validation():
    MetricRecord("ppl", Direction.LOWER_BETTER, 10.0, 12.0)
    MetricRecord("acc", Direction.HIGHER_BETTER, 0.6, 0.5, random_floor=0.25)
    with pytest.raises(DomainError):
        MetricRecord("ppl", Direction.LOWER_BETTER, 10.0, 12.0, random_floor=0.25)
    with pytest.raises(DomainError):
        MetricRecord("acc", Direction.HIGHER_BETTER, 0.6, 0.5)
    with pytest.raises(BelowRandomFloor):
        MetricRecord("acc", Direction.HIGHER_BETTER, 0.6, 0.19, random_floor=0.25)
    with pytest.raises(DomainError, match="metric record name must be a non-empty string"):
        MetricRecord("", Direction.LOWER_BETTER, 10.0, 12.0)


@pytest.mark.parametrize("args", [
    ("p", "lower", 1.0, 2.0),
    ("p", Direction.LOWER_BETTER, "a", 2.0),
    (5, Direction.LOWER_BETTER, 1.0, 2.0),
    ("acc", Direction.HIGHER_BETTER, 0.6, "a", 0.25),
    ("acc", Direction.HIGHER_BETTER, 0.6, 0.5, "0.25"),
])
def test_metric_record_rejects_wrong_types(args):
    """A wrong-typed name, direction, value or floor is a DomainError, not a TypeError."""
    with pytest.raises(DomainError):
        MetricRecord(*args)


@pytest.mark.parametrize("func, args", [
    (ratio_lower_better, ("a", 1.0)),
    (ratio_lower_better, (1.0, None)),
    (ratio_higher_better, ("a", 0.5, 0.25)),
    (ratio_higher_better, (0.6, 0.5, "0.25")),
    (ResourceRatios.from_measurements, ("a", 1.0, 1.0, 1.0)),
    (ResourceRatios.from_measurements, (1.0, 1.0, 1.0, True)),
])
def test_ratio_inputs_must_be_numbers(func, args):
    with pytest.raises(DomainError, match="must be a finite number"):
        func(*args)


def test_metric_ratio_dispatches_on_direction():
    low = MetricRecord("ppl", Direction.LOWER_BETTER, 10.0, 12.0)
    high = MetricRecord("acc", Direction.HIGHER_BETTER, 0.6, 0.5, random_floor=0.25)
    assert metric_ratio(low) == pytest.approx(1.2, rel=1e-15)
    assert metric_ratio(high) == pytest.approx(0.4 / 0.3, rel=1e-15)


def test_aggregate_quality_is_mean_of_powered_ratios():
    recs = [
        MetricRecord("a", Direction.LOWER_BETTER, 1.0, 1.0),   # ratio 1
        MetricRecord("b", Direction.LOWER_BETTER, 1.0, 4.0),   # ratio 4
    ]
    # (1^1.5 + 4^1.5) / 2 = (1 + 8) / 2
    assert aggregate_quality(recs) == pytest.approx(4.5, abs=1e-12)
    assert aggregate_quality(recs, exponent=2.0) == pytest.approx(8.5, abs=1e-12)
    with pytest.raises(DomainError):
        aggregate_quality([])


@pytest.mark.parametrize("exponent", [0, -1.5])
def test_aggregate_quality_rejects_non_positive_exponent(exponent):
    """Zero would score every method 1; a negative exponent would invert the order."""
    rec = MetricRecord("ppl", Direction.LOWER_BETTER, 10.0, 14.0)
    with pytest.raises(DomainError, match="quality_exponent"):
        aggregate_quality([rec], exponent=exponent)


def test_no_double_exponentiation():
    """opt must consume the aggregate directly, not re-raise it to the exponent."""
    rec = MetricRecord("ppl", Direction.LOWER_BETTER, 10.0, 14.0)
    r = 1.4
    ratios = ResourceRatios(1.0, 1.0)
    got = opt_score([rec], ratios, BALANCED)
    assert got.quality_factor == pytest.approx(r ** 1.5, rel=1e-14)
    assert got.opt == pytest.approx(r ** 1.5, rel=1e-14)
    assert abs(got.opt - (r ** 1.5) ** 1.5) > 0.1


def test_opt_one_record_equals_powered_ratio():
    """A one-record quality list scores exactly ratio ** exponent, bit for bit."""
    ratios = ResourceRatios(1.25, 0.8)
    got = opt_score(ppl(20.0, 25.0), ratios, BALANCED)
    q = ratio_lower_better(20.0, 25.0) ** QUALITY_EXPONENT
    assert got.quality_factor == q
    assert got.opt == q * (0.5 * 1.25 + 0.5 * 0.8)


def test_weight_profile_validation():
    WeightProfile("even", 0.5, 0.5)
    WeightProfile("tilt", 0.25, 0.75)
    with pytest.raises(DomainError):
        WeightProfile("bad", 0.6, 0.6)
    with pytest.raises(DomainError):
        WeightProfile("neg", -0.2, 1.2)
    # tolerance admits float residue on the simplex check
    WeightProfile("close", 0.3, 0.7 + 1e-13)


def test_builtin_profiles():
    assert [p.name for p in BUILTIN_PROFILES] == ["balanced", "energy", "runtime"]
    assert (BALANCED.alpha, BALANCED.beta) == (0.5, 0.5)
    assert (ENERGY_FOCUS.alpha, ENERGY_FOCUS.beta) == (0.1, 0.9)
    assert (RUNTIME_FOCUS.alpha, RUNTIME_FOCUS.beta) == (0.9, 0.1)
    assert profile_by_name("energy") is ENERGY_FOCUS
    with pytest.raises(DomainError):
        profile_by_name("speed")


def test_identity_method_scores_exactly_one():
    rec = MetricRecord("ppl", Direction.LOWER_BETTER, 34.29, 34.29)
    ratios = ResourceRatios(1.0, 1.0)
    for profile in BUILTIN_PROFILES:
        got = opt_score([rec], ratios, profile)
        assert got.quality_factor == 1.0
        assert got.cost_factor == 1.0
        assert got.opt == 1.0


def test_balanced_is_mean_of_focused_profiles():
    rec = MetricRecord("ppl", Direction.LOWER_BETTER, 30.0, 37.5)
    ratios = ResourceRatios(time_ratio=3.04, energy_ratio=0.44)
    bal = opt_score([rec], ratios, BALANCED).opt
    run = opt_score([rec], ratios, RUNTIME_FOCUS).opt
    eng = opt_score([rec], ratios, ENERGY_FOCUS).opt
    assert bal == pytest.approx((run + eng) / 2.0, abs=1e-12)


def test_ratio_scale_invariance():
    assert ratio_lower_better(3.0, 4.5) == pytest.approx(
        ratio_lower_better(300.0, 450.0), rel=1e-15)
    a = ratio_higher_better(0.6, 0.5, 0.25)
    b = ratio_higher_better(6.0, 5.0, 2.5)
    assert a == pytest.approx(b, rel=1e-14)


def test_opt_monotone_in_each_input():
    ratios = ResourceRatios(1.2, 0.9)
    base = opt_score(ppl(10.0, 12.0), ratios, BALANCED).opt
    worse_quality = opt_score(ppl(10.0, 13.0), ratios, BALANCED).opt
    worse_time = opt_score(ppl(10.0, 12.0), ResourceRatios(1.5, 0.9), BALANCED).opt
    better_energy = opt_score(ppl(10.0, 12.0), ResourceRatios(1.2, 0.5), BALANCED).opt
    assert worse_quality > base
    assert worse_time > base
    assert better_energy < base


def test_resource_ratios_from_measurements():
    got = ResourceRatios.from_measurements(212.33, 644.67, 0.02335, 0.01017)
    assert got.time_ratio == pytest.approx(644.67 / 212.33, rel=1e-15)
    assert got.energy_ratio == pytest.approx(0.01017 / 0.02335, rel=1e-15)
    with pytest.raises(DomainError):
        ResourceRatios.from_measurements(0.0, 1.0, 1.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            ResourceRatios.from_measurements(1.0, bad, 1.0, 1.0)
        with pytest.raises(DomainError):
            ResourceRatios(1.0, bad)
        with pytest.raises(DomainError):
            ResourceRatios(bad, 1.0)


def test_rank_methods_orders_and_breaks_ties():
    ratios = ResourceRatios(1.0, 1.0)
    mk = lambda m: opt_score(ppl(10.0, m), ratios, BALANCED)
    ranked = rank_methods([
        ("b", mk(12.0)),
        ("a", mk(12.0)),
        ("fast", mk(8.0)),
        ("slow", mk(30.0)),
    ])
    assert [label for label, _ in ranked] == ["fast", "a", "b", "slow"]
    assert rank_methods([]) == []


def test_rank_methods_rejects_mixed_profiles():
    ratios = ResourceRatios(1.0, 1.0)
    rows = [
        ("a", opt_score(ppl(10.0, 12.0), ratios, BALANCED)),
        ("b", opt_score(ppl(10.0, 12.0), ratios, ENERGY_FOCUS)),
    ]
    with pytest.raises(DomainError):
        rank_methods(rows)


def test_quality_exponent_constant():
    assert QUALITY_EXPONENT == 1.5
    # a ratio of 4 under the default exponent lands exactly on 8
    assert aggregate_quality(
        [MetricRecord("m", Direction.LOWER_BETTER, 1.0, 4.0)]) == pytest.approx(8.0, abs=1e-12)


def test_opt_formula_hand_check():
    """opt = q^e * (alpha * t + beta * en), checked against an inline recompute."""
    rec = MetricRecord("ppl", Direction.LOWER_BETTER, 34.29, 35.56)
    ratios = ResourceRatios(222.67 / 212.33, 0.01162 / 0.02335)
    got = opt_score([rec], ratios, BALANCED)
    q = (35.56 / 34.29) ** 1.5
    c = 0.5 * (222.67 / 212.33) + 0.5 * (0.01162 / 0.02335)
    assert got.quality_factor == pytest.approx(q, rel=1e-14)
    assert got.cost_factor == pytest.approx(c, rel=1e-14)
    assert got.opt == pytest.approx(q * c, rel=1e-14)
    assert math.isfinite(got.opt)


def test_quality_overflow_is_a_domain_error():
    """A finite ratio whose power overflows a float cannot be scored."""
    with pytest.raises(DomainError, match="overflows"):
        aggregate_quality(ppl(1e-200, 1e100))


def test_opt_score_that_is_not_finite_is_a_domain_error():
    """Quality and cost both finite, their product not: no score to rank."""
    ratios = ResourceRatios.from_measurements(1e-150, 1e150, 1.0, 2.0)
    with pytest.raises(DomainError, match="not finite"):
        opt_score(ppl(1e-100, 1e100), ratios, BALANCED)
