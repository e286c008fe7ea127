"""Meter tests: scripted sources, wrap handling, additivity, nesting guard."""
import math
import re

import pytest

from shrinklab.errors import DomainError, SourceError, StateError
from shrinklab.meter import (
    DEFAULT_CARBON_INTENSITY,
    DEFAULT_REPETITIONS,
    JOULES_PER_KWH,
    CounterFile,
    PowerModel,
    SyntheticClock,
    carbon_estimate,
    counter_delta,
    measure,
)


def test_synthetic_default_repetitions_total():
    # 1 J per repetition, default repetition count
    record = measure(SyntheticClock([1.0]), lambda: None)
    assert record.repetitions == DEFAULT_REPETITIONS == 30
    assert record.energy_kwh == 30.0 / JOULES_PER_KWH
    assert record.wall_time_s == 30.0
    assert record.carbon_g == record.energy_kwh * DEFAULT_CARBON_INTENSITY
    assert record.source == "synthetic"


def test_synthetic_scripts_cycle_independently():
    src = SyntheticClock([2.0, 3.0], time_deltas_s=[1.0, 1.5, 2.0])
    record = measure(src, lambda: None, repetitions=5)
    # energy cycles with period 2, time with period 3
    assert record.energy_kwh * JOULES_PER_KWH == pytest.approx(2 + 3 + 2 + 3 + 2, abs=0)
    assert record.wall_time_s == pytest.approx(1.0 + 1.5 + 2.0 + 1.0 + 1.5, abs=0)


def test_synthetic_zero_deltas():
    record = measure(SyntheticClock([0.0], time_deltas_s=[0.0]), lambda: None,
                     repetitions=4)
    assert record.energy_kwh == 0.0
    assert record.wall_time_s == 0.0
    assert record.carbon_g == 0.0


def test_synthetic_validation():
    with pytest.raises(DomainError):
        SyntheticClock([])
    with pytest.raises(DomainError):
        SyntheticClock([1.0], time_deltas_s=[])
    with pytest.raises(DomainError):
        SyntheticClock([-1.0])


def test_split_measurement_adds_exactly():
    """A then B on one source equals one combined run on a fresh source."""
    script = [0.125, 0.25, 0.5, 1.0, 2.0]
    src = SyntheticClock(script, time_deltas_s=script)
    a = measure(src, lambda: None, repetitions=3)
    b = measure(src, lambda: None, repetitions=2)
    combined = measure(SyntheticClock(script, time_deltas_s=script),
                       lambda: None, repetitions=5)
    # power-of-two deltas make float addition associative here: exact equality
    assert a.energy_kwh + b.energy_kwh == combined.energy_kwh
    assert a.wall_time_s + b.wall_time_s == combined.wall_time_s


def test_measure_runs_work_each_repetition():
    calls = []
    measure(SyntheticClock([1.0]), lambda: calls.append(1), repetitions=7)
    assert len(calls) == 7


def test_measure_keeps_what_the_last_repetition_returned():
    calls = []

    def work():
        calls.append(1)
        return len(calls)

    assert measure(SyntheticClock([1.0]), work, repetitions=7).result == 7
    assert measure(SyntheticClock([1.0]), lambda: None, repetitions=3).result is None


def test_measure_rejects_nesting_and_recovers():
    src = SyntheticClock([1.0])

    def nested():
        measure(SyntheticClock([1.0]), lambda: None, repetitions=1)

    with pytest.raises(StateError):
        measure(src, nested, repetitions=1)
    # flag must reset: a follow-up measurement succeeds
    record = measure(src, lambda: None, repetitions=1)
    assert record.repetitions == 1


def test_measure_resets_flag_after_work_raises():
    def boom():
        raise RuntimeError("work failed")

    with pytest.raises(RuntimeError):
        measure(SyntheticClock([1.0]), boom, repetitions=1)
    measure(SyntheticClock([1.0]), lambda: None, repetitions=1)


def _synthetic(tmp_path):
    # the failed repetition never reached stop(), so it consumed no scripted delta
    return SyntheticClock([2.0, 3.0], time_deltas_s=[0.5, 0.25]), lambda: None, (0.5, 2.0)


def _power(tmp_path):
    ticks = iter([0.0, 5.0, 8.0])  # failed start, then the second run's start and stop
    return PowerModel(100.0, clock=lambda: next(ticks)), lambda: None, (3.0, 300.0)


def _counter(tmp_path):
    path = tmp_path / "energy_uj"
    path.write_text("100")
    ticks = iter([0.0, 10.0, 12.0])
    src = CounterFile(path, wrap_max_microjoules=1000, clock=lambda: next(ticks))
    path.write_text("400")  # energy spent by the failed run is not counted
    return src, lambda: path.write_text("450"), (2.0, 50e-6)


@pytest.mark.parametrize("make", [_synthetic, _power, _counter],
                         ids=["synthetic", "power", "counter"])
def test_measure_leaves_source_reusable_after_work_raises(tmp_path, make):
    src, work, (want_s, want_j) = make(tmp_path)

    def boom():
        raise RuntimeError("work failed")

    with pytest.raises(RuntimeError):
        measure(src, boom, repetitions=1)
    record = measure(src, work, repetitions=1)
    assert record.wall_time_s == want_s
    assert record.energy_kwh == pytest.approx(want_j / JOULES_PER_KWH, rel=1e-12)


def test_measure_validation():
    for repetitions in (0, 2.5, True, "2"):
        with pytest.raises(DomainError, match="repetitions must be an integer >= 1"):
            measure(SyntheticClock([1.0]), lambda: None, repetitions=repetitions)


def test_counter_delta_no_wrap():
    assert counter_delta(5, 100, 1000) == 95
    assert counter_delta(7, 7, 1000) == 0


def test_counter_delta_wraps():
    assert counter_delta(900, 100, 1000) == 200
    assert counter_delta(999, 0, 1000) == 1
    assert counter_delta(100, 50, 1000) == 950


def test_counter_delta_validation():
    with pytest.raises(DomainError):
        counter_delta(-1, 5, 1000)
    with pytest.raises(DomainError):
        counter_delta(5, 1000, 1000)
    with pytest.raises(DomainError):
        counter_delta(1000, 5, 1000)
    with pytest.raises(DomainError):
        counter_delta(1, 2, 0)


@pytest.mark.parametrize("previous, current", [(1.5, 2), (1, 2.0), (True, 2), ("1", 2)])
def test_counter_delta_takes_integer_readings(previous, current):
    with pytest.raises(DomainError, match="reading must be an integer"):
        counter_delta(previous, current, 10)


def test_power_model_scripted_clock():
    ticks = iter([0.0, 10.0])
    src = PowerModel(100.0, clock=lambda: next(ticks))
    record = measure(src, lambda: None, repetitions=1)
    assert record.wall_time_s == 10.0
    assert record.energy_kwh == 1000.0 / JOULES_PER_KWH
    assert record.source == "power"


def test_power_model_validation():
    with pytest.raises(DomainError):
        PowerModel(0.0)
    src = PowerModel(5.0)
    with pytest.raises(StateError):
        src.stop()


def test_counter_file_reads_deltas(tmp_path):
    path = tmp_path / "energy_uj"
    path.write_text("900\n")
    ticks = iter([0.0, 2.0])
    src = CounterFile(path, wrap_max_microjoules=1000, clock=lambda: next(ticks))

    def work():
        path.write_text("100")  # counter wrapped during the workload

    record = measure(src, work, repetitions=1)
    assert record.wall_time_s == 2.0
    assert record.energy_kwh == pytest.approx(200e-6 / JOULES_PER_KWH, rel=1e-12)
    assert record.source == "counter"


def test_counter_file_source_errors(tmp_path):
    missing = CounterFile(tmp_path / "nope", wrap_max_microjoules=1000)
    with pytest.raises(SourceError):
        missing.start()

    garbled = tmp_path / "bad"
    garbled.write_text("12.5 joules")
    with pytest.raises(SourceError):
        CounterFile(garbled, wrap_max_microjoules=1000).start()

    # bytes that are not UTF-8 are not digits either
    not_utf8 = tmp_path / "ff"
    not_utf8.write_bytes(b"\xff")
    with pytest.raises(SourceError, match=re.escape(
            f"counter file {not_utf8} does not hold a decimal integer")):
        CounterFile(not_utf8, wrap_max_microjoules=1000).start()

    out_of_range = tmp_path / "big"
    out_of_range.write_text("5000")
    with pytest.raises(SourceError):
        CounterFile(out_of_range, wrap_max_microjoules=1000).start()

    with pytest.raises(DomainError):
        CounterFile(tmp_path / "x", wrap_max_microjoules=0)

    with pytest.raises(StateError, match="CounterFile.stop without start"):
        CounterFile(tmp_path / "x", wrap_max_microjoules=1000).stop()


def test_carbon_estimate():
    assert carbon_estimate(2.0, 475.0) == 950.0
    assert carbon_estimate(0.0, 475.0) == 0.0
    with pytest.raises(DomainError):
        carbon_estimate(1.0, -5.0)
    with pytest.raises(DomainError):
        carbon_estimate(-1.0, 475.0)
    # each factor is finite, their product is not
    with pytest.raises(DomainError, match="^carbon_intensity_g_per_kwh times energy_kwh must be "
                                          "a finite number, got inf$"):
        carbon_estimate(1e300 / 3.6e6, 1e300)


@pytest.mark.parametrize("energy, intensity", [
    (math.nan, 1.0), (math.inf, 1.0), ("a", 1.0), (1.0, math.nan), (1.0, "a"),
])
def test_carbon_estimate_rejects_non_numbers(energy, intensity):
    with pytest.raises(DomainError, match="must be a finite number"):
        carbon_estimate(energy, intensity)
