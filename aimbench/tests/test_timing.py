"""Nearest-rank percentiles, reference normalization and spread statistics."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import timing  # noqa: E402
from timing import SampleLog, nearest_rank, normalize, spread  # noqa: E402


def test_nearest_rank_picks_the_ceiling_rank():
    values = list(range(1, 101))          # 1..100, shuffled order must not matter
    shuffled = values[::-1]
    assert nearest_rank(shuffled, 50) == 50
    assert nearest_rank(shuffled, 50.5) == 51
    assert nearest_rank(shuffled, 90) == 90
    assert nearest_rank(shuffled, 1) == 1


def test_nearest_rank_needs_ten_samples_beyond_the_rank():
    # p99 of 1000 samples has exactly 10 beyond it; of 999 only 9.
    assert nearest_rank(list(range(1000)), 99) == 989
    assert nearest_rank(list(range(999)), 99) is None
    assert nearest_rank(list(range(21)), 50) == 10
    assert nearest_rank(list(range(19)), 50) is None
    assert nearest_rank([], 50) is None


def test_nearest_rank_rejects_out_of_range_percentiles():
    with pytest.raises(ValueError):
        nearest_rank([1.0] * 50, 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0] * 50, 101)


def test_normalize_scales_by_reference():
    nominal = timing.REF_NOMINAL_S
    power = timing.SLOWDOWN_EXPONENT
    assert normalize(1.0, nominal) == pytest.approx(1.0)
    # On a core at half speed the reference loop takes twice as long, and
    # the program is taken to slow by 2 ** SLOWDOWN_EXPONENT.
    assert normalize(2.0 ** power, 2 * nominal) == pytest.approx(1.0)
    assert normalize(0.5 ** power, nominal / 2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        normalize(1.0, 0.0)


def test_sample_log_keeps_raw_and_reference_and_normalizes_each_sample():
    log = SampleLog()
    nominal = timing.REF_NOMINAL_S
    power = timing.SLOWDOWN_EXPONENT
    log.add("x", 1.0, nominal)
    log.add("x", 3.0 ** power, 3 * nominal)          # slow spell
    log.add("x", 2 * 0.25 ** power, 0.25 * nominal)  # fast spell, twice the work
    assert log.normalized("x") == pytest.approx([1.0, 1.0, 2.0])
    assert log.median("x") == pytest.approx(1.0)
    dumped = log.to_json()["x"]
    assert dumped["raw_s"] == [round(v, 9) for v in (1.0, 3.0 ** power, 2 * 0.25 ** power)]
    assert dumped["ref_s"] == pytest.approx([nominal, 3 * nominal, 0.25 * nominal])


def _clock_with_loops(loops):
    """A clock whose loops ran over the given (start, end) wall intervals,
    all of it on the CPU."""
    clock = timing.ReferenceClock()
    clock.starts = [start for start, _ in loops]
    clock.cpu = [end - start for start, end in loops]
    return clock


def test_reference_of_a_sample_comes_from_loops_next_to_it():
    # Loops every second: 0.1 s long until t=10, then 0.3 s (slow spell).
    loops = [(t, t + (0.1 if t < 10 else 0.3)) for t in range(20)]
    clock = _clock_with_loops(loops)
    # A short sample just after a loop started: that loop is its reference.
    assert clock.around(3.01, 3.02) == pytest.approx(0.1)
    # No loop within the window: the nearest loops on both sides.
    assert clock.around(9.5, 9.6) == pytest.approx((0.1 + 0.3) / 2)
    # A long sample spanning both speeds: the mean of the loops in it.
    assert clock.around(7.05, 13.05) == pytest.approx((0.1 * 2 + 0.3 * 4) / 6)


def test_reference_ignores_interrupted_loops():
    loops = [(t, t + 0.1) for t in range(10)] + [(10, 10.9)]
    clock = _clock_with_loops(loops)
    assert clock.around(0, 10) == pytest.approx(0.1)


def test_reference_without_loops_is_an_error():
    with pytest.raises(RuntimeError):
        _clock_with_loops([]).around(5.0, 6.0)


def test_resolve_pairs_cpu_seconds_with_the_reference():
    clock = _clock_with_loops([(t, t + 0.1) for t in range(10)])
    log = SampleLog(clock)
    log.record("op", 2.5, 4.5, cpu_s=1.8)     # 2 s of wall, 1.8 s on the CPU
    log.record("ops", 2.5, 4.5, cpu_s=1.8, ops=3)
    log.resolve()
    assert log.samples["op"] == [(1.8, pytest.approx(0.1))]
    assert log.samples["ops"] == [(pytest.approx(0.6), pytest.approx(0.1))]
    assert log.normalized("op") == [pytest.approx(timing.normalize(1.8, 0.1))]


def test_timed_records_thread_cpu_time_not_sleep():
    import time

    clock = _clock_with_loops([(time.perf_counter(), time.perf_counter() + 0.1)])
    log = SampleLog(clock)
    with log.timed("sleep"):
        time.sleep(0.05)
    log.resolve()
    (raw, _ref), = log.samples["sleep"]
    assert raw < 0.01


def test_reference_clock_runs_pinned_and_stops():
    import time

    cores = os.sched_getaffinity(0)
    clock = timing.ReferenceClock(interval_s=0.001)
    with clock:
        if clock.core is not None:
            assert os.sched_getaffinity(0) == {clock.core}
        time.sleep(0.05)
    assert len(clock.starts) >= 3 and len(clock.cpu) == len(clock.starts)
    assert all(cpu > 0 for cpu in clock.cpu)
    assert clock._thread is None
    assert os.sched_getaffinity(0) == cores      # unpinned again


def test_spread_uses_statistics_quartiles():
    s = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0
    assert s["iqr"] == pytest.approx(3.0)          # quantiles: 1.5, 3, 4.5
    assert s["iqr_share"] == pytest.approx(1.0)
    assert s["range_share"] == pytest.approx(4.0 / 3.0)
