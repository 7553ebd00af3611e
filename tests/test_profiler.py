"""Tests for the sampling profiler (repro.obs.profiler)."""

from __future__ import annotations

import re
import time

import pytest

from repro.obs import (
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.profiler import (
    OVERFLOW_FRAME,
    SamplingProfiler,
    disable_profiler,
    enable_profiler,
    get_profiler,
    profile,
    profiler_from_env,
    set_profiler,
)


@pytest.fixture()
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture()
def no_profiler():
    """No process-wide profiler before or after the test."""
    previous = set_profiler(None)
    yield
    installed = set_profiler(previous)
    if installed is not None:
        installed.stop()


def _busy_loop(seconds: float) -> int:
    total = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        total += sum(range(50))
    return total


def test_sampler_collects_stacks_with_low_overhead(registry, no_profiler):
    profiler = SamplingProfiler(hz=97)
    profiler.start()
    _busy_loop(0.5)
    profiler.stop()
    # ~48 expected at 97 Hz over 0.5 s; demand a tenth of that to stay
    # robust on a loaded CI box.
    assert profiler.samples > 5
    assert profiler.overhead_pct < 5.0
    # stop() published the gauge into the current registry.
    assert registry.gauge("profiler.overhead_pct").value() < 5.0
    top = profiler.top_frames(10)
    assert top and sum(f["samples"] for f in top) <= profiler.samples
    assert any("_busy_loop" in f["frame"] for f in top)


def test_collapsed_stack_format(registry, no_profiler):
    profiler = SamplingProfiler(hz=97)
    profiler.start()
    _busy_loop(0.3)
    profiler.stop()
    lines = profiler.collapsed().splitlines()
    assert lines
    for line in lines:
        # flamegraph.pl input: "frame;frame;frame <count>"
        assert re.fullmatch(r"[^ ]+(;[^ ]+)* \d+", line), line
    assert any("_busy_loop" in line for line in lines)


def test_write_collapsed(tmp_path, registry, no_profiler):
    profiler = SamplingProfiler(hz=97)
    profiler.start()
    _busy_loop(0.2)
    profiler.stop()
    path = tmp_path / "out.collapsed"
    profiler.write_collapsed(str(path))
    assert path.read_text().strip() == profiler.collapsed().strip()


def test_bounded_distinct_stacks():
    profiler = SamplingProfiler(max_stacks=2)
    with profiler._lock:
        profiler._record(("a", "b"))
        profiler._record(("a", "c"))
        profiler._record(("a", "d"))   # third distinct stack overflows
        profiler._record(("a", "b"))
    stacks = profiler.stacks()
    assert len(stacks) == 3   # two real + the overflow bucket
    assert stacks[(OVERFLOW_FRAME,)] == 1
    assert profiler.truncated == 1
    assert profiler.samples == 4


def test_profile_context_regions(registry, no_profiler):
    profiler = enable_profiler(hz=97)
    with profile("outer.region"):
        _busy_loop(0.3)
    assert not profiler.running   # last region exit stops the sampler
    summary = profiler.to_dict()
    assert summary["samples"] > 0
    assert "outer.region" in summary["regions"]


def test_profile_noop_without_profiler(no_profiler):
    assert get_profiler() is None
    with profile("ignored"):
        pass   # must not install or crash anything
    assert get_profiler() is None


def test_enable_disable_lifecycle(no_profiler):
    first = enable_profiler()
    assert enable_profiler() is first   # reuse, don't drop samples
    returned = disable_profiler()
    assert returned is first
    assert get_profiler() is None
    assert not first.running


def test_profiler_from_env(monkeypatch, no_profiler):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    assert profiler_from_env() is None
    monkeypatch.setenv("REPRO_PROFILE", "0")
    assert profiler_from_env() is None
    monkeypatch.setenv("REPRO_PROFILE", "1")
    monkeypatch.setenv("REPRO_PROFILE_HZ", "31")
    profiler = profiler_from_env()
    assert profiler is not None and profiler.hz == 31.0


def test_reset_clears_samples(no_profiler):
    profiler = SamplingProfiler()
    with profiler._lock:
        profiler._record(("x",), region="r")
    assert profiler.samples == 1
    profiler.reset()
    assert profiler.samples == 0
    assert profiler.stacks() == {}
    assert profiler.to_dict()["regions"] == {}


def test_telemetry_snapshot_carries_profiler(registry, no_profiler):
    from repro.obs import telemetry_snapshot

    enable_profiler(hz=97)
    with profile("snap.region"):
        _busy_loop(0.2)
    snapshot = telemetry_snapshot()
    assert snapshot["profiler"]["samples"] > 0
    assert "snap.region" in snapshot["profiler"]["regions"]


def test_obs_threads_are_not_sampled_and_achieved_rate_is_reported(
    tmp_path, registry, no_profiler
):
    """The status writer's stacks never appear in samples, and the
    exported achieved rate is the ticks actually taken per second."""
    from repro.obs import StatusWriter

    writer = StatusWriter(str(tmp_path / "status.json"), interval=0.005)
    profiler = SamplingProfiler(hz=97)
    writer.start()
    try:
        profiler.start()
        _busy_loop(0.4)
        profiler.stop()
    finally:
        writer.stop()
    stacks = profiler.stacks()
    assert stacks
    assert not any("StatusWriter" in frame for stack in stacks for frame in stack)
    assert not any("SamplingProfiler" in frame for stack in stacks for frame in stack)
    summary = profiler.to_dict()
    assert 0 < summary["achieved_hz"] <= summary["hz"]
    assert summary["achieved_hz"] == profiler.ticks / summary["wall_seconds"]
