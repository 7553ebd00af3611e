"""Sampling profiler: below-the-span visibility with bounded overhead.

The tracer decomposes a run into phases; this module decomposes a phase
into *frames*.  :class:`SamplingProfiler` runs a timer thread that walks
``sys._current_frames()`` at a configurable rate (default 97 Hz -- prime,
so sampling does not phase-lock with periodic work) and aggregates the
observed stacks.  No signals and no ``sys.setprofile`` hooks are
involved: the profiled code runs unmodified, sampling works from any
thread, and the only cost is the GIL time the sampler thread spends
walking frames -- which the profiler measures about itself and reports as
the ``profiler.overhead_pct`` gauge.

Exports:

* ``collapsed()`` -- one ``frame;frame;frame count`` line per distinct
  stack, the format ``flamegraph.pl`` and speedscope import directly;
* ``to_dict()`` -- JSON summary (top frames, per-region sample counts,
  overhead, nominal and achieved sampling rate) embedded into telemetry
  snapshots and so into the ``repro top`` status document.

Threads the observability layer owns (named with :data:`OBS_THREAD_PREFIX`:
the sampler itself, the status writer) are never sampled, so their
stacks do not pose as the profiled program's.

The process-wide instance (:func:`get_profiler`) is ``None`` until
someone opts in (:func:`enable_profiler`, ``repro advise --profile``, or
``REPRO_PROFILE=1`` for the benches), so the :func:`profile` hooks wired
through the advisor, what-if costing, the executor and the bench harness
are near-free no-ops by default.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from .atomic import write_atomic
from .metrics import gauge

__all__ = [
    "DEFAULT_HZ",
    "SamplingProfiler",
    "get_profiler",
    "set_profiler",
    "enable_profiler",
    "disable_profiler",
    "profiler_from_env",
    "profile",
]

#: Default sampling rate.  Prime (like Linux perf's 99) so the sampler
#: does not alias with work that recurs at round frequencies.
DEFAULT_HZ = 97

#: Distinct stacks retained; further novel stacks aggregate into one
#: overflow bucket so pathological workloads cannot grow memory unbounded.
DEFAULT_MAX_STACKS = 10_000

#: Stack-depth cap per sample (frames below the cap are dropped).
DEFAULT_MAX_DEPTH = 64

OVERFLOW_FRAME = "<overflow>"

#: Name prefix of every thread the observability layer starts.
OBS_THREAD_PREFIX = "repro-"


def _frame_label(code) -> str:
    """``module.qualname`` for one frame (line numbers would explode
    stack cardinality, so granularity is the function)."""
    base = os.path.basename(code.co_filename)
    if base.endswith(".py"):
        base = base[:-3]
    qualname = getattr(code, "co_qualname", None) or code.co_name
    # Space and ";" are structural in the collapsed-stack format (e.g.
    # "<frozen runpy>" filenames would split a line).
    return f"{base}.{qualname}".replace(" ", "_").replace(";", ":")


class SamplingProfiler:
    """Timer-thread sampling profiler with bounded memory.

    Args:
        hz: target samples per second.
        max_stacks: distinct stacks to retain (overflow aggregates).
        max_depth: frames kept per stack, innermost preserved.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        max_stacks: int = DEFAULT_MAX_STACKS,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ):
        self.hz = float(hz)
        self.max_stacks = max_stacks
        self.max_depth = max_depth
        self._interval = 1.0 / max(1e-3, self.hz)
        self._lock = threading.Lock()
        self._stacks: dict[tuple[str, ...], int] = {}
        self._region_counts: dict[str, int] = {}
        self._regions: list[str] = []
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.samples = 0
        self.ticks = 0
        self.truncated = 0
        self._sampling_seconds = 0.0
        self._wall_seconds = 0.0
        self._started_at: Optional[float] = None
        self._nesting = 0

    # -- lifecycle ------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling and publish the ``profiler.overhead_pct`` gauge."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join()
        self._thread = None
        if self._started_at is not None:
            self._wall_seconds += time.perf_counter() - self._started_at
            self._started_at = None
        # Call-time binding: record into whatever registry is current.
        gauge(
            "profiler.overhead_pct",
            "sampler GIL time as % of profiled wall time",
        ).set(self.overhead_pct)

    def reset(self) -> None:
        """Drop accumulated samples (the profiler may keep running)."""
        with self._lock:
            self._stacks.clear()
            self._region_counts.clear()
            self.samples = 0
            self.ticks = 0
            self.truncated = 0
            self._sampling_seconds = 0.0
            self._wall_seconds = 0.0
            if self._started_at is not None:
                self._started_at = time.perf_counter()

    # -- sampling -------------------------------------------------------------

    def _run(self) -> None:
        # A tick fires at the end of its interval, so ticks / wall time
        # never exceeds the nominal rate.
        took = 0.0
        while not self._stop.wait(max(0.0, self._interval - took)):
            t0 = time.perf_counter()
            self._sample()
            took = time.perf_counter() - t0
            with self._lock:
                self._sampling_seconds += took
                self.ticks += 1

    def _sample(self) -> None:
        frames = sys._current_frames()
        skip = {
            thread.ident
            for thread in threading.enumerate()
            if thread.name.startswith(OBS_THREAD_PREFIX)
        }
        with self._lock:
            region = self._regions[-1] if self._regions else ""
            for ident, frame in frames.items():
                if ident in skip:
                    continue
                stack: list[str] = []
                depth = 0
                while frame is not None and depth < self.max_depth:
                    stack.append(_frame_label(frame.f_code))
                    frame = frame.f_back
                    depth += 1
                stack.reverse()
                self._record(tuple(stack), region)

    def _record(self, stack: tuple[str, ...], region: str = "") -> None:
        """Account one sampled stack (callers must hold ``_lock``; split
        out so the bounded-memory path is directly testable)."""
        if stack not in self._stacks and len(self._stacks) >= self.max_stacks:
            stack = (OVERFLOW_FRAME,)
            self.truncated += 1
        self._stacks[stack] = self._stacks.get(stack, 0) + 1
        self.samples += 1
        if region:
            self._region_counts[region] = self._region_counts.get(region, 0) + 1

    # -- regions (the `profile()` hook state) ---------------------------------

    def push_region(self, name: str) -> None:
        with self._lock:
            self._regions.append(name)

    def pop_region(self) -> None:
        with self._lock:
            if self._regions:
                self._regions.pop()

    def _enter(self) -> None:
        self._nesting += 1
        if self._nesting == 1:
            self.start()

    def _exit(self) -> None:
        self._nesting -= 1
        if self._nesting <= 0:
            self._nesting = 0
            self.stop()

    # -- accounting -----------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        live = 0.0
        if self._started_at is not None:
            live = time.perf_counter() - self._started_at
        return self._wall_seconds + live

    @property
    def achieved_hz(self) -> float:
        """Sampling ticks per second of profiled wall time."""
        wall = self.wall_seconds
        return self.ticks / wall if wall > 0 else 0.0

    @property
    def overhead_pct(self) -> float:
        """Sampler GIL time as a percentage of profiled wall time."""
        wall = self.wall_seconds
        if wall <= 0:
            return 0.0
        with self._lock:
            return 100.0 * self._sampling_seconds / wall

    # -- export ---------------------------------------------------------------

    def stacks(self) -> dict[tuple[str, ...], int]:
        with self._lock:
            return dict(self._stacks)

    def collapsed(self) -> str:
        """Collapsed-stack text (``flamegraph.pl`` / speedscope input)."""
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.stacks().items())
            if stack
        ]
        return "\n".join(lines)

    def write_collapsed(self, path: str) -> None:
        write_atomic(path, lambda fh: fh.write(self.collapsed() + "\n"))

    def top_frames(self, n: int = 10) -> list[dict]:
        """Hottest frames by *self* (leaf) samples."""
        self_counts: dict[str, int] = {}
        total = 0
        for stack, count in self.stacks().items():
            if not stack:
                continue
            self_counts[stack[-1]] = self_counts.get(stack[-1], 0) + count
            total += count
        ranked = sorted(self_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            {
                "frame": frame,
                "samples": count,
                "pct": 100.0 * count / total if total else 0.0,
            }
            for frame, count in ranked[:n]
        ]

    def to_dict(self) -> dict:
        with self._lock:
            regions = dict(self._region_counts)
            distinct = len(self._stacks)
        return {
            "hz": self.hz,
            "achieved_hz": self.achieved_hz,
            "samples": self.samples,
            "distinct_stacks": distinct,
            "truncated": self.truncated,
            "wall_seconds": self.wall_seconds,
            "overhead_pct": self.overhead_pct,
            "top_frames": self.top_frames(10),
            "regions": dict(sorted(regions.items())),
        }


# -- process-wide profiler ----------------------------------------------------

_profiler: Optional[SamplingProfiler] = None


def get_profiler() -> Optional[SamplingProfiler]:
    """The process-wide profiler, or None when profiling is off."""
    return _profiler


def set_profiler(
    profiler: Optional[SamplingProfiler],
) -> Optional[SamplingProfiler]:
    """Install (or clear, with None) the process-wide profiler."""
    global _profiler
    previous = _profiler
    _profiler = profiler
    return previous


def enable_profiler(hz: float = DEFAULT_HZ, **kwargs) -> SamplingProfiler:
    """Opt in: install a process-wide profiler (the :func:`profile` hooks
    start/stop it around instrumented regions).  Reuses an existing
    instance so repeated enables don't drop samples."""
    global _profiler
    if _profiler is None:
        _profiler = SamplingProfiler(hz=hz, **kwargs)
    return _profiler


def disable_profiler() -> Optional[SamplingProfiler]:
    """Stop and uninstall the process-wide profiler; returns it so the
    caller can export its samples."""
    profiler = set_profiler(None)
    if profiler is not None:
        profiler.stop()
    return profiler


def profiler_from_env() -> Optional[SamplingProfiler]:
    """Honor ``REPRO_PROFILE=1`` (+ optional ``REPRO_PROFILE_HZ``): the
    opt-in used by the bench harness and CI smoke jobs."""
    flag = os.environ.get("REPRO_PROFILE", "")
    if flag in ("", "0"):
        return None
    hz = float(os.environ.get("REPRO_PROFILE_HZ", DEFAULT_HZ))
    return enable_profiler(hz=hz)


@contextmanager
def profile(name: str = "") -> Iterator[None]:
    """Mark a profiled region.

    A no-op unless a process-wide profiler is installed; otherwise the
    sampler runs while at least one region is open and samples are
    additionally bucketed under the innermost region *name* (rendered by
    ``repro top`` and ``obs-report``).
    """
    profiler = get_profiler()
    if profiler is None:
        yield
        return
    if name:
        profiler.push_region(name)
    profiler._enter()
    try:
        yield
    finally:
        profiler._exit()
        if name:
            profiler.pop_region()
