"""Drift-normalized timing, nearest-rank percentiles and steadiness statistics.

The machines this benchmark runs on change speed often and by a lot: on a
shared 2-core VM each core flips between a fast and a ~1.8x slower mode
every tenth of a second to a few seconds, independently of the other core
(another tenant's work on the same physical core), and now and then the
whole VM stops for a few milliseconds (hypervisor steal).  A raw wall-clock
timing therefore says as much about the neighbours as about the code.

Two measures take them out.  A sample's raw time is the CPU time of the
benchmark's thread (``time.thread_time``), which does not advance while
the thread is not running: stolen time and the reference loops below are
left out.  And every sample is paired with a *reference time*: a
background :class:`ReferenceClock` thread, pinned with the benchmark to
one core, times a fixed pure-Python loop that imports nothing from
``repro`` every few milliseconds.  A sample's reference is the mean
duration of the loops that ran during it or right next to it, and the
normalized sample is

    raw * (REF_NOMINAL_S / reference) ** SLOWDOWN_EXPONENT

i.e. the sample in seconds of the core's fast mode, on which the loop takes
``REF_NOMINAL_S``.  A slow spell slows the sample and the loops together
and cancels, even when it covers only part of a long sample.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

#: Seconds one reference loop takes on a core in its fast mode (2-core
#: Linux VM, Python 3.11).  Normalized timings read as seconds there.
REF_NOMINAL_S = 0.000165

#: Iterations of one reference loop; about ``REF_NOMINAL_S`` in fast mode.
REF_ITERATIONS = 1_500

#: The program slows more than the reference loop when its core turns
#: slow: over thousands of served statements per workload, log(raw) rises
#: 1.11-1.26 times as fast as log(reference).  Normalization divides by
#: the reference's slowdown to this power.
SLOWDOWN_EXPONENT = 1.2

#: Pause between reference loops.
REF_INTERVAL_S = 0.010

#: Reference loops up to this far outside a sample still describe it.
REF_WINDOW_S = 0.025

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it.
MIN_TAIL_SAMPLES = 10


class _Link:
    __slots__ = ("key", "next")

    def __init__(self, key: int):
        self.key = key
        self.next = self


def _ring(n: int) -> _Link:
    links = [_Link(k * 37 % 101) for k in range(n)]
    for a, b in zip(links, links[1:] + links[:1]):
        a.next = b
    return links[0]


_RING = _ring(64)
_TABLE = {k: (k * 7919) % 1009 for k in range(512)}


def _reference_loop(n: int) -> int:
    """Fixed interpreter work of the kind the program spends its time on:
    attribute loads, dict lookups, integer arithmetic and comparisons.  It
    allocates no container, so it never triggers the garbage collector,
    whose cost would depend on the program's heap."""
    link = _RING
    table = _TABLE
    acc = 0
    for i in range(n):
        link = link.next
        acc += table[(link.key + i) & 511]
        if acc > 100_000:
            acc -= 99_991
    return acc


class ReferenceClock:
    """Times the reference loop every ``REF_INTERVAL_S`` in a daemon thread.

    :meth:`start` pins the calling thread -- and so the clock thread it
    starts -- to one core: the benchmark and its reference must share a
    core, since each core changes speed on its own.  :meth:`stop` gives the
    thread back the cores it had.
    """

    def __init__(self, interval_s: float = REF_INTERVAL_S):
        self.interval_s = interval_s
        #: Wall-clock start and CPU seconds of every loop.
        self.starts = array("d")
        self.cpu = array("d")
        self.core: Optional[int] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._affinity: Optional[set] = None

    def start(self) -> "ReferenceClock":
        try:
            self._affinity = os.sched_getaffinity(0)
            core = min(self._affinity)
            os.sched_setaffinity(0, {core})
            self.core = core
        except (AttributeError, OSError):
            self.core = None      # unpinned: references track less closely
        self._thread = threading.Thread(target=self._run, name="reference-clock", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            if self._thread.is_alive():
                raise RuntimeError("reference clock thread did not stop")
            self._thread = None
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
            self._affinity = None

    def _run(self) -> None:
        loop, n = _reference_loop, REF_ITERATIONS
        wall, cpu = time.perf_counter, time.thread_time
        while not self._stop.wait(self.interval_s):
            start, cpu_start = wall(), cpu()
            loop(n)
            self.cpu.append(cpu() - cpu_start)
            self.starts.append(start)

    def __enter__(self) -> "ReferenceClock":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def around(self, t0: float, t1: float) -> float:
        """The reference for the wall-clock interval ``[t0, t1]``: mean CPU
        seconds of the loops that started within ``REF_WINDOW_S`` of it,
        leaving out loops over twice the median (interrupted ones)."""
        lo = bisect.bisect_left(self.starts, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + REF_WINDOW_S)
        if hi == lo:
            # None that close (a long call held the interpreter lock):
            # take the nearest loop on either side.
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if hi == lo:
            raise RuntimeError("the reference clock recorded no loop")
        durations = self.cpu[lo:hi]
        cap = 2 * statistics.median(durations)
        return statistics.fmean(d for d in durations if d <= cap)


def normalize(raw_s: float, ref_s: float) -> float:
    """*raw_s* in seconds of a core in its fast mode."""
    if ref_s <= 0:
        raise ValueError(f"reference time must be positive, got {ref_s}")
    return raw_s * (REF_NOMINAL_S / ref_s) ** SLOWDOWN_EXPONENT


class SampleLog:
    """Timed samples per metric; each resolves to (raw, reference) seconds
    against a :class:`ReferenceClock` once the clock has run past it."""

    def __init__(self, clock: Optional[ReferenceClock] = None) -> None:
        self.clock = clock
        #: name -> (wall starts, wall ends, CPU seconds per operation).
        #: Flat float arrays: the garbage collector does not track them, so
        #: thousands of pending samples do not slow the program's
        #: collections down.
        self._pending: dict[str, tuple[array, array, array]] = {}
        self.samples: dict[str, list[tuple[float, float]]] = {}

    def record(self, name: str, t0: float, t1: float, cpu_s: float, ops: int = 1) -> None:
        """A sample that ran from *t0* to *t1* (``time.perf_counter``),
        using *cpu_s* of thread CPU time for *ops* equal operations; it
        counts as the time of one."""
        pending = self._pending.get(name)
        if pending is None:
            pending = self._pending[name] = (array("d"), array("d"), array("d"))
        pending[0].append(t0)
        pending[1].append(t1)
        pending[2].append(cpu_s / ops)

    @contextmanager
    def timed(self, name: str, ops: int = 1) -> Iterator[None]:
        wall, cpu = time.perf_counter(), time.thread_time()
        yield
        cpu_s = time.thread_time() - cpu
        self.record(name, wall, time.perf_counter(), cpu_s, ops)

    def add(self, name: str, raw_s: float, ref_s: float) -> None:
        """A sample already resolved to raw and reference seconds."""
        self.samples.setdefault(name, []).append((raw_s, ref_s))

    def resolve(self) -> None:
        """Pair every recorded sample with its reference (call after the
        clock has run at least ``REF_WINDOW_S`` past the last sample)."""
        for name, (starts, ends, cpu) in self._pending.items():
            for t0, t1, cpu_s in zip(starts, ends, cpu):
                self.add(name, cpu_s, self.clock.around(t0, t1))
        self._pending.clear()

    def count(self, name: str) -> int:
        return len(self.samples.get(name, ()))

    def normalized(self, name: str) -> list[float]:
        return [normalize(raw, ref) for raw, ref in self.samples.get(name, ())]

    def median(self, name: str) -> Optional[float]:
        values = self.normalized(name)
        return statistics.median(values) if values else None

    def to_json(self) -> dict:
        """Raw (thread CPU) seconds and reference seconds of every sample."""
        return {
            name: {
                "raw_s": [round(raw, 9) for raw, _ in pairs],
                "ref_s": [round(ref, 9) for _, ref in pairs],
            }
            for name, pairs in sorted(self.samples.items())
        }


def nearest_rank(values: Sequence[float], pct: float) -> Optional[float]:
    """The nearest-rank *pct* percentile of *values*, or None when fewer
    than ``MIN_TAIL_SAMPLES`` samples lie strictly beyond its rank.

    The nearest rank is ``ceil(pct / 100 * n)`` (1-based); the 50th
    percentile of ``[1, 2, 3, 4]`` is therefore 2.
    """
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(pct / 100 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


def spread(values: Sequence[float]) -> dict:
    """Median, interquartile range and range of *values*, the last two
    also as shares of the median."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    iqr = q3 - q1
    full = max(values) - min(values)
    return {
        "n": len(values),
        "median": median,
        "iqr": iqr,
        "iqr_share": iqr / median if median else 0.0,
        "range_share": full / median if median else 0.0,
    }
