"""Time-windowed metrics snapshots: the feed behind ``repro top``.

:class:`MetricsSnapshotBus` keeps a ring buffer of periodic
registry snapshots.  Each snapshot records the wall/monotonic capture
time plus the full :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`,
the tail of the decision journal, and the profiler summary when one is
active -- everything a live dashboard needs.  Deltas and rates over the
buffer turn cumulative counters into "optimizer calls per second" style
readings without any server-side state.

The bus has three consumers:

* an instrumented process starts it with ``interval=...`` and a status
  *path*: every capture is atomically written as one JSON document, which
  is how a *separate* ``repro top`` process observes the run (same
  default path on both sides, override with ``REPRO_STATUS_FILE``);
* ``repro top`` loads that document (:func:`load_status`) and renders it;
* ``repro top --serve PORT`` exposes it over a stdlib ``http.server``
  JSON endpoint (:func:`serve_status`) for scraping.

Like the tracer/registry/journal there is a process-wide instance
(:func:`get_bus`); :func:`capture_now` is the cheap hook instrumented
code calls at natural progress points (advisor phase ends, tuning-cycle
ends) so even short runs leave a usable snapshot series.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Optional

from .atomic import write_atomic
from .metrics import get_registry

__all__ = [
    "SNAPSHOT_FORMAT",
    "MetricsSnapshotBus",
    "counter_deltas",
    "counter_rates",
    "default_status_path",
    "load_status",
    "get_bus",
    "set_bus",
    "capture_now",
    "serve_status",
]

SNAPSHOT_FORMAT = "repro.obs.snapshots"
SNAPSHOT_VERSION = 1

#: Default ring capacity: at the default 1 s interval, four minutes of
#: history -- enough for rate windows while keeping status files small.
DEFAULT_CAPACITY = 240

#: Journal records included per snapshot (the "journal tail").
JOURNAL_TAIL = 8


def default_status_path() -> str:
    """Where instrumented runs publish status and ``repro top`` reads it.

    ``REPRO_STATUS_FILE`` overrides; the default lives in the system temp
    directory so runs and dashboards started from different working
    directories still find each other.
    """
    return os.environ.get("REPRO_STATUS_FILE") or os.path.join(
        tempfile.gettempdir(), "repro-status.json"
    )


class MetricsSnapshotBus:
    """Bounded ring of timestamped registry snapshots with delta/rate math.

    Args:
        capacity: snapshots retained (oldest evicted first).
        interval: seconds between captures when :meth:`start` runs the
            background sampler thread.
        path: when set, every capture atomically rewrites this JSON file.
        source: free-form label for the producing run (shown by ``top``).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        interval: float = 1.0,
        path: Optional[str] = None,
        source: str = "",
    ):
        self.capacity = max(2, int(capacity))
        self.interval = float(interval)
        self.path = path
        self.source = source
        self.started_wall = time.time()
        self._lock = threading.Lock()
        self._snaps: deque[dict] = deque(maxlen=self.capacity)
        self._extras_fns: list[Callable[[], dict]] = []
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def add_extras(self, fn: Callable[[], dict]) -> None:
        """Attach a provider whose dict is merged into every snapshot's
        ``extras`` (failures are swallowed -- telemetry must not break
        the run it observes)."""
        self._extras_fns.append(fn)

    # -- capture --------------------------------------------------------------

    def capture(
        self, now: Optional[float] = None, mono: Optional[float] = None
    ) -> dict:
        """Record one snapshot (timestamps injectable for tests)."""
        snap: dict[str, Any] = {
            "ts": time.time() if now is None else now,
            "mono": time.perf_counter() if mono is None else mono,
            "pid": os.getpid(),
            "metrics": get_registry().snapshot(),
        }
        extras = self._default_extras()
        for fn in self._extras_fns:
            try:
                extras.update(fn() or {})
            except Exception:
                pass
        if extras:
            snap["extras"] = extras
        with self._lock:
            self._snaps.append(snap)
        return snap

    def _default_extras(self) -> dict:
        extras: dict[str, Any] = {}
        from .events import get_journal

        records = get_journal().records()
        if records:
            extras["journal_tail"] = records[-JOURNAL_TAIL:]
        from .profiler import get_profiler

        profiler = get_profiler()
        if profiler is not None and profiler.samples:
            extras["profiler"] = profiler.to_dict()
        return extras

    # -- inspection -----------------------------------------------------------

    def snapshots(self) -> list[dict]:
        with self._lock:
            return list(self._snaps)

    def latest(self) -> Optional[dict]:
        with self._lock:
            return self._snaps[-1] if self._snaps else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._snaps)

    def window(self, seconds: Optional[float] = None) -> list[dict]:
        """Snapshots within the trailing *seconds* (all when None)."""
        snaps = self.snapshots()
        if seconds is None or not snaps:
            return snaps
        horizon = snaps[-1]["mono"] - seconds
        return [s for s in snaps if s["mono"] >= horizon]

    def deltas(self, seconds: Optional[float] = None) -> dict:
        """Counter deltas between the edges of the trailing window."""
        return counter_deltas(self.window(seconds))

    def rates(self, seconds: Optional[float] = None) -> dict:
        """Counter increments per second over the trailing window."""
        return counter_rates(self.window(seconds))

    # -- background sampling / persistence ------------------------------------

    def start(self) -> None:
        """Run capture (+ write, when a path is set) every ``interval``."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-snapshot-bus", daemon=True
        )
        self._thread.start()

    def stop(self, final_capture: bool = True) -> None:
        """Stop the sampler; by default take one last capture + write so
        the status file reflects the finished run."""
        thread = self._thread
        if thread is not None:
            self._stop.set()
            thread.join()
            self._thread = None
        if final_capture:
            self.capture()
            if self.path:
                self.write()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.capture()
                if self.path:
                    self.write()
            except Exception:
                pass
            self._stop.wait(self.interval)

    def to_dict(self) -> dict:
        return {
            "format": SNAPSHOT_FORMAT,
            "v": SNAPSHOT_VERSION,
            "source": self.source,
            "pid": os.getpid(),
            "started": self.started_wall,
            "snapshots": self.snapshots(),
        }

    def write(self, path: Optional[str] = None) -> str:
        """Atomically publish the ring as one JSON document."""
        target = path or self.path or default_status_path()
        write_atomic(target, lambda fh: json.dump(self.to_dict(), fh, default=str))
        return target


# -- delta/rate math over snapshot lists --------------------------------------


def counter_deltas(snapshots: list[dict]) -> dict:
    """Per-counter, per-label increments between the first and last
    snapshot of *snapshots* (``{name: {label: delta}}``).

    A counter that shrank (producing process restarted) is treated the
    Prometheus way: the post-restart value *is* the delta.
    """
    if len(snapshots) < 2:
        return {}
    first = (snapshots[0].get("metrics") or {}).get("counters") or {}
    last = (snapshots[-1].get("metrics") or {}).get("counters") or {}
    out: dict[str, dict[str, float]] = {}
    for name, by_label in last.items():
        base = first.get(name) or {}
        for label, value in by_label.items():
            delta = value - base.get(label, 0.0)
            if delta < 0:
                delta = value
            if delta:
                out.setdefault(name, {})[label] = delta
    return out


def counter_rates(snapshots: list[dict]) -> dict:
    """Counter increments per second over *snapshots* (same shape as
    :func:`counter_deltas`)."""
    if len(snapshots) < 2:
        return {}
    elapsed = snapshots[-1]["mono"] - snapshots[0]["mono"]
    if elapsed <= 0:
        return {}
    return {
        name: {label: delta / elapsed for label, delta in by_label.items()}
        for name, by_label in counter_deltas(snapshots).items()
    }


def load_status(path: str) -> dict:
    """Load a published status document, validating its format."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"{path}: not a {SNAPSHOT_FORMAT} document")
    version = payload.get("v")
    if not isinstance(version, int) or version > SNAPSHOT_VERSION:
        raise ValueError(
            f"{path}: status schema v{version!r} is newer than this "
            f"reader (v{SNAPSHOT_VERSION})"
        )
    return payload


# -- process-wide bus ---------------------------------------------------------

_bus: Optional[MetricsSnapshotBus] = None


def get_bus() -> Optional[MetricsSnapshotBus]:
    """The process-wide snapshot bus, or None when no run publishes one."""
    return _bus


def set_bus(bus: Optional[MetricsSnapshotBus]) -> Optional[MetricsSnapshotBus]:
    """Install (or clear, with None) the process-wide bus."""
    global _bus
    previous = _bus
    _bus = bus
    return previous


def capture_now() -> None:
    """Snapshot at a natural progress point (advisor phase end, tuning
    cycle end).  No-op unless a bus is installed, so instrumented library
    code can call it unconditionally."""
    bus = get_bus()
    if bus is None:
        return
    try:
        bus.capture()
        if bus.path:
            bus.write()
    except Exception:
        pass


# -- HTTP endpoint ------------------------------------------------------------


def serve_status(
    source: "MetricsSnapshotBus | str",
    port: int = 0,
    host: str = "127.0.0.1",
) -> ThreadingHTTPServer:
    """Serve status JSON over HTTP for scraping.

    *source* is either a live bus (served from memory) or a status file
    path (re-read per request, so a dashboard process can serve a run
    happening elsewhere).  Returns the bound server -- call
    ``serve_forever()`` (or run it in a thread) and ``shutdown()`` when
    done; ``port=0`` binds an ephemeral port (``server_address[1]``).
    """
    if isinstance(source, MetricsSnapshotBus):
        provider = source.to_dict
    else:
        provider = lambda: load_status(source)   # noqa: E731

    class _StatusHandler(BaseHTTPRequestHandler):
        def do_GET(self):   # noqa: N802 (http.server API)
            try:
                body = json.dumps(provider(), default=str).encode()
                status = 200
            except Exception as exc:
                body = json.dumps({"error": str(exc)}).encode()
                status = 503
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):   # silence per-request stderr noise
            pass

    return ThreadingHTTPServer((host, port), _StatusHandler)
