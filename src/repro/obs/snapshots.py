"""The status document: the feed behind ``repro top``.

An instrumented run publishes one JSON document, rewritten whole:

``{format, v: 2, source, pid, started, ts, telemetry, journal_tail}``

``telemetry`` is :func:`~repro.obs.telemetry_snapshot` -- the same block
bench results and ``advise --format json`` carry, so ``obs-report``
renders a status file like any other telemetry artifact -- and
``journal_tail`` holds the last :data:`JOURNAL_TAIL` journal records.

* the run owns a :class:`StatusWriter`, which atomically rewrites the
  document every ``interval`` seconds and once more on stop (same default
  path on both sides, override with ``REPRO_STATUS_FILE``);
* ``repro top`` loads it (:func:`load_status`) and renders it, turning
  cumulative counters into per-second rates between two reads
  (:func:`counter_rates`);
* ``repro top --serve PORT`` exposes it over a stdlib ``http.server``
  JSON endpoint (:func:`serve_status`) for scraping.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from .atomic import write_atomic
from .events import get_journal
from .metrics import Tally

__all__ = [
    "SNAPSHOT_FORMAT",
    "StatusWriter",
    "counter_rates",
    "default_status_path",
    "load_status",
    "serve_status",
]

SNAPSHOT_FORMAT = "repro.obs.snapshots"
SNAPSHOT_VERSION = 2

#: Journal records included per document (the "journal tail").
JOURNAL_TAIL = 8

_WRITE_FAILURES = Tally(
    "status.write_failures", "status document writes that raised"
)


def default_status_path() -> str:
    """Where instrumented runs publish status and ``repro top`` reads it.

    ``REPRO_STATUS_FILE`` overrides; the default lives in the system temp
    directory so runs and dashboards started from different working
    directories still find each other.
    """
    return os.environ.get("REPRO_STATUS_FILE") or os.path.join(
        tempfile.gettempdir(), "repro-status.json"
    )


class StatusWriter:
    """Publishes the status document to *path* while a run is going.

    Args:
        path: the status file, rewritten atomically on every write.
        source: free-form label for the producing run (shown by ``top``).
        interval: seconds between writes of the background thread.
    """

    def __init__(self, path: str, source: str = "", interval: float = 1.0):
        self.path = path
        self.source = source
        self.interval = float(interval)
        self.started = time.time()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def document(self) -> dict:
        """The current status document of this process."""
        from . import telemetry_snapshot

        return {
            "format": SNAPSHOT_FORMAT,
            "v": SNAPSHOT_VERSION,
            "source": self.source,
            "pid": os.getpid(),
            "started": self.started,
            "ts": time.time(),
            "telemetry": telemetry_snapshot(),
            "journal_tail": get_journal().records()[-JOURNAL_TAIL:],
        }

    def write(self, path: Optional[str] = None) -> str:
        """Atomically publish the current document."""
        target = path or self.path
        write_atomic(target, lambda fh: json.dump(self.document(), fh, default=str))
        return target

    def start(self) -> None:
        """Write every ``interval`` on a daemon thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-status-writer", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread and write once more, so the file reflects the
        finished run (a failure of this last write raises)."""
        thread = self._thread
        if thread is not None:
            self._stop.set()
            thread.join()
            self._thread = None
        self.write()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.write()
            except Exception:
                # The dashboard feed must not end the run it observes;
                # the count shows up in every later document.
                _WRITE_FAILURES.n += 1
            self._stop.wait(self.interval)


def counter_rates(before: dict, after: dict, seconds: float) -> dict:
    """Per-second increments between two counter snapshots
    (``{name: {label: value}}``) taken *seconds* apart.

    A counter that shrank (producing process restarted) is treated the
    Prometheus way: the post-restart value *is* the delta.
    """
    if seconds <= 0:
        return {}
    out: dict[str, dict[str, float]] = {}
    for name, by_label in after.items():
        base = before.get(name) or {}
        for label, value in by_label.items():
            delta = value - base.get(label, 0.0)
            if delta < 0:
                delta = value
            if delta:
                out.setdefault(name, {})[label] = delta / seconds
    return out


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
    if version < SNAPSHOT_VERSION:
        raise ValueError(
            f"{path}: status schema v{version} (a snapshot ring) is no "
            f"longer read (this reader reads v{SNAPSHOT_VERSION}); re-run "
            "the producing command"
        )
    return payload


def serve_status(
    path: str, port: int = 0, host: str = "127.0.0.1"
) -> ThreadingHTTPServer:
    """Serve the status file at *path* as JSON over HTTP for scraping.

    The file is re-read per request, so a dashboard process can serve a
    run happening elsewhere.  Returns the bound server -- call
    ``serve_forever()`` (or run it in a thread) and ``shutdown()`` when
    done; ``port=0`` binds an ephemeral port (``server_address[1]``).
    """

    class _StatusHandler(BaseHTTPRequestHandler):
        def do_GET(self):   # noqa: N802 (http.server API)
            try:
                body = json.dumps(load_status(path), default=str).encode()
                status = 200
            except (OSError, ValueError) as exc:
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
