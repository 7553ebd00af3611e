"""``repro top`` -- a live terminal dashboard over published status.

Renders the :mod:`~repro.obs.snapshots` status document an instrumented
run publishes (``repro advise`` writes it; ``repro top`` reads it from
the shared default path or ``--status FILE``).  The document's
``telemetry`` block is drawn by ``obs-report``'s section renderers and
its journal tail by ``fleet-report``'s event-line formatter; this module
adds only a header and a rates line.  Plain ANSI -- a clear-screen
escape per refresh, no curses -- so it works in CI logs (``--once``
prints a single frame) and over the dumbest SSH session alike.
``--serve PORT`` exposes the same document on a stdlib HTTP endpoint
instead of drawing it.

The renderer is a pure function of the status document, the previous
read and an injectable "now", which is what makes the golden-output
test possible.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Optional, Sequence

from .fleet_report import event_line
from .report import render_fallbacks, render_phases, render_profiler, render_whatif
from .snapshots import counter_rates, default_status_path, load_status, serve_status

__all__ = ["render_top", "run_top", "make_top_parser"]

WIDTH = 78

#: Counters whose per-second rate the rates line shows.
RATE_COUNTERS = (
    ("optimizer.calls", "optimizer calls"),
    ("whatif.evaluations", "what-if requests"),
)


def render_top(
    status: dict, previous: Optional[dict] = None, now: Optional[float] = None
) -> str:
    """Render one dashboard frame from a status document.

    Rates run from *previous* (an earlier read of the same run) to
    *status*; without an earlier read, from the run's start.
    """
    now = time.time() if now is None else now
    ts = status.get("ts", now)
    telemetry = status.get("telemetry") or {}
    metrics = telemetry.get("metrics") or {}
    counters = metrics.get("counters") or {}

    header = (
        f"repro top — source {status.get('source') or '?'}  "
        f"pid {status.get('pid', '?')}  age {max(0.0, now - ts):.1f}s"
    )
    active = (metrics.get("gauges") or {}).get("advisor.phase.active") or {}
    running = sorted(label.partition("=")[2] for label, on in active.items() if on)
    if running:
        header += "  running " + ",".join(running)

    if previous is not None and previous.get("ts", ts) < ts:
        since = previous["ts"]
        before = ((previous.get("telemetry") or {}).get("metrics") or {}).get(
            "counters"
        ) or {}
    else:
        since = status.get("started", ts)
        before = {}
    rates = counter_rates(before, counters, ts - since)
    rate_line = f"rates over {ts - since:.2f}s: " + ", ".join(
        f"{label} {sum((rates.get(name) or {}).values()):.1f}/s"
        for name, label in RATE_COUNTERS
    )

    sections = [
        "\n".join([header[:WIDTH], "=" * WIDTH, rate_line, render_fallbacks(counters)]),
        render_phases(telemetry.get("spans")),
        render_whatif(counters),
        render_profiler(telemetry.get("profiler")),
    ]
    tail = [r for r in status.get("journal_tail") or [] if isinstance(r, dict)]
    if tail:
        sections.append("\n".join(["journal tail:"] + [event_line(r) for r in tail]))
    return "\n\n".join(s for s in sections if s)


# -- CLI ----------------------------------------------------------------------


def make_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli top",
        description="Live dashboard over a run's published status "
        "document (see docs/OBSERVABILITY.md).",
    )
    parser.add_argument("--status", default=None, metavar="FILE",
                        help="status file to watch (default: "
                        "$REPRO_STATUS_FILE or the temp-dir default)")
    parser.add_argument("--once", action="store_true",
                        help="print a single frame and exit (CI mode)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="refresh period in seconds (default 2)")
    parser.add_argument("--serve", type=int, default=None, metavar="PORT",
                        help="serve the status JSON over HTTP instead "
                        "of rendering")
    return parser


def run_top(argv: Sequence[str], out: Any = None) -> int:
    """Entry point for ``repro.cli top``."""
    args = make_top_parser().parse_args(list(argv))
    out = sys.stdout if out is None else out
    path = args.status or default_status_path()

    if args.serve is not None:
        server = serve_status(path, port=args.serve)
        host, port = server.server_address[:2]
        print(f"serving {path} on http://{host}:{port}/ (Ctrl-C to stop)",
              file=out)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0

    if args.once:
        try:
            status = load_status(path)
        except (OSError, ValueError) as exc:
            print(f"repro top: no status at {path} ({exc}); run an "
                  "instrumented command (e.g. `repro advise`) first or "
                  "pass --status FILE", file=sys.stderr)
            return 2
        print(render_top(status), file=out)
        return 0

    # Rates between reads: *previous* is the last document whose
    # timestamp differs from the one on screen.
    previous: Optional[dict] = None
    current: Optional[dict] = None
    try:
        while True:
            try:
                status = load_status(path)
            except (OSError, ValueError) as exc:
                frame = f"repro top: waiting for status at {path} ({exc})"
            else:
                if current is not None and status.get("ts") != current.get("ts"):
                    previous = current
                current = status
                frame = render_top(status, previous)
            out.write("\x1b[2J\x1b[H" + frame + "\n")
            out.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
