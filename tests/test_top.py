"""Tests for the ``repro top`` dashboard (repro.obs.top)."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.obs.top import render_top, run_top

STATUS = {
    "format": "repro.obs.snapshots",
    "v": 2,
    "source": "advise:aim",
    "pid": 4242,
    "started": 990.0,
    "ts": 1010.0,
    "telemetry": {
        "metrics": {
            "counters": {
                "advisor.runs": {"": 1.0},
                "optimizer.calls": {"kind=select": 15.0},
                "whatif.evaluations": {"": 40.0},
                "whatif.cache_hits": {"": 30.0},
                "whatif.canonical_hits": {"": 4.0},
                "analyze.cache_hits": {"": 12.0},
                "status.write_failures": {"": 1.0},
            },
            "gauges": {
                "advisor.phase.active": {"phase=ranking": 1.0,
                                         "phase=baseline_cost": 0.0},
            },
            "histograms": {},
        },
        "spans": {
            "advisor.baseline_cost": {"count": 1, "total_seconds": 0.05,
                                      "max_seconds": 0.05,
                                      "attrs": {"optimizer_calls": 6}},
            "advisor.merge": {"count": 2, "total_seconds": 0.002,
                              "max_seconds": 0.0015, "attrs": {}},
        },
        "profiler": {
            "hz": 97.0, "achieved_hz": 46.8, "samples": 120,
            "wall_seconds": 2.56, "overhead_pct": 0.8,
            "top_frames": [
                {"frame": "optimizer.Optimizer.explain",
                 "samples": 60, "pct": 50.0},
                {"frame": "selectivity.estimate",
                 "samples": 30, "pct": 25.0},
            ],
            "regions": {"advisor.ranking": 70, "cli.advise": 50},
        },
    },
    "journal_tail": [
        {"seq": 0, "type": "cycle_start", "database": "db1", "queries": 9},
        {"seq": 1, "type": "advisor_decision", "action": "accepted",
         "reason": "knapsack_selected", "index": "idx_orders_user_id",
         "benefit": 12.5, "maintenance": 0.25, "database": "db1"},
        {"seq": 2, "type": "advisor_decision", "action": "rejected",
         "reason": "knapsack_evicted", "index": "idx_orders_status"},
    ],
}

#: The read before STATUS: rates between the two span 10 s.
PREVIOUS = {
    **STATUS,
    "ts": 1000.0,
    "telemetry": {
        "metrics": {
            "counters": {
                "optimizer.calls": {"kind=select": 5.0},
                "whatif.evaluations": {"": 20.0},
                "whatif.cache_hits": {"": 10.0},
            },
        },
    },
}

GOLDEN = """\
repro top — source advise:aim  pid 4242  age 2.5s  running ranking
==============================================================================
rates over 10.00s: optimizer calls 1.0/s, what-if requests 2.0/s
fallbacks: status writes failed 1, unparsed regression texts 0, torn journal tails 0

phases:
span                                      count   total ms     max ms    opt calls
--------------------------------------------------------------------------
advisor.baseline_cost                         1      50.00      50.00            6
advisor.merge                                 2       2.00       1.50            -

what-if cache:
  plan requests      = 40
  cache hits         = 30  (75.0%, 4 via canonical subset rule)
  optimizer consults = 10
  evictions          = 0
  analyze cache hits = 12

profiler: 120 samples at 97 Hz nominal, 46.8 Hz achieved over 2.56s (overhead 0.80%)
   50.0%      60  optimizer.Optimizer.explain
   25.0%      30  selectivity.estimate
  regions: advisor.ranking (70), cli.advise (50)

journal tail:
  [    0] [db1] cycle_start
  [    1] [db1] + idx_orders_user_id: knapsack_selected  (benefit 12.500, maintenance 0.250)
  [    2] - idx_orders_status: knapsack_evicted"""


def test_render_top_golden():
    """The full frame is a pure function of (status, previous, now)."""
    assert render_top(STATUS, PREVIOUS, now=1012.5) == GOLDEN


def test_render_top_rates_from_start_without_previous_read():
    frame = render_top(STATUS, now=1012.5)
    assert "rates over 20.00s: optimizer calls 0.8/s, what-if requests 2.0/s" in frame
    # A previous read that is not older than this one is no rate base.
    assert render_top(STATUS, STATUS, now=1012.5) == frame


def test_render_top_empty_status():
    frame = render_top({"source": "x", "pid": 1, "started": 0.0, "ts": 0.0,
                        "telemetry": {}}, now=0.0)
    assert "optimizer calls 0.0/s" in frame
    assert "what-if cache:" not in frame


def test_run_top_once_renders_file(tmp_path):
    path = tmp_path / "status.json"
    path.write_text(json.dumps(STATUS))
    out = io.StringIO()
    assert run_top(["--once", "--status", str(path)], out=out) == 0
    frame = out.getvalue()
    assert "repro top — source advise:aim" in frame
    assert "what-if cache:" in frame
    assert "profiler: 120 samples" in frame


def test_run_top_once_missing_status(tmp_path, capsys):
    assert run_top(["--once", "--status", str(tmp_path / "nope.json")]) == 2
    assert "no status" in capsys.readouterr().err


def test_run_top_rejects_newer_schema(tmp_path, capsys):
    path = tmp_path / "status.json"
    path.write_text(json.dumps({**STATUS, "v": 99}))
    assert run_top(["--once", "--status", str(path)]) == 2
    path.write_text(json.dumps({"format": "repro.obs.snapshots", "v": 1,
                                "snapshots": []}))
    assert run_top(["--once", "--status", str(path)]) == 2
    assert "v1 (a snapshot ring) is no longer read" in capsys.readouterr().err


@pytest.mark.slow
def test_advise_publishes_status_for_top(tmp_path, capsys):
    """End to end: `repro advise --status F`, then `repro top --once` and
    `repro obs-report` show the same what-if cache section."""
    import pathlib

    examples = pathlib.Path(__file__).parent.parent / "examples" / "cli_files"
    status = tmp_path / "status.json"
    rc = main([
        "advise",
        "--schema", str(examples / "schema.sql"),
        "--workload", str(examples / "workload.sql"),
        "--budget", "64MB",
        "--status", str(status),
    ])
    assert rc == 0
    assert status.exists()
    capsys.readouterr()
    assert main(["top", "--once", "--status", str(status)]) == 0
    frame = capsys.readouterr().out
    assert "source advise:aim" in frame
    assert "advisor.recommend" in frame
    assert main(["obs-report", str(status)]) == 0
    report = capsys.readouterr().out

    def whatif(text: str) -> str:
        section = text.split("what-if cache:\n", 1)[1]
        return section.split("\n\n", 1)[0]

    assert "plan requests" in whatif(frame)
    assert whatif(frame) == whatif(report)
