"""Tests for the status document and its publication."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    MetricsRegistry,
    StatusWriter,
    counter_rates,
    default_status_path,
    load_status,
    serve_status,
    set_registry,
)
from repro.obs.snapshots import SNAPSHOT_FORMAT, SNAPSHOT_VERSION


@pytest.fixture()
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def test_delta_and_rate_math(registry):
    calls = registry.counter("opt.calls")
    calls.inc(5, kind="select")
    before = registry.snapshot()["counters"]
    calls.inc(15, kind="select")
    calls.inc(3, kind="update")
    after = registry.snapshot()["counters"]
    assert counter_rates(before, after, 10.0) == {
        "opt.calls": {"kind=select": 1.5, "kind=update": 0.3}
    }


def test_counter_reset_handled_like_prometheus():
    # The producing process restarted: the counter went 100 -> 7.  The
    # post-restart value is the delta, not -93.
    rates = counter_rates({"c": {"": 100.0}}, {"c": {"": 7.0}}, 5.0)
    assert rates == {"c": {"": pytest.approx(1.4)}}


def test_delta_edge_cases():
    assert counter_rates({}, {}, 1.0) == {}
    same = {"c": {"": 5.0}}
    assert counter_rates(same, same, 1.0) == {}      # no increment -> omitted
    assert counter_rates({}, same, 0.0) == {}        # zero elapsed -> no rates


def test_write_load_round_trip(tmp_path, registry):
    registry.counter("c").inc(2)
    writer = StatusWriter(str(tmp_path / "status.json"), source="test-run")
    status = load_status(writer.write())
    assert status["format"] == SNAPSHOT_FORMAT
    assert status["v"] == SNAPSHOT_VERSION
    assert status["source"] == "test-run"
    assert status["started"] == writer.started <= status["ts"]
    assert status["telemetry"]["metrics"]["counters"]["c"] == {"": 2.0}


def test_load_status_rejects_foreign_and_newer(tmp_path):
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError, match="not a"):
        load_status(str(foreign))
    newer = tmp_path / "newer.json"
    newer.write_text(json.dumps({"format": SNAPSHOT_FORMAT, "v": 99}))
    with pytest.raises(ValueError, match="newer"):
        load_status(str(newer))
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"format": SNAPSHOT_FORMAT, "v": 1,
                                "snapshots": []}))
    with pytest.raises(ValueError, match="v1 .*no longer read"):
        load_status(str(ring))


def test_journal_tail_in_status_document(tmp_path, registry):
    from repro.obs import CycleStart, emit, get_journal

    get_journal().reset()
    for i in range(10):
        emit(CycleStart(database=f"db{i}", queries=3, budget_bytes=1))
    writer = StatusWriter(str(tmp_path / "status.json"))
    tail = load_status(writer.write())["journal_tail"]
    assert [r["database"] for r in tail] == [f"db{i}" for i in range(2, 10)]
    get_journal().reset()


def test_background_sampler_thread(tmp_path, registry):
    path = tmp_path / "status.json"
    writer = StatusWriter(str(path), interval=0.02)
    writer.start()
    try:
        deadline = 50
        while not path.exists() and deadline:
            deadline -= 1
            threading.Event().wait(0.02)
    finally:
        writer.stop()
    assert path.exists()
    assert load_status(str(path))["telemetry"]["metrics"] is not None


def test_writer_counts_failed_writes(tmp_path, registry):
    """A failing write does not stop the writer thread; each one counts
    as ``status.write_failures``, which obs-report and top both show."""
    from repro.obs.report import render_report
    from repro.obs.top import render_top

    writer = StatusWriter(str(tmp_path / "missing" / "status.json"),
                          interval=0.01)
    def failures() -> float:   # reading the counter folds the tally in
        return registry.counter("status.write_failures").value()

    writer.start()
    try:
        deadline = 200
        while failures() < 2 and deadline:
            deadline -= 1
            threading.Event().wait(0.01)
    finally:
        with pytest.raises(OSError):
            writer.stop()          # the final write raises
    assert failures() >= 2
    document = writer.document()
    shown = f"status writes failed {failures():g}"
    assert shown in render_report(document)
    assert shown in render_top(document)


def test_default_status_path_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_STATUS_FILE", "/tmp/custom-status.json")
    assert default_status_path() == "/tmp/custom-status.json"
    monkeypatch.delenv("REPRO_STATUS_FILE")
    assert default_status_path().endswith("repro-status.json")


def _http_get(port: int) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/") as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def test_serve_status_from_file(tmp_path, registry):
    registry.counter("c").inc(4)
    path = StatusWriter(str(tmp_path / "status.json"), source="served").write()
    server = serve_status(path, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        status, body = _http_get(server.server_address[1])
    finally:
        server.shutdown()
        server.server_close()
    assert status == 200
    assert body["source"] == "served"
    assert body["telemetry"]["metrics"]["counters"]["c"] == {"": 4.0}


def test_serve_status_from_file_missing_is_503(tmp_path):
    server = serve_status(str(tmp_path / "absent.json"), port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        status, body = _http_get(server.server_address[1])
    finally:
        server.shutdown()
        server.server_close()
    assert status == 503
    assert "error" in body
