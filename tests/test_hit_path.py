"""The what-if hit path: shape-keyed analysis cache and tally-backed counters."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.baselines import AutoAdminAlgorithm
from repro.catalog import INT, Column, Index, Schema, Table
from repro.core import AimAdvisor
from repro.executor import Executor
from repro.obs import MetricsRegistry, Tally, get_registry, reset_telemetry, set_registry
from repro.obs.metrics import _CounterChild, _HistogramChild
from repro.optimizer import CostEvaluator
from repro.optimizer.analysis_cache import analyze_cached, clear_analysis_cache
from repro.workloads.production import PRODUCTS, build_product

MIB = 1 << 20


# -- analysis cache keyed by schema shape ---------------------------------------


def _table(name: str, *columns: str) -> Table:
    return Table(name, [Column(c, INT) for c in ("id",) + columns], ("id",))


def test_replaced_table_gets_fresh_analysis():
    schema = Schema.from_tables([_table("t", "a"), _table("u")])
    sql = "SELECT * FROM t WHERE id = 1"
    stale = analyze_cached(schema, sql)
    assert stale.referenced == {"t": {"id", "a"}}
    # Same table count, different shape: the analysis must not be reused.
    del schema.tables["t"]
    schema.add_table(_table("t", "b", "c"))
    fresh = analyze_cached(schema, sql)
    assert fresh is not stale
    assert fresh.referenced == {"t": {"id", "b", "c"}}


def test_same_shape_shares_shape_id():
    schema = Schema.from_tables([_table("t", "a")])
    rebuilt = Schema.from_tables([_table("t", "a")])
    assert schema.copy().shape_id == schema.shape_id == rebuilt.shape_id
    sql = "SELECT a FROM t WHERE id = 2"
    assert analyze_cached(rebuilt, sql) is analyze_cached(schema, sql)
    rebuilt.add_table(_table("v"))
    assert rebuilt.shape_id != schema.shape_id


# -- tallies ----------------------------------------------------------------------


@pytest.fixture()
def tally():
    from repro.obs import metrics

    made = Tally("test.tally", "tally under test", label="kind")
    yield made
    del metrics._TALLIES[made.name]


def test_tally_reads_through_registry(tally):
    registry = get_registry()
    registry.reset()
    tally.by["select"] += 3
    assert registry.counter("test.tally").value(kind="select") == 3
    tally.by["dml"] += 1
    assert registry.snapshot()["counters"]["test.tally"] == {
        "kind=dml": 1.0,
        "kind=select": 3.0,
    }
    registry.reset()
    assert "test.tally" not in registry.snapshot()["counters"]
    tally.by["select"] += 2
    assert registry.snapshot()["counters"]["test.tally"] == {"kind=select": 2.0}


def test_tally_counts_into_registry_current_at_the_event(tally):
    outer = get_registry()
    outer.reset()
    tally.by["a"] += 1
    inner = MetricsRegistry()
    previous = set_registry(inner)
    try:
        tally.by["a"] += 10
        assert inner.snapshot()["counters"]["test.tally"] == {"kind=a": 10.0}
    finally:
        set_registry(previous)
    tally.by["a"] += 100
    assert outer.snapshot()["counters"]["test.tally"] == {"kind=a": 101.0}
    assert inner.snapshot()["counters"]["test.tally"] == {"kind=a": 10.0}


def test_concurrent_snapshots_lose_no_increment(tally):
    """The registry only reads a tally, so snapshots taken on another
    thread (the snapshot bus) cannot drop the hot path's increments."""
    registry = get_registry()
    registry.reset()
    done = threading.Event()

    def snapshots():
        while not done.is_set():
            registry.snapshot()

    reader = threading.Thread(target=snapshots)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader.start()
        for _ in range(100_000):
            tally.by["w"] += 1
    finally:
        done.set()
        reader.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    assert registry.counter("test.tally").value(kind="w") == 100_000


# -- registry snapshot golden -------------------------------------------------------

#: Counter section of the registry snapshot after one AIM recommend on
#: Product F (64 MiB) plus five executed statements, recorded with
#: per-event ``inc()`` calls before the hot-path counters became tallies.
GOLDEN_COUNTERS = {
    "advisor.indexes.recommended": {"": 18.0},
    "advisor.runs": {"": 1.0},
    "advisor.validation.verdicts": {"verdict=accepted": 18.0},
    "analyze.cache_hits": {"": 196.0},
    "engine.index_entries_read": {"kind=delete": 1.0, "kind=update": 10.0},
    "engine.index_entries_written": {
        "kind=delete": 2.0, "kind=insert": 1.0, "kind=update": 10.0,
    },
    "engine.pages_written": {
        "kind=delete": 1.0, "kind=insert": 1.0, "kind=update": 10.0,
    },
    "engine.predicate_evals": {
        "kind=delete": 1.0, "kind=select": 4459.0, "kind=update": 10.0,
    },
    "engine.random_pages": {"kind=delete": 1.0, "kind=update": 11.0},
    "engine.rows_read": {
        "kind=delete": 1.0, "kind=select": 4000.0, "kind=update": 10.0,
    },
    "engine.rows_sent": {"kind=select": 1027.0},
    "engine.seq_pages": {"kind=select": 13.0, "kind=update": 1.0},
    "engine.sort_rows": {"kind=select": 68.0},
    "engine.statements": {
        "kind=delete": 1.0, "kind=insert": 1.0, "kind=select": 2.0, "kind=update": 1.0,
    },
    "optimizer.calls": {"kind=dml": 4.0, "kind=select": 58.0},
    "optimizer.join_enumeration": {"strategy=dp": 31.0},
    "optimizer.selectivity.calls": {"entry=atomic": 41.0},
    "selectivity.memo_hits": {"": 192.0},
    "whatif.cache_hits": {"": 114.0},
    "whatif.canonical_hits": {"": 7.0},
    "whatif.evaluations": {"": 172.0},
}


def test_registry_counters_match_golden(db):
    product = build_product(PRODUCTS["F"])
    db.create_index(Index("orders", ("user_id", "status")))
    executor = Executor(db)
    clear_analysis_cache()
    reset_telemetry()
    AimAdvisor(product.db).recommend(product.workload, 64 * MIB)
    for sql in [
        "SELECT name FROM users WHERE city = 'c3' ORDER BY age",
        "SELECT u.name, o.amount FROM users u, orders o "
        "WHERE u.id = o.user_id AND o.status = 'paid'",
        "UPDATE orders SET amount = 5 WHERE user_id = 7",
        "INSERT INTO users (id, age, city, name, score) VALUES (9001, 30, 'c1', 'x', 3)",
        "DELETE FROM orders WHERE oid = 12",
    ]:
        executor.execute(sql)
    assert get_registry().snapshot()["counters"] == GOLDEN_COUNTERS


# -- no registry calls on cached hits -----------------------------------------------


def test_warm_pass_makes_no_registry_calls(monkeypatch):
    """Replaying every plan request of a cold AutoAdmin run on Product A
    against the warm evaluator touches no metric child and no registry."""
    product = build_product(PRODUCTS["A"])
    evaluator = CostEvaluator(product.db)
    requests: list[tuple] = []
    plan = CostEvaluator.plan

    def recording_plan(self, stmt, config=()):
        requests.append((stmt, tuple(config)))
        return plan(self, stmt, config)

    monkeypatch.setattr(CostEvaluator, "plan", recording_plan)
    AutoAdminAlgorithm(product.db).select(product.workload, 32 * MIB, evaluator=evaluator)
    monkeypatch.setattr(CostEvaluator, "plan", plan)
    assert len(requests) > 1000

    calls = {"inc": 0, "observe": 0, "lookup": 0}

    def counting(kind, original):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_CounterChild, "inc", counting("inc", _CounterChild.inc))
    monkeypatch.setattr(
        _HistogramChild, "observe", counting("observe", _HistogramChild.observe)
    )
    monkeypatch.setattr(
        MetricsRegistry, "_get", counting("lookup", MetricsRegistry._get)
    )
    optimizer_calls = evaluator.optimizer_calls
    hits = evaluator.cache_hits
    for stmt, config in requests:
        evaluator.plan(stmt, config)
    assert evaluator.optimizer_calls == optimizer_calls
    assert evaluator.cache_hits - hits == len(requests)
    assert calls == {"inc": 0, "observe": 0, "lookup": 0}
