"""Span self time under nested and re-entrant wraps, span caps, and
attaching/detaching wrappers from outside the traced code."""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import tracing  # noqa: E402
from tracing import LayerTracer  # noqa: E402


class FakeClock:
    """perf_counter stand-in that only moves when work() says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", fake)
    return fake


def test_self_time_subtracts_nested_children(clock):
    tracer = LayerTracer("run")
    tracer.active = True

    def inner():
        clock.work(2.0)

    def outer():
        clock.work(1.0)
        traced_inner()
        clock.work(3.0)

    traced_inner = tracer.wrap(inner, "inner")
    tracer.wrap(outer, "outer")()
    assert tracer.totals["outer"] == [1, 6.0, 4.0]
    assert tracer.totals["inner"] == [1, 2.0, 2.0]
    (inner_id, inner_parent, *_), (outer_id, outer_parent, *_) = tracer.spans
    assert inner_parent == outer_id and outer_parent == 0


def test_recursive_wrap_counts_each_interval_once(clock):
    tracer = LayerTracer("run")
    tracer.active = True

    def selectivity(depth):
        clock.work(1.0)
        if depth:
            traced(depth - 1)
        clock.work(1.0)

    traced = tracer.wrap(selectivity, "selectivity")
    traced(3)
    calls, total, self_time = tracer.totals["selectivity"]
    assert calls == 4
    assert self_time == pytest.approx(8.0)     # the wall time, not more
    assert total == pytest.approx(8 + 6 + 4 + 2)


def test_reentrant_layers_split_time_between_them(clock):
    """Optimizer.explain under CostEvaluator.plan, which workload_cost
    reaches through cost(): every layer keeps only its own time."""
    tracer = LayerTracer("run")
    tracer.active = True

    def explain():
        clock.work(5.0)

    def plan(hit):
        clock.work(0.5)
        if not hit:
            traced_explain()

    def workload_cost():
        clock.work(0.25)
        for hit in (False, True, True):
            traced_plan(hit)

    traced_explain = tracer.wrap(explain, "Optimizer.explain")
    traced_plan = tracer.wrap(plan, "CostEvaluator.plan")
    tracer.wrap(workload_cost, "CostEvaluator.workload_cost")()
    assert tracer.self_seconds("Optimizer.explain") == pytest.approx(5.0)
    assert tracer.self_seconds("CostEvaluator.plan") == pytest.approx(1.5)
    assert tracer.self_seconds("CostEvaluator.workload_cost") == pytest.approx(0.25)
    assert tracer.self_seconds(
        "Optimizer.explain", "CostEvaluator.plan", "CostEvaluator.workload_cost"
    ) == pytest.approx(6.75)
    assert tracer.calls("CostEvaluator.plan") == 3


def test_inactive_and_paused_tracing_records_nothing(clock):
    tracer = LayerTracer("run")
    counted = []

    def probe(args, kwargs):
        counted.append(1)
        return lambda result: None

    traced = tracer.wrap(lambda: clock.work(1.0), "f", probe)
    traced()
    tracer.active = True
    with tracer.paused():
        traced()
    assert tracer.totals == {} and counted == []
    traced()
    assert tracer.totals["f"][0] == 1 and counted == [1]


def test_probe_time_is_in_no_self_time(clock):
    """Bookkeeping before and after a call lies inside its span, but
    neither the span nor its parent counts it as self time."""
    tracer = LayerTracer("run")
    tracer.active = True
    seen = []

    def probe(args, kwargs):
        clock.work(10.0)                  # e.g. reading cache counters

        def after(result):
            clock.work(20.0)
            seen.append((args, result))
        return after

    def lookup(key):
        clock.work(1.0)
        return key * 2

    traced_lookup = tracer.wrap(lookup, "lookup", probe)

    def caller():
        clock.work(0.5)
        return traced_lookup(3)

    assert tracer.wrap(caller, "caller")() == 6
    assert seen == [((3,), 6)]
    assert tracer.totals["lookup"] == [1, 31.0, 1.0]
    assert tracer.totals["caller"] == [1, 31.5, 0.5]


def test_split_hands_over_totals_and_keeps_spans(clock):
    tracer = LayerTracer("run")
    tracer.active = True
    traced = tracer.wrap(lambda: clock.work(1.0), "f")
    traced()
    tracer.count("work", 2)
    part = tracer.split()
    traced()
    assert part.totals["f"] == [1, 1.0, 1.0] and part.counts == {"work": 2}
    assert part.run_id == "run" and part.spans == []
    assert tracer.totals["f"] == [1, 1.0, 1.0] and tracer.counts == {}
    assert len(tracer.spans) == 2


def test_spans_beyond_the_cap_are_dropped_but_totals_stay_exact(clock):
    tracer = LayerTracer("run", max_spans=3)
    tracer.active = True
    traced = tracer.wrap(lambda: clock.work(1.0), "f")
    for _ in range(5):
        traced()
    assert len(tracer.spans) == 3 and tracer.dropped == 2
    assert tracer.totals["f"] == [5, 5.0, 5.0]


def test_exception_closes_the_span(clock):
    tracer = LayerTracer("run")
    tracer.active = True

    def boom():
        clock.work(1.0)
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert tracer.totals["boom"] == [1, 1.0, 1.0]
    assert tracer._stack == []


def test_install_patches_every_importer_and_uninstall_restores(monkeypatch):
    def parse(sql):
        return sql.upper()

    class Base:
        def select(self):
            return "selected"

    class Child(Base):
        pass

    home = types.ModuleType("repro.fake_home")
    home.parse = parse
    home.Child = Child
    importer = types.ModuleType("repro.fake_importer")
    importer.parse = parse                    # as after "from home import parse"
    outsider = types.ModuleType("fake_outsider")
    outsider.parse = parse
    for module in (home, importer, outsider):
        monkeypatch.setitem(sys.modules, module.__name__, module)

    tracer = LayerTracer("run")
    tracer.install("repro.fake_home:parse")
    tracer.install("repro.fake_home:Child.select")
    tracer.active = True
    assert importer.parse("a") == "A"
    assert home.parse("b") == "B"
    assert Child().select() == "selected"
    assert outsider.parse is parse            # only the program's modules
    assert tracer.calls("parse") == 2 and tracer.calls("Child.select") == 1

    tracer.uninstall()
    assert home.parse is parse and importer.parse is parse
    assert "select" not in Child.__dict__ and Child().select() == "selected"


def test_write_exports_spans_with_the_run_id(tmp_path, clock):
    import json

    tracer = LayerTracer("abc123")
    tracer.active = True
    tracer.wrap(lambda: clock.work(1.0), "f")()
    path = tmp_path / "trace.json"
    tracer.write(str(path))
    payload = json.loads(path.read_text())
    assert payload["run_id"] == "abc123"
    assert payload["spans"] == [{"id": 1, "parent": 0, "name": "f", "start": 0.0, "end": 1.0}]
    assert payload["totals"]["f"]["self_s"] == 1.0
