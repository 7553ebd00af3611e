"""The program's layers as the traced run sees them.

``ENTRY_POINTS`` names, per layer, the public entry points whose calls
become spans.  Probes count work from a call's arguments and result; their
time is in no layer's self time (see :mod:`tracing`).  :func:`layer_metrics` turns one traced cycle into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

from tracing import LayerTracer, Probe

#: layer -> entry points ("module:qualname").  Span names are the
#: qualnames.  Metric updates are a layer of their own (``obs``): the
#: ``counter(name).labels(...).inc()`` chain runs on every cached what-if
#: lookup, so its cost shows up next to the work it counts.
ENTRY_POINTS: dict[str, list[str]] = {
    "sqlparser": ["repro.sqlparser.parser:parse"],
    "analysis_cache": ["repro.optimizer.analysis_cache:analyze_cached"],
    "selectivity": [
        "repro.optimizer.selectivity:expr_selectivity",
        "repro.optimizer.selectivity:atomic_selectivity",
    ],
    "optimizer": ["repro.optimizer.optimizer:Optimizer.explain"],
    "what_if": [
        "repro.optimizer.what_if:CostEvaluator.plan",
        "repro.optimizer.what_if:CostEvaluator.workload_cost",
    ],
    "candidates": ["repro.core.candidates:CandidateGenerator.generate"],
    "merge": ["repro.core.merge:merge_by_table"],
    "ranking": ["repro.core.ranking:rank_candidates"],
    "knapsack": ["repro.core.knapsack:knapsack_select"],
    "advisor": ["repro.core.advisor:AimAdvisor.recommend"],
    "baselines": ["repro.baselines.autoadmin:AutoAdminAlgorithm.select"],
    "executor": ["repro.executor.executor:Executor.execute"],
    "engine": [
        "repro.engine.engine:Database.create_index",
        "repro.engine.storage:TableStorage.insert_row",
        "repro.engine.storage:TableStorage.update_row",
    ],
    "monitor": [
        "repro.workload.monitor:MonitoredExecutor.execute",
        "repro.workload.selection:select_representative_workload",
    ],
    "obs": [
        "repro.obs.metrics:counter",
        "repro.obs.metrics:gauge",
        "repro.obs.metrics:histogram",
        "repro.obs.metrics:MetricsRegistry.counter",
        "repro.obs.metrics:MetricsRegistry.gauge",
        "repro.obs.metrics:MetricsRegistry.histogram",
        "repro.obs.metrics:_Metric.labels",
        "repro.obs.metrics:Counter.inc",
        "repro.obs.metrics:Gauge.set",
        "repro.obs.metrics:Gauge.inc",
        "repro.obs.metrics:Histogram.observe",
        "repro.obs.metrics:_CounterChild.inc",
        "repro.obs.metrics:_GaugeChild.set",
        "repro.obs.metrics:_GaugeChild.inc",
        "repro.obs.metrics:_HistogramChild.observe",
    ],
}

#: Entry points that apply one metric update each (the labeled children;
#: the unlabeled ``Counter.inc`` etc. delegate to them).
_METRIC_UPDATES = (
    "_CounterChild.inc",
    "_GaugeChild.set",
    "_GaugeChild.inc",
    "_HistogramChild.observe",
)


def _names(layer: str) -> list[str]:
    return [target.partition(":")[2] for target in ENTRY_POINTS[layer]]


def _probes(tracer: LayerTracer) -> dict[str, Probe]:
    """Work counters taken from arguments and results, keyed by target."""
    from repro.optimizer.analysis_cache import analysis_cache_info
    from repro.sqlparser import ast

    def analyze_cached(args, kwargs):
        before = analysis_cache_info()

        def after(_info):
            now = analysis_cache_info()
            tracer.count("analysis_cache.hits", now["hits"] - before["hits"])
            tracer.count("analysis_cache.misses", now["misses"] - before["misses"])
        return after

    def plan(args, kwargs):
        evaluator = args[0]
        before = evaluator.optimizer_calls

        def after(_result):
            tracer.count("what_if.optimizer_calls", evaluator.optimizer_calls - before)
        return after

    def sized(key: str, attr: str = "") -> Probe:
        def after(result):
            tracer.count(key, len(getattr(result, attr) if attr else result))
        return lambda args, kwargs: after

    def execute(args, kwargs):
        stmt = args[1]

        def after(result):
            metrics = result.metrics
            tracer.count("executor.rows_read", metrics.rows_read)
            tracer.count("executor.rows_sent", metrics.rows_sent)
            if isinstance(stmt, str):
                is_read = stmt.lstrip()[:6].upper() == "SELECT"
            else:
                is_read = isinstance(stmt, ast.Select)
            if not is_read:
                tracer.count("engine.writes")
                tracer.count("engine.index_entries_written", metrics.index_entries_written)
        return after

    return {
        "repro.optimizer.analysis_cache:analyze_cached": analyze_cached,
        "repro.optimizer.what_if:CostEvaluator.plan": plan,
        "repro.core.candidates:CandidateGenerator.generate": sized(
            "candidates.generated", "indexes"
        ),
        "repro.core.ranking:rank_candidates": sized("ranking.ranked"),
        "repro.core.knapsack:knapsack_select": sized("knapsack.picked"),
        "repro.executor.executor:Executor.execute": execute,
    }


def install_layers(tracer: LayerTracer) -> None:
    """Wrap every entry point of every layer (tracing stays inactive
    until ``tracer.active`` is set)."""
    probes = _probes(tracer)
    for targets in ENTRY_POINTS.values():
        for target in targets:
            tracer.install(target, probe=probes.get(target))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: LayerTracer, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced interval as ``name -> (value, unit)``.

    *scale* converts the traced interval's seconds into normalized
    seconds (see :mod:`timing`).  Layers a workload does not load report zero.
    """
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def self_s(layer: str) -> tuple[float, str]:
        return (tracer.self_seconds(*_names(layer)) * scale, "s")

    def calls(layer: str) -> tuple[float, str]:
        return (tracer.calls(*_names(layer)), "count")

    def count(key: str) -> tuple[float, str]:
        return (counts.get(key, 0), "count")

    out["sqlparser.calls"] = calls("sqlparser")
    out["sqlparser.self_s"] = self_s("sqlparser")
    hits = counts.get("analysis_cache.hits", 0)
    lookups = hits + counts.get("analysis_cache.misses", 0)
    out["analysis_cache.calls"] = calls("analysis_cache")
    out["analysis_cache.hit_ratio"] = (_ratio(hits, lookups), "ratio")
    out["analysis_cache.self_s"] = self_s("analysis_cache")
    out["selectivity.calls"] = calls("selectivity")
    out["selectivity.self_s"] = self_s("selectivity")
    out["optimizer.explain_calls"] = calls("optimizer")
    out["optimizer.self_s"] = self_s("optimizer")
    requests = tracer.calls("CostEvaluator.plan")
    misses = counts.get("what_if.optimizer_calls", 0)
    out["what_if.requests"] = (requests, "count")
    out["what_if.hit_ratio"] = (_ratio(requests - misses, requests), "ratio")
    out["what_if.optimizer_calls"] = count("what_if.optimizer_calls")
    out["what_if.self_s"] = self_s("what_if")
    out["candidates.generated"] = count("candidates.generated")
    out["candidates.self_s"] = self_s("candidates")
    out["merge.self_s"] = self_s("merge")
    out["ranking.ranked"] = count("ranking.ranked")
    out["ranking.self_s"] = self_s("ranking")
    out["knapsack.picked"] = count("knapsack.picked")
    out["knapsack.self_s"] = self_s("knapsack")
    out["advisor.self_s"] = self_s("advisor")
    out["baselines.self_s"] = self_s("baselines")
    out["executor.statements"] = calls("executor")
    out["executor.rows_read_per_row_sent"] = (
        _ratio(counts.get("executor.rows_read", 0), counts.get("executor.rows_sent", 0)),
        "ratio",
    )
    out["executor.self_s"] = self_s("executor")
    out["engine.index_entries_written_per_write"] = (
        _ratio(
            counts.get("engine.index_entries_written", 0),
            counts.get("engine.writes", 0),
        ),
        "ratio",
    )
    out["engine.self_s"] = self_s("engine")
    out["monitor.self_s"] = self_s("monitor")
    out["obs.metric_updates"] = (tracer.calls(*_METRIC_UPDATES), "count")
    out["obs.self_s"] = self_s("obs")
    return out
