"""Process-pool fan-out for workload costing.

:class:`ParallelCoster` owns a ``ProcessPoolExecutor`` whose workers each
hold a full :class:`~repro.optimizer.what_if.CostEvaluator` over (a copy
of) the parent's stats-only database.  ``costs`` chunks a workload's
statements contiguously, plans each chunk in a worker and reassembles the
per-query costs **in the original order**, so the parent's weighted sum
is bit-identical to a serial evaluation.

Workers additionally ship back, per chunk:

* evaluator deltas -- real optimizer invocations, cache/canonical hits
  and evictions -- merged into the parent evaluator's accounting;
* every plan-cache entry they created that has not been shipped before
  (``(sql, config keys, used keys | None, plan)``), which the parent
  merges into its own exact + canonical cache tiers so later serial
  lookups still hit;
* their **telemetry**: the spans the worker's tracer finished during the
  chunk (:meth:`~repro.obs.Tracer.export_wire`) and the full delta of its
  metrics registry (:meth:`~repro.obs.MetricsRegistry.dump_state`).  The
  parent splices the spans under whatever span was open when the chunk
  was submitted -- so ``--trace`` output shows real per-worker pid lanes
  -- and merges the metrics additively, so ``--jobs N`` runs lose no
  counters.  Each worker resets its (fork-inherited) tracer and registry
  at init and after every shipment, making shipments true deltas.

Workers are forked (the evaluator and database transfer by COW memory,
not pickling).  On platforms without the ``fork`` start method -- or on
any pool failure -- ``costs`` returns ``(None, {}, [])`` and the caller
falls back to serial costing.
"""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from ..catalog import Index
from ..engine import Database
from ..obs import get_registry, get_tracer
from ..obs.tracer import Span, Tracer, set_tracer
from ..sqlparser import ast

__all__ = ["ParallelCoster"]

# Per-worker-process state, set up by _init_worker after fork.
_WORKER_EV = None
_WORKER_EXPORTED: set = set()


def _init_worker(db: Database, fast_path: bool, trace_enabled: bool) -> None:
    global _WORKER_EV, _WORKER_EXPORTED
    from .what_if import CostEvaluator

    # Fresh telemetry: the fork copied the parent's tracer/registry state,
    # and anything recorded pre-fork must not be re-shipped as worker
    # work.  The tracer is replaced outright (library code resolves
    # get_tracer() at call time); the registry is reset in place, which
    # also starts its collected counters (tallies) from zero.
    set_tracer(Tracer(enabled=trace_enabled))
    # The parent hands over its already-prepared evaluation database
    # (indexes dropped when configurations are meant to be evaluated
    # bare), so the worker must NOT clone/strip again:
    # include_schema_indexes=True uses it as is.
    _WORKER_EV = CostEvaluator(db, include_schema_indexes=True, fast_path=fast_path)
    _WORKER_EXPORTED = set()
    get_registry().reset()


def _run_chunk(
    chunk_index: int,
    sqls: list[str],
    config: list[Index],
    parent_span_id: Optional[int],
) -> tuple[int, list[float], dict, list[tuple], dict, dict]:
    """Cost one contiguous chunk of statements in this worker.

    Returns ``(chunk_index, costs, evaluator-stat deltas, exported cache
    entries, trace wire payload, metrics state delta)``.  Entries already
    shipped by this worker in a previous chunk are not re-sent.
    """
    ev = _WORKER_EV
    tracer = get_tracer()
    calls_before = ev.optimizer.calls
    hits_before = ev.cache_hits
    canonical_before = ev.canonical_hits
    evictions_before = ev.cache_evictions
    costs: list[float] = []
    exported: list[tuple] = []
    with tracer.span(
        "parallel.chunk",
        chunk=chunk_index,
        statements=len(sqls),
        parent_span=-1 if parent_span_id is None else parent_span_id,
    ):
        for sql in sqls:
            info = ev.analyze(sql)
            relevant = ev._relevant(info, config)
            relevant_keys = frozenset(idx.key for idx in relevant)
            cache_sql = info.cache_sql or info.stmt.to_sql()
            key = (cache_sql, relevant_keys)
            fresh = key not in ev._plan_cache
            plan = ev.plan(info, config)
            costs.append(plan.total_cost)
            if fresh and key not in _WORKER_EXPORTED:
                _WORKER_EXPORTED.add(key)
                used_keys = None
                if ev.fast_path and relevant and isinstance(info.stmt, ast.Select):
                    used_keys = frozenset(
                        idx.key for idx in relevant if idx.name in plan.used_indexes
                    )
                exported.append((cache_sql, relevant_keys, used_keys, plan))
    stats = {
        "optimizer_calls": ev.optimizer.calls - calls_before,
        "cache_hits": ev.cache_hits - hits_before,
        "canonical_hits": ev.canonical_hits - canonical_before,
        "cache_evictions": ev.cache_evictions - evictions_before,
    }
    # Ship telemetry deltas and zero the worker-side state, so the next
    # chunk from this worker ships only its own increments.
    trace_wire = tracer.export_wire()
    tracer.reset()
    metrics_wire = get_registry().dump_state()
    get_registry().reset()
    return chunk_index, costs, stats, exported, trace_wire, metrics_wire


class ParallelCoster:
    """A lazy, reusable worker pool for one evaluation database."""

    def __init__(
        self,
        db: Database,
        include_schema_indexes: bool = True,
        fast_path: bool = True,
        jobs: int = 2,
    ):
        # ``db`` is the evaluator's internal database: when the evaluator
        # was built with include_schema_indexes=False it is already the
        # stripped stats clone, so workers always treat it as final.
        del include_schema_indexes
        self._db = db
        self._fast_path = bool(fast_path)
        self._jobs = max(1, int(jobs))
        self._executor: Optional[ProcessPoolExecutor] = None
        self._broken = False

    def _ensure_pool(self) -> bool:
        if self._executor is not None:
            return True
        if self._broken:
            return False
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            self._broken = True
            return False
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=self._jobs,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(self._db, self._fast_path, get_tracer().enabled),
            )
        except Exception:
            self._broken = True
            return False
        return True

    def costs(
        self, sqls: list[str], config: list[Index], jobs: int
    ) -> tuple[Optional[list[float]], dict, list[tuple]]:
        """Cost *sqls* under *config* across the pool.

        Returns ``(per-query costs in input order, evaluator-stat deltas
        summed over workers, exported cache entries)``; ``(None, {}, [])``
        signals the caller to fall back to serial costing.  Worker spans
        are spliced under the span open at the time of the call; worker
        metrics merge into the process registry.
        """
        if not self._ensure_pool():
            return None, {}, []
        n_chunks = min(max(1, int(jobs)), self._jobs, len(sqls))
        if n_chunks < 2:
            return None, {}, []
        # Contiguous, deterministic chunking: chunk i gets sqls[starts[i]:starts[i+1]].
        base, extra = divmod(len(sqls), n_chunks)
        chunks: list[list[str]] = []
        pos = 0
        for i in range(n_chunks):
            size = base + (1 if i < extra else 0)
            chunks.append(sqls[pos : pos + size])
            pos += size
        tracer = get_tracer()
        parent_span = tracer.current() if tracer.enabled else None
        parent_span_id = parent_span.span_id if parent_span is not None else None
        try:
            futures = [
                self._executor.submit(_run_chunk, i, chunk, config, parent_span_id)
                for i, chunk in enumerate(chunks)
            ]
            results = [f.result() for f in futures]
        except Exception:
            # Pool died (worker crash, unpicklable payload, ...): mark it
            # broken and let the caller cost serially.
            self.close()
            self._broken = True
            return None, {}, []
        results.sort(key=lambda r: r[0])
        costs: list[float] = []
        stats: dict[str, int] = {}
        exported: list[tuple] = []
        for _i, chunk_costs, chunk_stats, chunk_exported, trace_wire, metrics_wire in results:
            costs.extend(chunk_costs)
            for key, value in chunk_stats.items():
                stats[key] = stats.get(key, 0) + value
            exported.extend(chunk_exported)
            self._merge_telemetry(
                tracer, parent_span, trace_wire, metrics_wire
            )
        return costs, stats, exported

    @staticmethod
    def _merge_telemetry(
        tracer: Tracer,
        parent_span: Optional[Span],
        trace_wire: dict,
        metrics_wire: dict,
    ) -> None:
        """Splice one worker shipment into the parent's telemetry and
        account the per-worker merge-back (``parallel.worker.*``)."""
        registry = get_registry()
        registry.merge_state(metrics_wire)
        pid = trace_wire.get("pid", 0)
        spliced: list[Span] = []
        if tracer.enabled and trace_wire.get("spans"):
            spliced = tracer.splice_wire(trace_wire, parent=parent_span)
        worker_seconds = sum(span.duration for span in spliced)
        payload_bytes = len(json.dumps((trace_wire, metrics_wire), default=str))

        def per_worker(name: str, help: str, amount: float) -> None:
            registry.counter(name, help).inc(amount, pid=pid)

        per_worker("parallel.worker.chunks", "chunks costed per worker pid", 1)
        per_worker(
            "parallel.worker.spans",
            "spans spliced back per worker pid",
            _count_spans(trace_wire.get("spans", ())),
        )
        per_worker(
            "parallel.worker.seconds",
            "summed chunk wall seconds per worker pid",
            worker_seconds,
        )
        per_worker(
            "parallel.worker.bytes",
            "merge-back payload bytes (spans + metrics) per worker pid",
            payload_bytes,
        )

    def close(self) -> None:
        if self._executor is not None:
            # wait=True: workers are idle here (all futures resolved), and
            # a non-waiting shutdown races the concurrent.futures atexit
            # hook, which then writes to a closed wakeup pipe (EBADF noise
            # at interpreter exit).
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __del__(self):   # pragma: no cover - interpreter-shutdown ordering
        try:
            self.close()
        except Exception:
            pass


def _count_spans(nodes) -> int:
    return sum(1 + _count_spans(node.get("children", ())) for node in nodes)
