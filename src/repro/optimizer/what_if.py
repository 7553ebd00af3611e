"""What-if (hypothetical configuration) cost evaluation with caching.

:class:`CostEvaluator` is the service every index-selection algorithm
drives: *what would query q cost under index configuration X?*  Indexes
are evaluated dataless -- catalog + statistics only, exactly the
AutoAdmin "what-if" / HypoPG mechanism the paper builds on (Sec. III-A4).

The evaluator "rarely consults the optimizer" (paper Sec. III) through a
tiered fast path:

* **Relevance pruning** (tier 0): a configuration is projected onto the
  indexes that can possibly serve the query -- same table AND at least
  one key column carrying a sargable predicate, join edge, GROUP BY or
  ORDER BY column (:meth:`QueryInfo.usable_columns`).  An index the
  access-path enumerator would reject anyway short-circuits to the
  bare-config plan with zero optimizer calls.  DML is never
  column-pruned (every index on the written table pays maintenance).
* **L1 exact cache**: bounded LRU keyed by ``(statement SQL, structural
  keys of the relevant subset)``.
* **L2 canonical cache** (SELECT only): the AutoAdmin atomic-
  configuration rule.  When planning relevant set ``C`` produced plan
  ``P`` using subset ``used(C)``, any lookup ``C'`` with
  ``used(C) ⊆ C' ⊆ C`` is served ``P`` without an optimizer call: every
  path available under ``C'`` was available under ``C`` (``C' ⊆ C``), so
  ``P`` -- optimal under ``C`` and feasible under ``C'``
  (``used(C) ⊆ C'``) -- is optimal under ``C'`` too.

Both tiers are bounded; evictions and hits are exported as ``whatif.*``
counters (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional

from ..catalog import Index
from ..engine import Database
from ..obs import Tally, histogram, profile
from ..sqlparser import ast
from .analysis_cache import LRUCache, analyze_cached
from .optimizer import Optimizer, Statement
from .plan import Plan
from .query_info import QueryInfo

#: Bound on the per-evaluator L1 exact plan cache.
DEFAULT_PLAN_CACHE_SIZE = 8192

#: Bound on canonical entries kept per statement (L2).
CANONICAL_ENTRIES_PER_STATEMENT = 16

_EVALUATIONS = Tally(
    "whatif.evaluations", "what-if plan requests (cached + uncached)"
)
_CACHE_HITS = Tally("whatif.cache_hits", "what-if plan cache hits")
_CANONICAL_HITS = Tally(
    "whatif.canonical_hits",
    "what-if hits served by the canonical used(C)⊆C'⊆C rule",
)
_EVICTIONS = Tally("whatif.cache_evictions", "what-if plan cache LRU evictions")


class CostEvaluator:
    """Cached what-if cost evaluation over a database.

    Args:
        db: the database (stats are shared; schema may be cloned).
        include_schema_indexes: when False (the default for advisor runs),
            configurations are evaluated against a bare schema -- only the
            clustered PKs plus the hypothetical configuration exist.  When
            True, the database's current secondary indexes stay visible
            (continuous-tuning mode).
        max_cache_entries: L1 LRU bound.
    """

    def __init__(
        self,
        db: Database,
        include_schema_indexes: bool = False,
        max_cache_entries: int = DEFAULT_PLAN_CACHE_SIZE,
    ):
        if include_schema_indexes:
            self._db = db
        else:
            self._db = db.stats_clone(name=f"{db.name}-whatif")
            for index in self._db.schema.indexes():
                self._db.schema.drop_index(index)
        self.optimizer = Optimizer(self._db)
        self._plan_cache: LRUCache = LRUCache(
            max_cache_entries, on_evict=self._record_eviction
        )
        # sql -> [(used keys, config keys, plan), ...] newest last.
        self._canonical: dict[str, list[tuple[frozenset, frozenset, Plan]]] = {}
        self.cache_hits = 0
        self.canonical_hits = 0
        self.cache_evictions = 0

    # -- bookkeeping --------------------------------------------------------

    @property
    def optimizer_calls(self) -> int:
        """Number of *uncached* optimizer invocations so far."""
        return self.optimizer.calls

    def _record_eviction(self, _key, _plan) -> None:
        self.cache_evictions += 1
        _EVICTIONS.n += 1

    def cache_stats(self) -> dict:
        """Cache-tier snapshot (bench_perf / obs-report material)."""
        return {
            "exact_hits": self.cache_hits - self.canonical_hits,
            "canonical_hits": self.canonical_hits,
            "evictions": self.cache_evictions,
            "l1_entries": len(self._plan_cache),
            "canonical_statements": len(self._canonical),
            "optimizer_calls": self.optimizer.calls,
        }

    # -- analysis -----------------------------------------------------------

    def analyze(self, stmt: Statement) -> QueryInfo:
        return analyze_cached(self._db.schema, stmt)

    # -- planning -----------------------------------------------------------

    def _relevant(self, info: QueryInfo, config: Collection[Index]) -> list[Index]:
        """Project *config* onto the indexes that can affect *info*'s plan
        (as configured: callers key caches on ``Index.key``, which ignores
        the dataless flag)."""
        if not config:
            return []
        if isinstance(info.stmt, ast.Select):
            usable = info.usable_columns()
            return [
                idx
                for idx in config
                if not usable.get(idx.table, _EMPTY).isdisjoint(idx.columns)
            ]
        tables = set(info.bindings.values())
        return [idx for idx in config if idx.table in tables]

    def plan(self, stmt: Statement, config: Collection[Index] = ()) -> Plan:
        """Plan *stmt* under hypothetical configuration *config*."""
        info = self.analyze(stmt)
        relevant = self._relevant(info, config)
        sql = info.cache_sql or info.stmt.to_sql()
        relevant_keys = frozenset(idx.key for idx in relevant)
        key = (sql, relevant_keys)
        _EVALUATIONS.n += 1
        cached = self._plan_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            _CACHE_HITS.n += 1
            return cached
        is_select = isinstance(info.stmt, ast.Select)
        if is_select and relevant:
            canonical = self._canonical_lookup(sql, relevant_keys)
            if canonical is not None:
                self.cache_hits += 1
                self.canonical_hits += 1
                _CACHE_HITS.n += 1
                _CANONICAL_HITS.n += 1
                # Promote to an exact entry: the next identical lookup is O(1).
                self._plan_cache.put(key, canonical)
                return canonical
        plan = self.optimizer.explain(
            info, extra_indexes=[idx.as_dataless() for idx in relevant]
        )
        self._plan_cache.put(key, plan)
        if is_select and relevant:
            used_keys = frozenset(
                idx.key for idx in relevant if idx.name in plan.used_indexes
            )
            self._canonical_store(sql, used_keys, relevant_keys, plan)
        histogram(
            "whatif.plan_cost", "plan costs of uncached what-if evaluations"
        ).observe(plan.total_cost)
        return plan

    def _canonical_lookup(
        self, sql: str, config_keys: frozenset
    ) -> Optional[Plan]:
        entries = self._canonical.get(sql)
        if not entries:
            return None
        for used, config, plan in reversed(entries):
            if used <= config_keys <= config:
                return plan
        return None

    def _canonical_store(
        self,
        sql: str,
        used_keys: frozenset,
        config_keys: frozenset,
        plan: Plan,
    ) -> None:
        if used_keys == config_keys:
            # Serves only C' == C, which the exact tier already covers.
            return
        entries = self._canonical.setdefault(sql, [])
        for i, (used, config, _existing) in enumerate(entries):
            if used == used_keys:
                if config_keys <= config:
                    return                      # existing entry is wider
                if config <= config_keys:
                    entries[i] = (used_keys, config_keys, plan)
                    return                      # widen in place
        entries.append((used_keys, config_keys, plan))
        if len(entries) > CANONICAL_ENTRIES_PER_STATEMENT:
            entries.pop(0)
            self.cache_evictions += 1
            _EVICTIONS.n += 1

    # -- costs --------------------------------------------------------------

    def cost(self, stmt: Statement, config: Collection[Index] = ()) -> float:
        return self.plan(stmt, config).total_cost

    def workload_cost(
        self,
        queries: Iterable[tuple[Statement, float]],
        config: Collection[Index] = (),
    ) -> float:
        """Weighted workload cost: ``sum w_q * cost(q, X)`` (Eq. 1)."""
        with profile("whatif.workload_cost"):
            return sum(
                weight * self.cost(stmt, config) for stmt, weight in queries
            )

    def close(self) -> None:
        """Release evaluator resources.  The evaluator holds none beyond
        its in-memory caches, so this is a no-op kept for callers that
        close what they open."""

    # -- introspection ------------------------------------------------------

    def used_subset(
        self, stmt: Statement, config: Collection[Index]
    ) -> list[Index]:
        """The subset of *config* the plan for *stmt* actually uses."""
        plan = self.plan(stmt, config)
        used = plan.used_indexes
        return [idx for idx in config if idx.name in used]


_EMPTY: frozenset = frozenset()
