"""What-if cache equivalence: the caches must never change an answer.

Relevance pruning, the exact LRU and the canonical subset tier are pure
optimizations: every cost and every used-index subset the evaluator
returns must be bit-identical to an *uncached* optimizer planning the
full configuration over the same bare schema.  These tests drive that
comparison through a 200-case ``repro.qa`` corpus and check evaluator
reuse across full advisor runs.
"""

from __future__ import annotations

from repro.baselines import ALL_ALGORITHMS
from repro.baselines.cost_eval import candidate_pool
from repro.optimizer import CostEvaluator, Optimizer
from repro.qa.generator import generate_case
from repro.workload import Workload

CORPUS_CASES = 200
MAX_POOL = 6

BUDGET = 20 << 20


def _corpus_case(seed: int):
    case = generate_case(seed)
    db = case.database(with_storage=False)
    workload = Workload.from_sql([(sql, 1.0) for sql in case.statements])
    pool = candidate_pool(
        CostEvaluator(db), workload, max_width=2, with_permutations=False
    )
    return case, db, pool[:MAX_POOL]


def _reference(db) -> Optimizer:
    """An uncached optimizer over the bare schema the evaluator plans on."""
    ref_db = db.stats_clone()
    for index in ref_db.schema.indexes():
        ref_db.schema.drop_index(index)
    return Optimizer(ref_db)


def test_corpus_matches_uncached_optimizer():
    """Cold, warm and canonical-hit plans match an uncached optimizer on
    the full configuration bit for bit: costs and used-index sets."""
    canonical_hits = 0
    for seed in range(CORPUS_CASES):
        case, db, pool = _corpus_case(seed)
        ref = _reference(db)
        ev = CostEvaluator(db)
        # Full pool first so subset lookups can hit the canonical tier.
        for config in (pool, pool[::2], []):
            for sql in case.statements:
                plan = ref.explain(
                    sql, extra_indexes=[i.as_dataless() for i in config]
                )
                assert ev.cost(sql, config) == plan.total_cost, (seed, sql)
                # Warm: the second identical request is a pure cache hit.
                assert ev.cost(sql, config) == plan.total_cost, (seed, sql)
                used = {i.key for i in config if i.name in plan.used_indexes}
                assert {i.key for i in ev.used_subset(sql, config)} == used, (
                    seed,
                    sql,
                )
        canonical_hits += ev.canonical_hits
    # The corpus actually exercises the canonical subset rule.
    assert canonical_hits > 0


def test_corpus_lru_eviction_invariance():
    """A tiny LRU bound evicts constantly but never changes a cost."""
    total_evictions = 0
    for seed in range(0, CORPUS_CASES, 10):
        case, db, pool = _corpus_case(seed)
        ref = _reference(db)
        small = CostEvaluator(db, max_cache_entries=2)
        for _round in range(2):
            for config in (pool, pool[::2], []):
                dataless = [i.as_dataless() for i in config]
                for sql in case.statements:
                    expected = ref.explain(sql, extra_indexes=dataless).total_cost
                    assert small.cost(sql, config) == expected, (seed, sql)
        total_evictions += small.cache_evictions
    assert total_evictions > 0


def _workload() -> Workload:
    return Workload.from_sql([
        ("SELECT amount FROM orders WHERE created < 10000", 50.0),
        ("SELECT name FROM users WHERE city = 'c3' AND age > 75", 30.0),
        ("SELECT u.name, o.amount FROM users u, orders o "
         "WHERE u.id = o.user_id AND o.status = 'paid' AND u.city = 'c1'", 20.0),
        ("SELECT status, COUNT(*) FROM orders GROUP BY status", 5.0),
        ("UPDATE orders SET status = 'done' WHERE oid = 5", 2.0),
    ])


def test_evaluator_reuse_counts_per_run(db):
    """A reused evaluator keeps its caches; per-run call counts are deltas."""
    algo = ALL_ALGORITHMS["autoadmin"](db)
    evaluator = CostEvaluator(db, include_schema_indexes=False)
    cold = algo.select(_workload(), BUDGET, evaluator=evaluator)
    warm = algo.select(_workload(), BUDGET, evaluator=evaluator)
    assert [i.key for i in warm.indexes] == [i.key for i in cold.indexes]
    assert warm.cost_after == cold.cost_after
    assert cold.optimizer_calls > 0
    assert warm.optimizer_calls == 0
