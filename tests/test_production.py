"""Synthetic production workload (Products A-G) tests."""

import pytest

from repro.optimizer import CostEvaluator
from repro.workloads.production import (
    PRODUCTS,
    build_product,
    dba_index_set,
    jaccard_similarity,
)


@pytest.fixture(scope="module")
def product_f():
    return build_product(PRODUCTS["F"])


def test_table_counts_match_table_ii():
    assert PRODUCTS["A"].tables == 147
    assert PRODUCTS["B"].join_queries == 733
    assert PRODUCTS["F"].tables == 5
    assert len(PRODUCTS) == 7


def test_product_generation_is_deterministic():
    a = build_product(PRODUCTS["F"])
    b = build_product(PRODUCTS["F"])
    assert [q.sql for q in a.workload] == [q.sql for q in b.workload]
    assert a.db.stats.row_count("t0") == b.db.stats.row_count("t0")


def test_schema_shape(product_f):
    assert len(product_f.db.schema.tables) == 5
    for table in product_f.db.schema:
        assert table.primary_key == ("id",)
        assert product_f.db.stats.row_count(table.name) > 0


def test_workload_queries_all_plan(product_f):
    evaluator = CostEvaluator(product_f.db)
    for query in product_f.workload:
        assert evaluator.cost(query.sql) > 0


def test_join_query_count_respected(product_f):
    join_queries = [
        q for q in product_f.workload
        if not q.is_dml and len(
            CostEvaluator(product_f.db).analyze(q.sql).bindings
        ) > 1
    ]
    # Some join walks may degrade to single-table; most survive.
    assert len(join_queries) >= PRODUCTS["F"].join_queries * 0.5


def test_write_heavy_products_have_more_dml():
    d = build_product(PRODUCTS["D"])   # write heavy
    f = build_product(PRODUCTS["F"])   # read heavy
    frac_d = sum(q.is_dml for q in d.workload) / len(d.workload)
    frac_f = sum(q.is_dml for q in f.workload) / len(f.workload)
    assert frac_d > frac_f


def test_weights_are_zipf_skewed(product_f):
    weights = sorted((q.weight for q in product_f.workload), reverse=True)
    assert weights[0] > 10 * weights[len(weights) // 2]


def test_dba_index_set_properties(product_f):
    dba = dba_index_set(product_f, budget_bytes=1 << 30)
    assert dba
    names = [i.name for i in dba]
    assert len(names) == len(set(names))
    assert all(not i.dataless for i in dba)
    # FK habit: at least one pure FK index.
    fk_columns = {fk for _c, fk, _p in product_f.fk_edges}
    assert any(i.columns[0] in fk_columns and i.width == 1 for i in dba)


def test_jaccard_similarity_bounds(product_f):
    from repro.catalog import Index

    a = [Index("t0", ("c0",)), Index("t0", ("c1",))]
    b = [Index("t0", ("c0",))]
    assert jaccard_similarity(a, a) == 1.0
    assert jaccard_similarity(a, b) == pytest.approx(0.5)
    assert jaccard_similarity([], []) == 1.0
    assert jaccard_similarity(a, []) == 0.0


def test_aim_matches_dba_with_fewer_indexes(product_f):
    """The Table II pattern: comparable cost, fewer/smaller indexes."""
    from repro.baselines import AimAlgorithm

    budget = 1 << 30
    aim = AimAlgorithm(product_f.db).select(product_f.workload, budget)
    dba = dba_index_set(product_f, budget)
    evaluator = CostEvaluator(product_f.db)
    dba_cost = evaluator.workload_cost(product_f.workload.pairs(), dba)
    assert aim.cost_after <= dba_cost * 1.25
    dba_size = sum(product_f.db.index_size_bytes(i) for i in dba)
    # Comparable storage footprint (the Table II bench reports per-product
    # numbers; AIM's covering indexes can be individually wider).
    assert aim.total_size_bytes <= dba_size * 2.0
    assert 0 < jaccard_similarity(aim.indexes, dba) < 1.0


_DBA_CODE = """
from repro.workloads.production import PRODUCTS, build_product, dba_index_set
product = build_product(PRODUCTS["F"])
dba = dba_index_set(product, 256 << 20)
print(sorted(i.name for i in dba), sum(product.db.index_size_bytes(i) for i in dba))
"""


@pytest.mark.slow
def test_dba_index_set_identical_across_hash_seeds():
    """Ties on gain between candidate orders (a set of partial orders)
    must not be broken by string-hash iteration order."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outputs = set()
    for hash_seed in (1, 2):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        outputs.add(subprocess.run(
            [sys.executable, "-c", _DBA_CODE],
            capture_output=True, text=True, env=env, check=True,
        ).stdout)
    assert len(outputs) == 1, "DBA reference set depends on PYTHONHASHSEED"
