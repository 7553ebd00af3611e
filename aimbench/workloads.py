"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload has a ``setup`` (input generation and load, timed as
``setup_s``) and a ``cycle`` that tunes and serves once, recording timed
samples, work counts and correctness checks into a :class:`Run`.  Why each
workload exists and which layers it loads is written up in README.md.

Seeds change only the order of statements (advisor workloads) or the keys
and mix order of served statements (``serve-tpch``).  The generators of
the inputs keep their own fixed seeds: a different product generator seed
moves AutoAdmin's work threefold and Product B's cost ratio between 0.25
and 0.48, which would drown any code change in input change.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.baselines import AutoAdminAlgorithm
from repro.core import AimAdvisor
from repro.engine import Database
from repro.executor import Executor
from repro.obs import reset_telemetry
from repro.optimizer import CostEvaluator, Optimizer
from repro.optimizer.analysis_cache import clear_analysis_cache
from repro.workload import (
    MonitoredExecutor,
    Workload,
    WorkloadMonitor,
    select_representative_workload,
)
from repro.workloads.production import PRODUCTS, READ_HEAVY, ProductSpec, build_product
from repro.workloads.tpch import load_tpch

from timing import SampleLog
from tracing import LayerTracer

MIB = 1 << 20


@dataclass
class Run:
    """Everything one benchmark run records."""

    tracer: LayerTracer
    log: SampleLog
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Deterministic work counts; a count that differs between cycles is
    #: a failure (see :meth:`work`).
    counts: dict[str, float] = field(default_factory=dict)
    #: Per-cycle values that are not timings (cost ratios).
    values: dict[str, list[float]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def work(self, name: str, value: float) -> None:
        """Record a work count that must repeat exactly in every cycle."""
        seen = self.counts.setdefault(name, value)
        self.check(seen == value, f"{name}: {value} in a later cycle, {seen} in the first")

    def value(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)


@dataclass(frozen=True)
class Statement:
    """One served statement: its kind (for per-kind percentiles), whether
    it reads, and whether it must affect exactly one row."""

    kind: str
    sql: str
    is_read: bool
    single_row: bool = False


def serve(run: Run, execute: Callable, statements: Iterable[Statement], prefix: str) -> None:
    """Closed loop, one client: send each statement after the previous one
    returned, timing each.  Samples land in ``<prefix>read`` /
    ``<prefix>write`` and ``<prefix>kind.<kind>``."""
    wall, cpu = time.perf_counter, time.thread_time
    for stmt in statements:
        run.attempted += 1
        start, cpu_start = wall(), cpu()
        try:
            result = execute(stmt.sql)
        except Exception as exc:   # a failed statement is counted, not fatal
            run.fail(f"{stmt.kind}: {type(exc).__name__}: {exc}")
            continue
        cpu_s = cpu() - cpu_start
        end = wall()
        if stmt.single_row and result.rowcount != 1:
            run.fail(f"{stmt.kind}: rowcount {result.rowcount}, expected 1")
        run.log.record(prefix + ("read" if stmt.is_read else "write"), start, end, cpu_s)
        run.log.record(f"{prefix}kind.{stmt.kind}", start, end, cpu_s)


def bare_clone(db: Database) -> Database:
    """A stats-only clone without secondary indexes."""
    clone = db.stats_clone()
    for index in clone.schema.indexes():
        clone.schema.drop_index(index)
    return clone


def recompute_cost(db: Database, pairs: list[tuple[str, float]], indexes) -> float:
    """Workload cost under *indexes* from a fresh optimizer, no caches,
    summed in statement order."""
    clone = bare_clone(db)
    for index in indexes:
        clone.create_index(index)
    optimizer = Optimizer(clone)
    return sum(weight * optimizer.explain(sql).total_cost for sql, weight in pairs)


@dataclass
class Advice:
    """The outcome of one tuning call, as the checks compare it."""

    indexes: list
    cost_before: float
    cost_after: float
    optimizer_calls: int

    def same_as(self, other: "Advice") -> bool:
        return (
            [i.key for i in self.indexes] == [i.key for i in other.indexes]
            and self.cost_before == other.cost_before
            and self.cost_after == other.cost_after
        )


def check_advice(
    run: Run, db: Database, pairs: list[tuple[str, float]], advice: Advice, budget: int
) -> None:
    """Budget and bit-identical cost checks of one recommendation."""
    size = sum(db.index_size_bytes(i) for i in advice.indexes)
    run.check(size <= budget, f"selected {size} bytes over a {budget}-byte budget")
    before = recompute_cost(db, pairs, [])
    after = recompute_cost(db, pairs, advice.indexes)
    run.check(before == advice.cost_before, f"cost_before {advice.cost_before!r} != recomputed {before!r}")
    run.check(after == advice.cost_after, f"cost_after {advice.cost_after!r} != recomputed {after!r}")


def cold_start() -> None:
    """Forget everything a previous tuning call left in the process.

    The analysis cache is keyed on the schema fingerprint, which a rebuilt
    database shares, so without this a "cold" call would hit it.
    """
    clear_analysis_cache()
    reset_telemetry()


# -- advisor workloads ----------------------------------------------------------


class AdvisorWorkload:
    """Tune a stats-only product database cold and warm, then explain
    its statements as a client of the tuned database would see them.

    The databases here hold statistics but no rows, so "serving" is
    EXPLAIN: a fresh optimizer plans each statement under no secondary
    indexes (untuned reads) and under the recommended ones (reads and
    writes), and "building" an index is its catalog DDL.  The traced run
    does not trace them.
    """

    name = ""
    spec: ProductSpec
    budget = 0
    #: Extra setups before the first cycle, for a steady ``setup_s``.
    extra_setups = 12
    min_cycles = 3
    #: Served EXPLAINs per cycle, per direction; each statement repeats
    #: equally often, so seeds change only the order.
    serve_target = 1500
    index_build_samples = 20
    index_build_creates = 2000

    def setup(self, seed: int):
        product = build_product(self.spec)
        queries = list(product.workload.queries)
        random.Random(seed).shuffle(queries)
        return product.db, Workload(queries, name=self.name)

    def tune(self, db: Database, workload: Workload, evaluator: CostEvaluator) -> Advice:
        raise NotImplementedError

    def cycle(self, run: Run, state, seed: int) -> None:
        db, workload = state
        pairs = workload.pairs()
        cold_start()
        run.attempted += 1
        with run.log.timed("recommend_s"):
            evaluator = CostEvaluator(db)
            cold = self.tune(db, workload, evaluator)
        reset_telemetry()
        run.attempted += 1
        with run.log.timed("retune_s"):
            warm = self.tune(db, workload, evaluator)
        evaluator.close()

        with run.tracer.paused():
            run.work("cold_optimizer_calls", cold.optimizer_calls)
            run.work("warm_optimizer_calls", warm.optimizer_calls)
            run.work("indexes", len(cold.indexes))
            run.check(warm.optimizer_calls == 0, f"warm run made {warm.optimizer_calls} optimizer calls")
            run.check(warm.same_as(cold), "warm recommendation differs from cold")
            check_advice(run, db, pairs, cold, self.budget)
        run.value("cost_ratio", cold.cost_after / cold.cost_before)

        # The serving and building stand-ins exist for the end-to-end
        # metrics; the traced run leaves them out so that its per-layer
        # metrics describe the tuning alone.
        with run.tracer.paused():
            self._serve(run, db, workload, cold.indexes, seed)

    def _serve(self, run: Run, db: Database, workload: Workload, indexes, seed: int) -> None:
        reads = [q.sql for q in workload if not q.is_dml]
        writes = [q.sql for q in workload if q.is_dml]
        rng = random.Random(seed)
        serve(run, Optimizer(bare_clone(db)).explain,
              (Statement("select", sql, True) for sql in reads), "untuned_")
        clone = self._build_indexes(run, db, indexes)
        stream = [Statement("select", sql, True) for sql in reads] * _repeats(len(reads), self.serve_target)
        stream += [Statement("dml", sql, False) for sql in writes] * _repeats(len(writes), self.serve_target)
        rng.shuffle(stream)
        serve(run, Optimizer(clone).explain, stream, "")
        run.work("served_statements", len(stream))

    def _build_indexes(self, run: Run, db: Database, indexes) -> Database:
        """Time the catalog DDL of the recommended set.  Creating one index
        in the catalog takes about a microsecond, so a sample creates the
        set on enough fresh clones for ``index_build_creates`` creations;
        returns the last clone."""
        clones_per_sample = _repeats(len(indexes), self.index_build_creates)
        for _ in range(self.index_build_samples):
            clones = [bare_clone(db) for _ in range(clones_per_sample)]
            run.attempted += len(clones)
            with run.log.timed("index_build_s", ops=len(clones)):
                for clone in clones:
                    for index in indexes:
                        clone.create_index(index)
        return clones[-1]


def _repeats(n: int, target: int) -> int:
    return max(1, -(-target // max(1, n)))


class AdviseJoinHeavy(AdvisorWorkload):
    """AIM on a quarter-scale Product B shape: 251 statements, 183 joins."""

    name = "advise-joinheavy"
    spec = ProductSpec("B-quarter", 46, 183, READ_HEAVY, 2_000, 120_000, seed=102)
    budget = 64 * MIB

    def tune(self, db, workload, evaluator):
        rec = AimAdvisor(db).recommend(workload, self.budget, evaluator=evaluator)
        return Advice(rec.indexes, rec.cost_before, rec.cost_after, rec.optimizer_calls)


class EnumerateWhatIf(AdvisorWorkload):
    """AutoAdmin's what-if enumeration on Table II Product A."""

    name = "enumerate-whatif"
    spec = PRODUCTS["A"]
    budget = 32 * MIB

    def tune(self, db, workload, evaluator):
        result = AutoAdminAlgorithm(db).select(workload, self.budget, evaluator=evaluator)
        return Advice(result.indexes, result.cost_before, result.cost_after, result.optimizer_calls)


# -- serving workload -------------------------------------------------------------

#: TPC-H data is generated once per setup from a fixed seed.
TPCH_SCALE = 0.01
TPCH_DATA_SEED = 42
TPCH_ORDERS = 15_000
TPCH_CUSTOMERS = 1_500
TPCH_PARTS = 2_000
TPCH_SUPPLIERS = 100
UNTUNED_SEED = 7


def _read_sql(kind: str, key: int, start: int = 0) -> str:
    if kind == "point":
        return ("SELECT o_orderkey, o_totalprice, o_orderdate FROM orders "
                f"WHERE o_custkey = {key}")
    if kind == "range":
        return ("SELECT l_orderkey, l_extendedprice FROM lineitem "
                f"WHERE l_suppkey = {key} AND l_shipdate BETWEEN {start} AND {start + 30}")
    if kind == "lines":
        return ("SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem "
                f"WHERE l_partkey = {key}")
    return ("SELECT o_orderkey, o_orderdate, l_linenumber, l_extendedprice "
            "FROM orders JOIN lineitem ON l_orderkey = o_orderkey "
            f"WHERE o_custkey = {key}")


_KEY_RANGE = {"point": TPCH_CUSTOMERS, "join": TPCH_CUSTOMERS, "range": TPCH_SUPPLIERS, "lines": TPCH_PARTS}


def _read(kind: str, rng: random.Random) -> Statement:
    key = rng.randint(1, _KEY_RANGE[kind])
    return Statement(kind, _read_sql(kind, key, rng.randint(0, 2_400)), True)


def _probes(db: Database, rng: random.Random) -> list[str]:
    """One read of each kind keyed on a stored row, so that each returns
    rows to compare before and after tuning."""
    orders = list(db.storage["orders"].rows.values())
    lines = [row for row in db.storage["lineitem"].rows.values()
             if row["l_orderkey"] <= TPCH_ORDERS]
    line = rng.choice(lines)
    with_lines = {row["l_orderkey"] for row in lines}
    joined = rng.choice([row for row in orders if row["o_orderkey"] in with_lines])
    return [
        _read_sql("point", rng.choice(orders)["o_custkey"]),
        _read_sql("range", line["l_suppkey"], line["l_shipdate"] - 15),
        _read_sql("lines", rng.choice(lines)["l_partkey"]),
        _read_sql("join", joined["o_custkey"]),
    ]


def _write(kind: str, rng: random.Random, new_order: int) -> Statement:
    if kind == "update":
        sql = (f"UPDATE orders SET o_custkey = {rng.randint(1, TPCH_CUSTOMERS)} "
               f"WHERE o_orderkey = {rng.randint(1, TPCH_ORDERS)}")
    else:
        day = rng.randint(0, 2_400)
        sql = (
            "INSERT INTO lineitem (l_orderkey, l_partkey, l_suppkey, l_linenumber, "
            "l_quantity, l_extendedprice, l_discount, l_tax, l_returnflag, "
            "l_linestatus, l_shipdate, l_commitdate, l_receiptdate, "
            "l_shipinstruct, l_shipmode, l_comment) VALUES "
            f"({new_order}, {rng.randint(1, TPCH_PARTS)}, "
            f"{rng.randint(1, TPCH_SUPPLIERS)}, 1, {rng.randint(1, 50)}, "
            f"{rng.randint(900, 105_000)}.5, 0.05, 0.02, 'N', 'O', {day}, "
            f"{day + 30}, {day + 10}, 'NONE', 'MAIL', 'bench')"
        )
    return Statement(kind, sql, False, single_row=True)


class ServeTpch:
    """Stored TPC-H served by one closed-loop client through the workload
    monitor: untuned, then tuned from the monitor, then reads and writes
    against the new indexes."""

    name = "serve-tpch"
    budget = 64 * MIB
    extra_setups = 1
    min_cycles = 2
    #: Statements per kind and stage.  The point read carries 70-77% of the
    #: reads and the update 90% of the tuned writes, so each p50 falls inside
    #: one kind's latency cluster instead of in a gap between two, and each
    #: p99 falls near the 90th percentile of the slowest kind (join, insert)
    #: instead of in its sparse tail.
    untuned_mix = {"point": 60, "join": 6, "range": 6, "lines": 6, "update": 24, "insert": 12}
    tuned_mix = {"point": 1260, "join": 180, "range": 180, "lines": 180, "update": 1080, "insert": 120}
    recommend_samples = 50

    def setup(self, seed: int):
        return load_tpch(TPCH_SCALE, seed=TPCH_DATA_SEED)

    def _stream(self, mix: dict[str, int], rng: random.Random, first_order: int) -> list[Statement]:
        out = []
        new_order = first_order
        for kind, n in mix.items():
            for _ in range(n):
                if kind in ("update", "insert"):
                    out.append(_write(kind, rng, new_order))
                    new_order += 1
                else:
                    out.append(_read(kind, rng))
        rng.shuffle(out)
        return out

    def cycle(self, run: Run, db: Database, seed: int) -> None:
        rng = random.Random(seed)
        monitor = WorkloadMonitor()
        served = MonitoredExecutor(db, monitor)
        reset_telemetry()
        # The untuned stage is the advisor's input, so it does not follow
        # the seed: its first statement of each kind becomes the example the
        # monitor hands to the advisor, and other constants would change the
        # estimated costs behind ``cost_ratio``.
        untuned = self._stream(self.untuned_mix, random.Random(UNTUNED_SEED), 10_000_000)
        serve(run, served.execute, untuned, "untuned_")
        with run.tracer.paused():
            probes = _probes(db, rng)
            before = [sorted(Executor(db).execute(sql).rows) for sql in probes]
            run.check(all(before), "a probe read returned no rows")

        advisor = AimAdvisor(db, monitor=monitor)
        colds = []
        for _ in range(self.recommend_samples):
            cold_start()
            run.attempted += 1
            with run.log.timed("recommend_s"):
                rec = advisor.recommend_from_monitor(self.budget)
            colds.append(Advice(rec.indexes, rec.cost_before, rec.cost_after, rec.optimizer_calls))
        workload = select_representative_workload(monitor)
        evaluator = CostEvaluator(db)
        run.attempted += 1
        advisor.recommend(workload, self.budget, evaluator=evaluator)
        warms = []
        for _ in range(self.recommend_samples):
            reset_telemetry()
            run.attempted += 1
            with run.log.timed("retune_s"):
                rec = advisor.recommend(workload, self.budget, evaluator=evaluator)
            warms.append(Advice(rec.indexes, rec.cost_before, rec.cost_after, rec.optimizer_calls))
        evaluator.close()
        cold = colds[0]
        with run.tracer.paused():
            run.check(bool(cold.indexes), "no index recommended")
            run.check(all(c.same_as(cold) for c in colds + warms), "recommendations differ")
            run.check(all(c.optimizer_calls == cold.optimizer_calls for c in colds),
                      "cold recommendations made different optimizer call counts")
            run.check(all(w.optimizer_calls == 0 for w in warms), "a warm recommendation called the optimizer")
            run.work("indexes", len(cold.indexes))
            check_advice(run, db, workload.pairs(), cold, self.budget)
        run.value("cost_ratio", cold.cost_after / cold.cost_before)
        run.work("cold_optimizer_calls", cold.optimizer_calls)

        run.attempted += len(cold.indexes)
        with run.log.timed("index_build_s"):
            for index in cold.indexes:
                db.create_index(index)
        with run.tracer.paused():
            after = [sorted(Executor(db).execute(sql).rows) for sql in probes]
            run.check(after == before, "probe reads differ before and after tuning")

        reset_telemetry()
        serve(run, served.execute, self._stream(self.tuned_mix, rng, 20_000_000), "")
        run.work("served_statements", sum(self.tuned_mix.values()))


WORKLOADS: dict[str, Callable[[], object]] = {
    AdviseJoinHeavy.name: AdviseJoinHeavy,
    EnumerateWhatIf.name: EnumerateWhatIf,
    ServeTpch.name: ServeTpch,
}
