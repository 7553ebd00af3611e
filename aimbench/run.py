"""Benchmark entry point: one workload, one seed, one run.

    python3 aimbench/run.py --workload advise-joinheavy --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs alternating untraced and traced cycles and reports the per-layer
metrics (medians over the traced cycles) and the tracing overhead instead.  The program under test is imported from
``src/`` next to this directory; nothing else is needed.

Output: one line per metric (name, value, unit, sample count), one JSON
line with the full record (raw and reference seconds of every sample,
work counts, per-kind medians, checks), and last the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
import uuid

from timing import (
    REF_INTERVAL_S,
    REF_WINDOW_S,
    ReferenceClock,
    SampleLog,
    nearest_rank,
    normalize,
)
from tracing import LayerTracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".aimbench_out")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "recommend_s": "s",
    "retune_s": "s",
    "cost_ratio": "ratio",
    "peak_rss_mb": "MiB",
    "untuned_read_p50_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "index_build_s": "s",
}

#: Percentile metrics: name -> (sample set, percentile).
PERCENTILES = {
    "untuned_read_p50_ms": ("untuned_read", 50),
    "read_p50_ms": ("read", 50),
    "read_p99_ms": ("read", 99),
    "write_p50_ms": ("write", 50),
    "write_p99_ms": ("write", 99),
}

#: A traced run makes at least this many untraced/traced cycle pairs.
MIN_TRACE_PAIRS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_cycle(workload, run, seed: int) -> None:
    """Set up (timed), run one cycle, and release the inputs."""
    with run.log.timed("setup_s"):
        state = workload.setup(seed)
    run.attempted += 1
    workload.cycle(run, state, seed)
    del state
    gc.collect()


def measure(workload, run, seed: int, seconds: float) -> int:
    """Untraced cycles until *seconds* have passed (at least
    ``min_cycles``); returns the number of cycles."""
    start = time.perf_counter()
    for _ in range(workload.extra_setups):
        run.attempted += 1
        with run.log.timed("setup_s"):
            state = workload.setup(seed)
        del state
        gc.collect()
    cycles = 0
    while cycles < workload.min_cycles or time.perf_counter() - start < seconds:
        run_cycle(workload, run, seed)
        cycles += 1
    return cycles


def end_to_end(run, peak_rss: float) -> tuple[dict, dict]:
    """The end-to-end metrics and their sample counts."""
    log = run.log
    metrics, counts = {}, {}
    for name in ("setup_s", "recommend_s", "retune_s", "index_build_s"):
        metrics[name] = log.median(name)
        counts[name] = log.count(name)
    ratios = run.values.get("cost_ratio", [])
    metrics["cost_ratio"] = sorted(ratios)[len(ratios) // 2] if ratios else None
    counts["cost_ratio"] = len(ratios)
    metrics["peak_rss_mb"] = peak_rss
    counts["peak_rss_mb"] = 1
    for name, (samples, pct) in PERCENTILES.items():
        value = nearest_rank(log.normalized(samples), pct)
        metrics[name] = None if value is None else value * 1000
        counts[name] = log.count(samples)
    return metrics, counts


def per_kind_p50_ms(run) -> dict:
    out = {}
    for name in sorted(run.log.samples):
        if "kind." in name:
            value = nearest_rank(run.log.normalized(name), 50)
            out[name] = None if value is None else round(value * 1000, 4)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from layers import layer_metrics
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    tracer = LayerTracer(run_id=uuid.uuid4().hex)
    clock = ReferenceClock()
    run = Run(tracer=tracer, log=SampleLog(clock))
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    values, counts, units = {}, {}, {}
    try:
        with clock:
            detail["pinned_core"] = clock.core
            if args.trace == 0:
                detail["cycles"] = measure(workload, run, args.seed, args.seconds)
                # Before the samples are resolved into result structures,
                # whose size grows with the run's length.
                peak_rss = peak_rss_mib()
            else:
                parts = trace_cycles(workload, run, args.seed, args.seconds, tracer)
            # Let the clock run past the last sample before resolving.
            time.sleep(REF_WINDOW_S + 2 * REF_INTERVAL_S)
        run.log.resolve()
        if args.trace == 0:
            values, counts = end_to_end(run, peak_rss)
            units = dict(END_TO_END)
        else:
            refs = [ref for _raw, ref in run.log.samples["trace.traced_cycle"]]
            layered = [layer_metrics(part, normalize(1.0, ref)) for part, ref in zip(parts, refs)]
            values = {name: statistics.median(m[name][0] for m in layered) for name in layered[0]}
            units = {name: unit for name, (_v, unit) in layered[0].items()}
            values["trace.overhead_s"] = (
                run.log.median("trace.traced_cycle") - run.log.median("trace.untraced_cycle")
            )
            values["trace.spans"] = statistics.median(
                sum(calls for calls, _t, _s in part.totals.values()) for part in parts
            )
            values["trace.dropped_spans"] = tracer.dropped
            units.update({"trace.overhead_s": "s", "trace.spans": "count",
                          "trace.dropped_spans": "count"})
            counts = {name: len(parts) for name in values}
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(path)
            detail["trace_file"] = os.path.relpath(path, ROOT)
            detail["run_id"] = tracer.run_id
    except Exception as exc:   # report the run as incorrect, with what failed
        traceback.print_exc()
        run.fail(f"run aborted: {type(exc).__name__}: {exc}")
        values, counts, units = {}, {}, {}

    for name in [name for name, value in values.items() if value is None]:
        run.fail(f"{name}: too few samples for this percentile")
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
        if value is not None
    }
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:>14.6g} {entry['unit']:6s} n={counts[name]}")
    detail.update(
        sample_counts=counts,
        work_counts=run.counts,
        per_kind_p50_ms=per_kind_p50_ms(run),
        cost_ratios=run.values.get("cost_ratio", []),
        failures=run.failures,
        reference_loops=len(clock.starts),
        samples=run.log.to_json(),
    )
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def trace_cycles(workload, run, seed: int, seconds: float, tracer) -> list:
    """Pairs of one untraced and one traced cycle, in alternating order
    (untraced first, then traced first, ...), each set up outside the timed
    part, until *seconds* have passed and at least ``MIN_TRACE_PAIRS`` ran.

    The layers are wrapped only for the traced cycles, so the untraced ones
    run the program as ``--trace 0`` does, and the difference of the two
    medians is the tracing overhead.  Returns each traced cycle's totals
    (:meth:`LayerTracer.split`); the spans of all of them stay in *tracer*.
    """
    from layers import install_layers

    parts = []
    start = time.perf_counter()
    pairs = 0
    while pairs < MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            state = workload.setup(seed)
            run.attempted += 1
            if traced:
                install_layers(tracer)
            try:
                with run.log.timed("trace.traced_cycle" if traced else "trace.untraced_cycle"):
                    tracer.active = traced
                    try:
                        workload.cycle(run, state, seed)
                    finally:
                        tracer.active = False
            finally:
                tracer.uninstall()
            if traced:
                parts.append(tracer.split())
            del state
            gc.collect()
        pairs += 1
    return parts


if __name__ == "__main__":
    sys.exit(main())
