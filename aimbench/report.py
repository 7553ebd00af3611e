"""Run workloads and report every metric, its unit, sample count and steadiness.

    python3 aimbench/report.py                       # every workload once
    python3 aimbench/report.py --runs 10             # steadiness report
    python3 aimbench/report.py --workloads serve-tpch --runs 5 --seconds 25

Each run is a separate process (``run.py``) with its own seed, ``--seed``
plus the run index.  With several workloads, odd runs go through them in
reverse order, so a slow spell of the machine does not always land on the
same workload.  Per run it prints the correctness verdict, attempted and
failed operations, and each metric; after two or more runs, each metric's
median, interquartile range as a share of the median (quartiles as
``statistics.quantiles(n=4)`` gives them) and (max - min) / median.
Exits non-zero if any run was incorrect or failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from timing import spread

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("advise-joinheavy", "enumerate-whatif", "serve-tpch")
DEFAULT_SECONDS = 30


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload in a fresh process; returns (result, detail)."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    units: dict[str, str] = {}
    ok = True
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            seed = args.seed + i
            result, detail = run_once(workload, seed, args.seconds, args.trace)
            ok = ok and result["correct"] and result["failed"] == 0
            print(f"== {workload} seed={seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for failure in detail.get("failures", []):
                print(f"   FAILED: {failure}")
            counts = detail.get("sample_counts", {})
            for name, entry in sorted(result["metrics"].items()):
                units[name] = entry["unit"]
                values[workload].setdefault(name, []).append(entry["value"])
                print(f"   {name:40s} {entry['value']:>14.6g} {entry['unit']:6s} "
                      f"n={counts.get(name, '?')}")
            sys.stdout.flush()

    if args.runs >= 2:
        print("\nsteadiness (median, IQR/median, (max-min)/median):")
        for workload in workloads:
            print(f"== {workload}")
            for name, series in sorted(values[workload].items()):
                s = spread(series)
                print(f"   {name:40s} {s['median']:>14.6g} {units[name]:6s} "
                      f"iqr={s['iqr_share']:7.2%} range={s['range_share']:7.2%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
