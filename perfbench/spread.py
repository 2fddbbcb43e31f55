"""Run the benchmark over several seeds and report each metric's median and
run-to-run spread: the distance between the first and third quartile of the
values (``statistics.quantiles(values, n=4)``) as a share of their median.

    python3 perfbench/spread.py --workloads spectrum,exact --seeds 1-10
    python3 perfbench/spread.py --workloads exact --seeds 1-3 --trace 1 --sets 2

With ``--trace 1`` it also checks that every count metric repeats exactly,
across seeds and across ``--sets`` repetitions, and exits 1 if one does not.
``--json`` writes the summary to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import COUNT_METRICS  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--json", default=None)
    args = parser.parse_args()
    if len(seed_range(args.seeds)) * args.sets < 2:
        parser.error("quartiles need at least two runs")
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            seconds = json.load(fh)["run_seconds"]

    summary: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [
            run_once(workload, seed, seconds, args.trace)
            for _ in range(args.sets)
            for seed in seed_range(args.seeds)
        ]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        entry: dict = {"runs": len(runs), "attempted": attempted, "failed": failed, "metrics": {}}
        ok &= failed == 0 and all(r["correct"] for r in runs)
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry["metrics"][name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "values": values,
            }
            if args.trace and name in COUNT_METRICS and len(set(values)) > 1:
                ok = False
                print(f"{workload}: count {name} does not repeat: {values}", file=sys.stderr)
        summary[workload] = entry
        for name, m in entry["metrics"].items():
            print(f"{workload:10s} {name:45s} median {m['median']:.6g}  spread {m['spread']:.4f}")
        print(f"{workload:10s} attempted {attempted} failed {failed}", flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
