"""ringmoments benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  Workloads (see README.md):

* ``spectrum``  - one n = 512 single-ring replication per op, serial path;
* ``mc_moment`` - one 20000-sample k = 3 trace-moment estimate per op (not
  declared in BENCHMARK.json, see README.md);
* ``exact``     - a cycle of exact trace moments and a degree-8 Weingarten
  value on seeded rational profiles.

With ``--trace 0`` the benchmark measures set-up several times in fresh
processes, then runs the workload untraced for ``--seconds`` in another one
and reports the end-to-end metrics, with op latencies scaled to a
reference host speed by the calibration runs around each op.  With
``--trace 1`` it runs a fixed number of ops twice, traced and untraced, each
in a fresh process, and reports the per-layer metrics plus the tracing
overhead.  Every op's result is checked; the last line of standard output is
the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from layers import PER_LAYER, layer_values  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 24  # set-up-only processes, plus the timed process itself
# Calibration time per workload (see worker.py) at the reference speed: its
# median over five runs on the host the benchmark was built on, a 2-vCPU
# Intel Xeon VM with Python 3.11 and numpy 2.4 on OpenBLAS 0.3.31.
# Latencies are reported in seconds at that speed.
REFERENCE_CALIBRATION_S = {"spectrum": 0.023, "mc_moment": 0.023, "exact": 0.021}
# calibration samples within this many seconds of an op give its speed
SPEED_WINDOW_S = 4.0
DEADLINE_S = 170.0
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ChildFailed(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion; return its set-up time (spawn to READY),
    its report and its resource usage, which covers its own children too."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    ready, report = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.startswith("{"):
                report = json.loads(line)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        watchdog.cancel()
    if proc.returncode != 0 or ready is None:
        raise ChildFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    return {"setup_s": ready, "report": report, "usage": usage}


def environment() -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip()
    except OSError:
        commit = ""
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "git_commit": commit or "unavailable (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def at_reference_speed(workload: str, ops: list, speed: list) -> list[float]:
    """Each op's latency in seconds at the reference speed: its wall latency
    times the reference calibration time over the mean calibration time of
    the samples within ``SPEED_WINDOW_S`` of the op."""
    reference = REFERENCE_CALIBRATION_S[workload]
    latencies = []
    for _kind, latency, _ok, began in ops:
        near = [
            seconds
            for t, seconds in speed
            if began - SPEED_WINDOW_S <= t <= began + latency + SPEED_WINDOW_S
        ]
        latencies.append(latency * reference / statistics.fmean(near))
    return latencies


def kind_medians(ops: list, latencies: list[float]) -> dict[str, float]:
    """Median latency per op kind."""
    kinds: dict[str, list[float]] = {}
    for op, latency in zip(ops, latencies):
        kinds.setdefault(op[0], []).append(latency)
    return {kind: statistics.median(v) for kind, v in kinds.items()}


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, list]:
    base = ["--workload", workload, "--seed", str(seed)]

    def setup_samples(count: int) -> list[float]:
        return [run_worker([*base, "--mode", "setup"], deadline)["setup_s"] for _ in range(count)]

    # half the set-up samples before the timed run and half after it, so that
    # their median spans the host's speed over the whole run
    setups = setup_samples(SETUP_SAMPLES // 2)
    timed = run_worker([*base, "--mode", "timed", "--seconds", str(seconds)], deadline)
    setups += [timed["setup_s"], *setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    report = timed["report"]
    ops = report["ops"]
    latencies = at_reference_speed(workload, ops, report["speed"])
    medians = kind_medians(ops, latencies)
    metrics = {
        "ops_per_s": (len(ops) / sum(latencies), "1/s"),
        "op_p50_s": (statistics.fmean(medians.values()), "s"),
        "setup_s": (statistics.median(setups), "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (timed["usage"].ru_maxrss / 1024, "MB"),
    }
    wall = [op[1] for op in ops]
    details = {
        "timed_s": report["elapsed"],
        "wall_ops_per_s": len(ops) / report["elapsed"],
        "wall_op_p50_s": statistics.fmean(kind_medians(ops, wall).values()),
        "calibration_p50_s": statistics.median(seconds for _t, seconds in report["speed"]),
        "per_kind": {
            kind: {"ops": sum(op[0] == kind for op in ops), "p50_s": p50}
            for kind, p50 in medians.items()
        },
        "setup_samples_s": setups,
        "errors": report["errors"],
    }
    return metrics, details, ops


def traced(workload: str, seed: int, deadline: float) -> tuple[dict, dict, list]:
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    base = ["--workload", workload, "--seed", str(seed), "--mode", "fixed"]
    # alternate which process runs first, so that the machine's drift between
    # the two does not bias the overhead one way
    if seed % 2:
        without = run_worker(base, deadline)["report"]
    with_trace = run_worker([*base, "--trace-out", trace_path], deadline)["report"]
    if not seed % 2:
        without = run_worker(base, deadline)["report"]
    with open(trace_path) as fh:
        dump = json.load(fh)
    overhead = with_trace["elapsed"] - without["elapsed"]
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {
        name: (value, units[name]) for name, value in layer_values(dump, overhead).items()
    }
    details = {
        "traced_s": with_trace["elapsed"],
        "untraced_s": without["elapsed"],
        "spans": len(dump["spans"]),
        "absent_hooks": dump["absent"],
        "trace_file": os.path.relpath(trace_path, ROOT),
        "errors": with_trace["errors"] + without["errors"],
    }
    return metrics, details, with_trace["ops"] + without["ops"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**62:
        parser.error("seed must lie in 0..2^62-1")
    if not os.path.isfile(os.path.join(ROOT, "src", "ringmoments", "__init__.py")):
        print(f"no ringmoments sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, details, ops = traced(args.workload, args.seed, deadline)
        else:
            metrics, details, ops = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failed = sum(1 for op in ops if not op[2])
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "details": details,
        "result": result,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
