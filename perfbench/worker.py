"""One benchmark process: set up one workload, run its ops, report.

Run by ``run.py``, one fresh process per measurement, so memoised tables
start cold as they do for every CLI invocation::

    python3 perfbench/worker.py --workload exact --seed 3 --mode timed --seconds 20

Modes: ``setup`` stops once the first op is ready; ``timed`` runs whole
units of ops until ``--seconds`` have passed; ``fixed`` runs a fixed number
of units, so that counts repeat exactly, and traces them when ``--trace-out``
is given.  The process prints ``READY`` when set-up ends and one JSON line
with every op's kind, latency, correctness and start time when it is done.

In ``timed`` mode a fixed calibration of the same kind of code as the
workload's ops runs before the first op and after every op, and the report
also holds each calibration's time and when it ran: the host the benchmark
was built on switches between two speeds, nearly 2x apart, for tens of
seconds at a time, and ``run.py`` divides each latency by the calibration
times around it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = ("spectrum", "mc_moment", "exact")
# units per fixed (traced) run; a unit is one op, an uu/sq pair, or one cycle
FIXED_UNITS = {"spectrum": 6, "mc_moment": 2, "exact": 2}

SPECTRUM_N = 512
MC_K, MC_SAMPLES = 3, 20000
WG_DEGREE = 8
WG_DIMENSIONS = range(8, 17)
# entry-moment dimensions below WG_DEGREE, where entry_moment needs the
# character table instead of the orthogonality system
ENTRY_DIMENSIONS = range(4, 8)


def import_library():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import ringmoments

    if not os.path.abspath(ringmoments.__file__).startswith(src + os.sep):
        raise ImportError(f"ringmoments imported from {ringmoments.__file__}, not {src}")
    return ringmoments


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def calibrate_python() -> None:
    """Fixed pure-Python work like that of the exact layers: ``Fraction``
    arithmetic on growing integers, and tuples built and stored in a dict."""
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i)
    table = {}
    for i in range(20000):
        table[(i * 7919) % 1009] = tuple(sorted((i % 5, i % 3, i % 2)))


_LAPACK_INPUT = []


def calibrate_lapack() -> None:
    """Fixed dense work like that of the Monte-Carlo layers: eigenvalues and
    QR of one 160 x 160 matrix."""
    import numpy as np

    if not _LAPACK_INPUT:
        _LAPACK_INPUT.append(np.random.default_rng(0).standard_normal((160, 160)))
    np.linalg.eigvals(_LAPACK_INPUT[0])
    np.linalg.qr(_LAPACK_INPUT[0])


CALIBRATIONS = {
    "spectrum": calibrate_lapack,
    "mc_moment": calibrate_lapack,
    "exact": calibrate_python,
}


def calibration(workload: str, origin: float) -> tuple[float, float]:
    """Run the workload's calibration once; return when it ran (its midpoint,
    from ``origin``) and how long it took."""
    start = time.perf_counter()
    CALIBRATIONS[workload]()
    end = time.perf_counter()
    return (start + end) / 2 - origin, end - start


def op_seed(seed: int, j: int) -> int:
    return random.Random(seed).randrange(2**62) + j


def weyl_ok(records) -> bool:
    """sigma_min - tol <= min modulus <= spectral radius <= sigma_max + tol."""
    stats = {r.stat: r for r in records}
    hi, lo = stats["spectral_radius"], stats["min_modulus"]
    tol = 1e-12 * hi.n * hi.M
    return hi.m - tol <= lo.value <= hi.value <= hi.M + tol


def within_se(estimate, exact: Fraction) -> bool:
    """The estimate lies within 4 standard errors (plus 1e-9 relative) of the
    exact moment."""
    slack = 4 * estimate.std_error + 1e-9 * abs(float(exact))
    return abs(estimate.mean - float(exact)) <= slack


def same_fraction(value, reference: Fraction) -> bool:
    return (
        isinstance(value, Fraction)
        and value.numerator == reference.numerator
        and value.denominator == reference.denominator
    )


def load_references(path: str = REFERENCES) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    frac = Fraction
    return {
        "p6": [tuple(map(frac, p)) for p in raw["p6"]],
        "p40": [tuple(map(frac, p)) for p in raw["p40"]],
        **{key: [frac(v) for v in raw[key]] for key in ("uu6", "sq5", "uu3", "sq3")},
        "wg8": {
            int(n): {tuple(map(int, mu.split(","))): frac(v) for mu, v in table.items()}
            for n, table in raw["wg8"].items()
        },
        "em8": {
            int(n): [(tuple(map(tuple, word)), frac(v)) for *word, v in pool]
            for n, pool in raw["em8"].items()
        },
        "mc": {mode: frac(v) for mode, v in raw["mc"].items()},
    }


def units(workload: str, seed: int, refs: dict | None = None) -> Iterator[list[Op]]:
    """The workload's ops, grouped into units, generated from ``seed`` alone.

    Library calls go through module attributes at call time, so a tracer
    installed after set-up sees them.
    """
    from ringmoments import montecarlo
    from ringmoments.profiles import SingularProfile

    if refs is None:
        refs = load_references()

    if workload == "spectrum":
        family = montecarlo.ProfileFamily("uniform-random", 0.5, 4.0)
        j = 0
        while True:
            s = op_seed(seed, j)
            yield [
                Op(
                    "spectrum",
                    lambda s=s: montecarlo.spectrum_records(family, [SPECTRUM_N], 1, s, jobs=1),
                    weyl_ok,
                )
            ]
            j += 1

    elif workload == "mc_moment":
        profile = SingularProfile.uniform_grid(0.5, 4.0, 16)
        j = 0
        while True:
            unit = []
            for mode in ("uu", "sq"):
                s = op_seed(seed, j)
                unit.append(
                    Op(
                        f"mc_{mode}",
                        lambda s=s, mode=mode: montecarlo.estimate_trace_moment(
                            MC_K, profile, MC_SAMPLES, s, mode
                        ),
                        lambda est, mode=mode: within_se(est, refs["mc"][mode]),
                    )
                )
                j += 1
            yield unit

    elif workload == "exact":
        rng = random.Random(seed)
        dims = list(WG_DIMENSIONS)
        rng.shuffle(dims)
        entry_dims = list(ENTRY_DIMENSIONS)
        rng.shuffle(entry_dims)
        cycle = 0
        while True:
            n, m = dims[cycle % len(dims)], entry_dims[cycle % len(entry_dims)]
            yield _exact_cycle(rng, n, m, refs)
            cycle += 1

    else:
        raise ValueError(f"unknown workload {workload!r}")


def _exact_cycle(rng: random.Random, n: int, m: int, refs: dict) -> list[Op]:
    """One pass over the exact layers on seeded pool inputs; ``n`` is the
    Weingarten dimension, distinct in each of the first nine cycles, and
    ``m`` the entry-moment dimension, distinct in each of the first four."""
    from ringmoments import exact_moments, haar_moments, weingarten
    from ringmoments.permutations import Permutation
    from ringmoments.profiles import SingularProfile

    a, b = rng.randrange(len(refs["p6"])), rng.randrange(len(refs["p6"]))
    c, d = rng.randrange(len(refs["p40"])), rng.randrange(len(refs["p40"]))
    images = list(range(1, WG_DEGREE + 1))
    rng.shuffle(images)
    pi = Permutation(tuple(images))
    p6a, p6b = SingularProfile(refs["p6"][a]), SingularProfile(refs["p6"][b])
    p40c, p40d = SingularProfile(refs["p40"][c]), SingularProfile(refs["p40"][d])
    word, word_ref = refs["em8"][m][rng.randrange(len(refs["em8"][m]))]
    spec = haar_moments.MomentSpec(m, *word)

    def exact_op(kind: str, call: Callable[[], object], ref: Fraction) -> Op:
        return Op(kind, call, lambda value: same_fraction(value, ref))

    return [
        exact_op("uu6_p6", lambda: exact_moments.trace_moment_uu(6, p6a), refs["uu6"][a]),
        exact_op("sq5_p6", lambda: exact_moments.trace_moment_sq(5, p6b), refs["sq5"][b]),
        exact_op("uu3_p40", lambda: exact_moments.trace_moment_uu(3, p40c), refs["uu3"][c]),
        exact_op("sq3_p40", lambda: exact_moments.trace_moment_sq(3, p40d), refs["sq3"][d]),
        exact_op(
            "wg8",
            lambda: weingarten.wg_exact(WG_DEGREE, n, pi),
            refs["wg8"][n][pi.cycle_type()],
        ),
        exact_op("em8", lambda: haar_moments.entry_moment(spec), word_ref),
    ]


def run_op(op: Op, errors: list[str]) -> tuple[str, float, bool]:
    start = time.perf_counter()
    try:
        value = op.run()
    except Exception as exc:  # a failed op is counted, never fatal
        elapsed = time.perf_counter() - start
        errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        return op.kind, elapsed, False
    elapsed = time.perf_counter() - start
    try:
        ok = bool(op.check(value))
    except Exception as exc:
        errors.append(f"{op.kind} check: {type(exc).__name__}: {exc}")
        ok = False
    if not ok and len(errors) < 20:
        errors.append(f"{op.kind}: wrong result {value!r}")
    return op.kind, elapsed, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "fixed"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    import_library()
    source = units(args.workload, args.seed)
    if args.mode == "fixed":
        source = iter([next(source) for _ in range(FIXED_UNITS[args.workload])])
    first = next(source)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if args.trace_out:
        from layers import HOOKS
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(HOOKS)
        tracer.write_at_exit(args.trace_out)

    timed = args.mode == "timed"
    ops: list[tuple[str, float, bool, float]] = []  # kind, latency, ok, start
    speed: list[tuple[float, float]] = []  # calibration midpoint, its time
    errors: list[str] = []
    unit = first
    start = time.perf_counter()
    if timed:
        CALIBRATIONS[args.workload]()  # warm-up, not a sample
        speed.append(calibration(args.workload, start))
    while unit is not None:
        for op in unit:
            began = time.perf_counter() - start
            ops.append((*run_op(op, errors), began))
            if timed:
                speed.append(calibration(args.workload, start))
        if timed and time.perf_counter() - start >= args.seconds:
            break
        unit = next(source, None)
    elapsed = time.perf_counter() - start
    print(json.dumps({"ops": ops, "speed": speed, "elapsed": elapsed, "errors": errors[:20]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
