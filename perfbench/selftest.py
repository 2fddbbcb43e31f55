"""Self-test of the benchmark's own checks and tracer.

    python3 perfbench/selftest.py

Shows that a wrong reference, a wrong Monte-Carlo target and a spectrum that
breaks Weyl's inequalities each count as a failed op, that the tracer wraps
a name in every module that imports it, records a missing hook as absent and
computes self time net of child spans and leaves an absent hook's
metrics out of the result, and that latencies are scaled by the calibration
runs around each op.  Takes a few seconds; exits 1 on the
first broken expectation.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import layer_values  # noqa: E402
from tracer import Hook, Tracer, self_times  # noqa: E402
from worker import (  # noqa: E402
    import_library,
    load_references,
    run_op,
    units,
    weyl_ok,
    within_se,
)


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def check_exact_reference() -> None:
    refs = load_references()
    wrong = dict(refs, uu3=[v + Fraction(1, 10**40) for v in refs["uu3"]])
    good_op = next(op for op in next(units("exact", 7, refs)) if op.kind == "uu3_p40")
    bad_op = next(op for op in next(units("exact", 7, wrong)) if op.kind == "uu3_p40")
    errors: list[str] = []
    expect(run_op(good_op, errors)[2], "exact op matches its stored reference")
    expect(not run_op(bad_op, errors)[2], "exact op against a reference off by 1e-40 fails")
    expect(any("wrong result" in e for e in errors), "the failure is reported")
    entry_op = next(op for op in next(units("exact", 7, refs)) if op.kind == "em8")
    expect(run_op(entry_op, errors)[2], "entry moment below the degree matches its stored reference")


def check_mc_target() -> None:
    refs = load_references()
    op = next(units("mc_moment", 7, refs))[0]
    estimate = op.run()
    expect(op.check(estimate), "mc estimate lies within 4 SE of the exact moment")
    off = refs["mc"]["uu"] + 12 * Fraction(estimate.std_error)
    expect(not within_se(estimate, off), "mc estimate 12 SE from the target fails")


def check_weyl() -> None:
    from ringmoments import montecarlo

    family = montecarlo.ProfileFamily("uniform-random", 0.5, 4.0)
    records = montecarlo.spectrum_records(family, [32], 1, 7)
    expect(weyl_ok(records), "spectrum replication satisfies Weyl's inequalities")
    broken = [
        dataclasses.replace(r, value=r.M * 1.01) if r.stat == "spectral_radius" else r
        for r in records
    ]
    expect(not weyl_ok(broken), "spectral radius above sigma_max fails")


def check_tracer() -> None:
    from ringmoments import exact_moments, haar_moments, weingarten

    original = weingarten.wg_class_table
    tracer = Tracer()
    tracer.install(
        [
            Hook("weingarten.wg_class_table", "ringmoments.weingarten:wg_class_table"),
            Hook("gone", "ringmoments.weingarten:no_such_function"),
            Hook("gone_module", "ringmoments.no_such_module:f"),
        ]
    )
    wrapped = exact_moments.wg_class_table
    expect(
        wrapped is not original and haar_moments.wg_class_table is wrapped,
        "wg_class_table is wrapped in every module that imports it",
    )
    haar_moments.entry_moment(haar_moments.MomentSpec(3, (1,), (1,), (1,), (1,)))
    expect(tracer.counts.get("weingarten.wg_class_table.calls") == 1, "a call through haar_moments is traced")
    expect(tracer.absent == ["gone", "gone_module"], "missing hooks are recorded as absent")

    spans = [
        [-1, "outer", 0.0, 10.0],
        [0, "inner", 1.0, 4.0],
        [1, "leaf", 2.0, 3.0],
        [0, "inner", 6.0, 7.0],
    ]
    expect(
        self_times(spans) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0},
        "self time is duration minus time covered by child spans",
    )
    values = layer_values({"spans": [], "counts": {}, "builds": {}, "absent": ["montecarlo.haar_batch"]}, 0.0)
    expect(
        "montecarlo.haar_batch.calls" not in values and values["montecarlo.sample_A_batch.self_s"] == 0.0,
        "an absent hook's metrics are left out; an unreached layer reads 0",
    )


def check_reference_speed() -> None:
    from run import REFERENCE_CALIBRATION_S, at_reference_speed

    reference = REFERENCE_CALIBRATION_S["exact"]
    ops = [["uu6_p6", 3.0, True, 0.0], ["uu6_p6", 3.0, True, 60.0]]
    speed = [(-0.1, reference), (3.1, reference), (59.9, 2 * reference), (63.1, 2 * reference)]
    expect(
        at_reference_speed("exact", ops, speed) == [3.0, 1.5],
        "an op run while the calibration takes twice its reference time counts half its wall time",
    )


def main() -> int:
    import_library()
    check_exact_reference()
    check_mc_target()
    check_weyl()
    check_tracer()
    check_reference_speed()
    return 0


if __name__ == "__main__":
    sys.exit(main())
