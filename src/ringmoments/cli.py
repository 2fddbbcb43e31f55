"""Command-line interface.

Commands: wg, entry-moment, exact-moment, verify-lemmas, mc-moment,
spectrum-experiment.  Exit codes: 0 on success, 1 when a computation or an
internal cross-check fails, memory runs out or stdout is closed early (the
last silently), 2 on usage errors (argparse's convention).  Exact values
print in full, past Python's cap on int-to-string digits.

Profiles are given as one of
  * an inline comma list of rationals:        1,2,3  or  0.5,2,7/2
  * a deterministic grid:                     uniform:LO:HI:N
  * a file reference:                         file:PATH  (one value per line)

Output files land in --out when given, else in $RINGMOMENTS_OUTPUT_DIR, else
in the working directory.  A missing output directory is created when the
first file is written, so a run rejected before that leaves nothing behind.
One that cannot be made, because it or an existing ancestor is not a
directory, is a usage error before anything is computed.  The mc-moment
--output name may carry directories of its own, made and checked the same
way; naming an existing directory is a usage error too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .exact_moments import (
    MAX_COUNTING_ORDER,
    MAX_SQ_ORDER,
    MAX_UU_ORDER,
    CrossCheckError,
    composition_census,
    theorem_bound,
    trace_moment_sq,
    trace_moment_uu,
    verify_counting_lemma,
)
from .haar_moments import MomentSpec, entry_moment
from .permutations import Permutation, enumerate_sk0
from .profiles import SingularProfile
from .weingarten import (
    class_representative,
    wg_alt_bounds,
    wg_bound,
    wg_class_table,
    wg_series,
)

OUTPUT_DIR_ENV = "RINGMOMENTS_OUTPUT_DIR"

# the keys each spectrum-experiment config may carry; any other is a typo
RADIUS_RATE_KEYS = {"experiment", "seed", "replications", "family", "n_grid"}
TAIL_KEYS = {"experiment", "seed", "replications", "profile", "deltas"}
FAMILY_KEYS = {"kind", "lo", "hi"}

# --format -> records file suffix; montecarlo.write_records_<suffix> writes it
RECORD_FORMATS = {"csv": "csv", "json": "jsonl"}


def _parse_rational(token: str) -> Fraction:
    """A rational such as ``3``, ``0.5`` or ``7/2``; a zero denominator is a
    ValueError naming the token, like any other malformed one."""
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


def parse_profile(text: str) -> SingularProfile:
    """Parse a profile argument; see module docstring for the grammar."""
    if text.startswith("uniform:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"expected uniform:LO:HI:N, got {text!r}")
        lo, hi = _parse_rational(parts[1]), _parse_rational(parts[2])
        return SingularProfile.uniform_grid(lo, hi, int(parts[3]))
    if text.startswith("file:"):
        tokens = Path(text[5:]).read_text().split()
    else:
        tokens = text.split(",")
    return SingularProfile(tuple(_parse_rational(tok) for tok in tokens))


def _output_dir(args) -> Path:
    return Path(args.out or os.environ.get(OUTPUT_DIR_ENV, "."))


def _check_output_dir(args, name: str | None = None) -> None:
    """A usage error when the output directory cannot be made: it, or its
    nearest existing ancestor, is not a directory.  Given the name of an
    output file, which may carry directories of its own, the directory
    checked is the file's, and the name may not be an existing directory.
    Creates nothing, so a run can check before it computes and still
    create the directory only when it writes."""
    out = _output_dir(args)
    if name is not None:
        path = out / name
        if path.is_dir():
            raise ValueError(f"cannot write output file {str(path)!r}: it is a directory")
        out = path.parent
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ValueError(f"cannot make output directory {str(out)!r}: "
                         f"{str(existing)!r} is not a directory")


def _output_path(args, name: str) -> Path:
    """The path of output file ``name``, creating its directory.  Called just
    before the file is written, so a run that fails first leaves no
    directory behind."""
    path = _output_dir(args) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _cmd_wg(args) -> int:
    pi = Permutation.from_cycle_string(args.pi, args.k)
    series = wg_series(args.k, args.n, pi, args.r_max)
    # first, so a bad --j is rejected before anything is printed
    alt = wg_alt_bounds(args.k, args.n, pi, args.j)
    exact = series.exact
    print(f"pi = {pi}  cycle type = {pi.cycle_type()}")
    print(f"exact = {exact}")
    tail = "unbounded (k^2 >= 2n)" if series.tail_bound is None else str(series.tail_bound)
    print(f"series partial (r_max={series.r_max}) = {series.series_partial}")
    print(f"series tail bound = {tail}")
    if args.k * args.k < 2 * args.n:
        bound = wg_bound(args.k, args.n, pi)
        print(f"magnitude bound = {bound.value}  ({bound.case})")
        print(f"|exact| <= bound: {abs(exact) <= bound.value}")
    else:
        print("magnitude bound = not applicable (k^2 >= 2n)")
    print(
        f"alt bounds (j={args.j}): power = {alt.power_bound}  "
        f"catalan = {alt.catalan_bound}"
    )
    return 0


def _cmd_entry_moment(args) -> int:
    spec = MomentSpec(
        n=args.n,
        rows=_parse_int_list(args.rows),
        cols=_parse_int_list(args.cols),
        conj_rows=_parse_int_list(args.conj_rows),
        conj_cols=_parse_int_list(args.conj_cols),
    )
    exact = entry_moment(spec)
    # before printing, so a bad --mc-samples is rejected with nothing printed
    est = None
    if args.mc_samples:
        from .montecarlo import mc_entry_moment
        est = mc_entry_moment(spec, args.mc_samples, args.seed)
    print(f"entry moment = {exact}")
    if est is not None:
        print(f"mc mean = {est.mean!r}  std error = {est.std_error!r}")
        if est.std_error > 0:
            sigma = abs(est.mean - float(exact)) / est.std_error
            print(f"deviation = {sigma:.2f} standard errors")
    return 0


def _float_text(value: Fraction) -> str:
    try:
        return repr(float(value))
    except OverflowError:
        return "beyond the float range"


def _cmd_exact_moment(args) -> int:
    profile = parse_profile(args.profile)
    report = theorem_bound(args.k, profile, args.mode, _parse_rational(args.epsilon))
    # computed before any output, so a bad census order prints nothing
    census = composition_census(args.k, profile) if args.census else None
    print(f"mode = {args.mode}  k = {args.k}  n = {profile.n}")
    print(f"exact moment = {report.exact_moment}")
    print(f"exact moment (float) = {_float_text(report.exact_moment)}")
    print(f"bound core = {report.bound_core}")
    if report.ratio is None:
        print("ratio = undefined (bound core is 0)")
    else:
        print(f"ratio = {report.ratio}  (float {_float_text(report.ratio)})")
    print(f"small-order condition k^6 < (2 - eps) n: {report.applicable}")
    if census is not None:
        names = ("L0", "L1", "L2", "L3", "L4", "L5")
        for name, link in zip(names, census.links):
            print(f"census {name} = {link}")
        print(f"census chain ok = {census.chain_ok}")
        print(f"census envelope value = {census.value}")
        if not census.chain_ok:
            raise CrossCheckError("census chain inequality violated")
    return 0


def _cmd_verify_lemmas(args) -> int:
    k = args.k
    # checked before the header, so a rejected order prints nothing
    if not 2 <= k <= MAX_COUNTING_ORDER:
        raise ValueError(f"--k must lie in 2..{MAX_COUNTING_ORDER}, got {k}")
    if args.n is not None and args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    failures = 0
    print(f"counting check at k = {k}: word distance census over "
          f"endpoint-fixing alpha, l1, l2")
    for alpha in enumerate_sk0(k):
        for l1 in range(1, k):
            for l2 in range(1, k):
                for q in range(0, k - 1):
                    chk = verify_counting_lemma(k, l1, l2, alpha, q)
                    status = "ok" if chk.ok else "VIOLATION"
                    if chk.count or not chk.ok:
                        print(
                            f"alpha={alpha} l1={l1} l2={l2} q={q} "
                            f"count={chk.count} bound={chk.bound} {status}"
                        )
                    if not chk.ok:
                        failures += 1
    n = k * k if args.n is None else args.n
    if k * k < 2 * n:
        table = wg_class_table(k, n)
        print(f"magnitude check at k = {k}, n = {n}:")
        for lam, value in table.items():
            pi = class_representative(lam, k)
            bound = wg_bound(k, n, pi)
            ok = abs(value) <= bound.value
            print(f"class {lam}: |wg| = {abs(value)} <= {bound.value}: {ok}")
            if not ok:
                failures += 1
    else:
        print("magnitude check = not applicable (k^2 >= 2n)")
    if failures:
        raise CrossCheckError(f"{failures} bound violations")
    print("all checks passed")
    return 0


def _cmd_mc_moment(args) -> int:
    from . import montecarlo
    profile = parse_profile(args.profile)
    if args.output:
        _check_output_dir(args, args.output)
    est = montecarlo.estimate_trace_moment(
        args.k, profile, args.samples, args.seed, args.mode
    )
    print(f"statistic = {est.statistic}  k = {args.k}  n = {profile.n}")
    print(f"mc mean = {est.mean!r}")
    print(f"mc std error = {est.std_error!r}")
    exact = None
    if args.compare_exact:
        exact = (
            trace_moment_uu(args.k, profile)
            if args.mode == "uu"
            else trace_moment_sq(args.k, profile)
        )
        print(f"exact = {exact}  (float {float(exact)!r})")
        if est.std_error > 0:
            sigma = abs(est.mean - float(exact)) / est.std_error
            print(f"deviation = {sigma:.2f} standard errors")
    if args.output:
        path = _output_path(args, args.output)
        view = montecarlo.float_view(profile)
        records = montecarlo.profile_records(view, args.k, args.seed, (
            (f"{est.statistic}_mean", est.mean),
            (f"{est.statistic}_stderr", est.std_error),
        ))
        writer = getattr(montecarlo, f"write_records_{RECORD_FORMATS[args.format]}")
        writer(records, str(path))
        print(f"wrote {path}")
    return 0


def _config_field(config: dict, key: str, kind: str):
    """config[key], or a usage error naming the missing key."""
    if key not in config:
        raise ValueError(f"{kind} config needs the key {key!r}")
    return config[key]


def _reject_unknown_keys(config: dict, allowed: set, kind: str) -> None:
    """A usage error naming every key of ``config`` outside ``allowed``."""
    unknown = sorted(set(config) - allowed)
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ValueError(f"{kind} config has unknown key(s) {names}")


def _config_int(value, key: str) -> int:
    """A JSON integer, or a usage error naming the key."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _config_number(value, key: str) -> float:
    """A finite JSON number, or a usage error naming the key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config key {key!r} must be a number, got {value!r}")
    # json reads NaN, Infinity and -Infinity as floats, and integers of any size
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"config key {key!r} must be finite, got {value!r}")
    return number


def _config_list(value, key: str, item) -> list:
    """A JSON list checked entry by entry with ``item``."""
    if not isinstance(value, list):
        raise ValueError(f"config key {key!r} must be a list, got {value!r}")
    return [item(entry, key) for entry in value]


def _cmd_spectrum_experiment(args) -> int:
    from . import montecarlo
    _check_output_dir(args)
    config = json.loads(Path(args.config).read_text())
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    kind = config.get("experiment")
    seed = _config_int(config.get("seed", 0), "seed")
    replications = _config_int(config.get("replications", 16), "replications")
    suffix = RECORD_FORMATS[args.format]
    writer = getattr(montecarlo, f"write_records_{suffix}")
    if kind == "radius-rate":
        _reject_unknown_keys(config, RADIUS_RATE_KEYS, kind)
        family_cfg = _config_field(config, "family", kind)
        if not isinstance(family_cfg, dict):
            raise ValueError("radius-rate family must be a JSON object")
        _reject_unknown_keys(family_cfg, FAMILY_KEYS, "family")
        family = montecarlo.ProfileFamily(
            kind=_config_field(family_cfg, "kind", "family"),
            lo=_config_number(family_cfg.get("lo", 1.0), "lo"),
            hi=_config_number(family_cfg.get("hi", 1.0), "hi"),
        )
        n_grid = _config_list(_config_field(config, "n_grid", kind), "n_grid", _config_int)
        records, fit = montecarlo.radius_rate_experiment(
            family, n_grid, replications, seed, args.jobs
        )
        records_path = _output_path(args, f"radius_rate_records.{suffix}")
        writer(records, str(records_path))
        fit_path = _output_path(args, "radius_rate_fit.json")
        fit_path.write_text(json.dumps(asdict(fit), sort_keys=True, indent=2) + "\n")
        print(f"median positive deviations: {list(fit.medians)}")
        print(f"fitted log-log slope = {fit.slope!r} (degenerate={fit.degenerate})")
        print(f"wrote {records_path}")
        print(f"wrote {fit_path}")
    elif kind == "tail":
        _reject_unknown_keys(config, TAIL_KEYS, kind)
        profile_text = _config_field(config, "profile", kind)
        if not isinstance(profile_text, str):
            raise ValueError(f"config key 'profile' must be a string, got {profile_text!r}")
        profile = parse_profile(profile_text)
        deltas = _config_list(_config_field(config, "deltas", kind), "deltas", _config_number)
        records, points = montecarlo.tail_experiment(
            profile, deltas, replications, seed, args.jobs
        )
        records_path = _output_path(args, f"tail_records.{suffix}")
        writer(records, str(records_path))
        curve_path = _output_path(args, "tail_curve.csv")
        montecarlo.write_records_csv(points, str(curve_path))
        for p in points:
            print(
                f"delta={p.delta!r}: P(radius > b + delta)={p.p_radius_above!r} "
                f"P(min < a - delta)={p.p_min_below!r}"
            )
        print(f"wrote {records_path}")
        print(f"wrote {curve_path}")
    else:
        raise ValueError(f"unknown experiment kind {kind!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringmoments",
        description="Exact Haar-unitary moment calculus and spectral experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wg", help="Weingarten value, series, and bounds")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pi", default="id", help="cycle notation, e.g. '(1 2)'")
    p.add_argument("--r-max", type=int, default=None)
    p.add_argument("--j", type=int, default=2)
    p.set_defaults(func=_cmd_wg)

    p = sub.add_parser("entry-moment", help="exact Haar entry moment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rows", required=True, help="comma list, e.g. 1,2")
    p.add_argument("--cols", required=True)
    p.add_argument("--conj-rows", required=True)
    p.add_argument("--conj-cols", required=True)
    p.add_argument("--mc-samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_entry_moment)

    p = sub.add_parser(
        "exact-moment", help="exact trace moment and envelope, any order k >= 1"
    )
    p.add_argument(
        "--k", type=int, required=True,
        help="moment order, any k >= 1 at any dimension; certified against "
        f"the Weingarten census for uu k <= {MAX_UU_ORDER} and sq k <= {MAX_SQ_ORDER}",
    )
    p.add_argument("--profile", required=True)
    p.add_argument("--mode", choices=("uu", "sq"), default="uu")
    p.add_argument("--epsilon", default="1/2")
    p.add_argument("--census", action="store_true")
    p.set_defaults(func=_cmd_exact_moment)

    p = sub.add_parser("verify-lemmas", help="exhaustive bound verifications")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--n", type=int, default=None,
        help="dimension for the magnitude check, at least 1 (default k^2)",
    )
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("mc-moment", help="Monte-Carlo trace moment")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("uu", "sq"), default="uu")
    p.add_argument("--compare-exact", action="store_true")
    p.add_argument("--output", default=None, help="records file name")
    p.add_argument("--format", choices=tuple(RECORD_FORMATS), default="csv")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_mc_moment)

    p = sub.add_parser("spectrum-experiment", help="extreme-eigenvalue experiments")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=tuple(RECORD_FORMATS), default="csv")
    p.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1,
        help="parallel worker count; results do not depend on it",
    )
    p.set_defaults(func=_cmd_spectrum_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact values print in full: lift Python's cap on the digits of an
    # int-to-string conversion for the command, and restore the caller's
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: exit 1 quietly, with stdout pointed at
        # the null device so the exit-time flush has nothing to report
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except (OSError, ValueError):  # a stdout without a file descriptor
            pass
        return 1
    # CrossCheckError and montecarlo's EigensolverError are RuntimeErrors
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the allocation it could not make; Python's own is bare
        message = f"out of memory: {exc}" if str(exc) else "out of memory"
        print(f"error: {message}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # bad parameter values, malformed JSON (a ValueError) or unreadable
        # inputs are usage errors
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
