"""Command-line interface: grammar, outputs, exit codes, determinism."""

import contextlib
import dataclasses
import importlib
import json
import math
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ringmoments import cli
from ringmoments.cli import FAMILY_KEYS, RADIUS_RATE_KEYS, TAIL_KEYS, main, parse_profile
from ringmoments.exact_moments import composition_census, theorem_bound
from ringmoments.permutations import Permutation
from ringmoments.profiles import SingularProfile
from ringmoments.weingarten import wg_series


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestProfileGrammar:
    def test_comma_list(self):
        p = parse_profile("1,2,7/2")
        assert p == SingularProfile.from_values(
            [Fraction(1), Fraction(2), Fraction(7, 2)]
        )

    def test_decimal_tokens(self):
        assert parse_profile("0.5,2").values == (Fraction(1, 2), Fraction(2))

    def test_uniform_grid(self):
        assert parse_profile("uniform:1:3:5") == SingularProfile.uniform_grid(
            Fraction(1), Fraction(3), 5
        )

    def test_file_reference(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("1\n2\n3/4\n")
        assert parse_profile(f"file:{path}").values == (
            Fraction(1),
            Fraction(2),
            Fraction(3, 4),
        )

    def test_bad_uniform_arity(self):
        with pytest.raises(ValueError):
            parse_profile("uniform:1:3")


class TestZeroDenominator:
    """Every rational the CLI reads rejects a zero denominator as a usage
    error naming the token, before any output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact-moment", "--k", "2", "--profile", "1/0,2"],
            ["exact-moment", "--k", "2", "--profile", "uniform:1/0:2:4"],
            ["exact-moment", "--k", "2", "--profile", "file:{profile_file}"],
            ["exact-moment", "--k", "2", "--profile", "1,2", "--epsilon", "1/0"],
            ["mc-moment", "--k", "2", "--profile", "1/0,2", "--output", "run.csv",
             "--out", "{out}"],
            ["spectrum-experiment", "--config", "{config}", "--out", "{out}",
             "--jobs", "1"],
        ],
    )
    def test_usage_error(self, capsys, tmp_path, argv):
        profile_file = tmp_path / "profile.txt"
        profile_file.write_text("1/0\n2\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"experiment": "tail", "profile": "1/0,2", "deltas": [0.1], "replications": 2}
        ))
        paths = {"profile_file": profile_file, "config": config, "out": tmp_path / "out"}
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2
        assert out == ""
        assert err == "usage error: zero denominator in '1/0'\n"
        assert not (tmp_path / "out").exists()


class TestWgCommand:
    def test_known_value(self, capsys):
        code, out, _ = run(capsys, "wg", "--k", "2", "--n", "10", "--pi", "(1 2)")
        assert code == 0
        assert "exact = -1/990" in out
        assert "|exact| <= bound: True" in out

    def test_divergent_regime_still_reports(self, capsys):
        code, out, _ = run(capsys, "wg", "--k", "4", "--n", "5")
        assert code == 0
        assert "unbounded (k^2 >= 2n)" in out
        assert "not applicable" in out

    def test_dimension_below_degree(self, capsys):
        # the orthogonality system is singular at n < k; the table holds the
        # value entry_moment uses
        from ringmoments.weingarten import wg_class_table

        code, out, _ = run(capsys, "wg", "--k", "3", "--n", "2")
        assert code == 0
        assert f"exact = {wg_class_table(3, 2)[(1, 1, 1)]}" in out
        assert "series tail bound = unbounded" in out

    def test_degree_eight_at_the_default_series_order(self, capsys):
        # r_max defaults to k^2 + 4 = 68
        from ringmoments.weingarten import wg_class_table

        code, out, _ = run(capsys, "wg", "--k", "8", "--n", "16")
        assert code == 0
        assert f"exact = {wg_class_table(8, 16)[(1,) * 8]}\n" in out
        assert "series partial (r_max=68)" in out

    def test_bad_cycle_string(self, capsys):
        code, _, err = run(capsys, "wg", "--k", "2", "--n", "5", "--pi", "(1 9)")
        assert code == 2
        assert "usage error" in err

    def test_text_after_the_cycles(self, capsys):
        code, out, err = run(capsys, "wg", "--k", "3", "--n", "5", "--pi", "(1 2) 3")
        assert code == 2
        assert out == ""
        assert err == "usage error: malformed cycle notation: '(1 2) 3'\n"

    def test_bad_j_prints_nothing(self, capsys):
        code, out, err = run(capsys, "wg", "--k", "3", "--n", "10", "--j", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and "j" in err


class TestEntryMomentCommand:
    def test_single_entry(self, capsys):
        code, out, _ = run(
            capsys,
            "entry-moment",
            "--n", "5",
            "--rows", "1", "--cols", "1",
            "--conj-rows", "1", "--conj-cols", "1",
        )
        assert code == 0
        assert "entry moment = 1/5" in out

    def test_structural_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "entry-moment",
            "--n", "4",
            "--rows", "1", "--cols", "1",
            "--conj-rows", "2", "--conj-cols", "1",
        )
        assert code == 0
        assert "entry moment = 0" in out

    def test_mc_cross_check_output(self, capsys):
        code, out, _ = run(
            capsys,
            "entry-moment",
            "--n", "3",
            "--rows", "1", "--cols", "1",
            "--conj-rows", "1", "--conj-cols", "1",
            "--mc-samples", "2000", "--seed", "7",
        )
        assert code == 0
        assert "mc mean" in out and "standard errors" in out

    @pytest.mark.parametrize("k", [7, 8])
    def test_all_equal_word_at_two_dimensions(self, k):
        # E|u_11|^(2k) = k! (n-1)! / (n+k-1)!, which is 1/(k+1) at n = 2;
        # the census counts k! products, not (k!)^2 matching pairs
        ones = ",".join(["1"] * k)
        result = subprocess.run(
            [
                sys.executable, "-m", "ringmoments", "entry-moment", "--n", "2",
                "--rows", ones, "--cols", ones,
                "--conj-rows", ones, "--conj-cols", ones,
            ],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        expect = Fraction(math.factorial(k), math.factorial(k + 1))
        assert result.stdout.strip() == f"entry moment = {expect}"
        assert expect == Fraction(1, k + 1)

    def test_negative_mc_samples_prints_nothing(self, capsys):
        code, out, err = run(
            capsys,
            "entry-moment",
            "--n", "3",
            "--rows", "1", "--cols", "1",
            "--conj-rows", "1", "--conj-cols", "1",
            "--mc-samples", "-5",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ")

    def test_out_of_range_index(self, capsys):
        code, _, err = run(
            capsys,
            "entry-moment",
            "--n", "2",
            "--rows", "3", "--cols", "1",
            "--conj-rows", "3", "--conj-cols", "1",
        )
        assert code == 2
        assert "usage error" in err


class TestExactMomentCommand:
    def test_uu_value_and_ratio(self, capsys):
        code, out, _ = run(capsys, "exact-moment", "--k", "2", "--profile", "1,2,3")
        assert code == 0
        assert "exact moment = 196/3" in out
        assert "ratio =" in out
        assert "bound core =" in out

    def test_sq_value(self, capsys):
        code, out, _ = run(
            capsys, "exact-moment", "--k", "2", "--profile", "1,2,3", "--mode", "sq"
        )
        assert code == 0
        assert "exact moment = 245/6" in out

    def test_census_chain_printed(self, capsys):
        code, out, _ = run(
            capsys, "exact-moment", "--k", "3", "--profile", "1,2,3", "--census"
        )
        assert code == 0
        for name in ("L0", "L1", "L2", "L3", "L4", "L5"):
            assert f"census {name} = " in out
        assert "census chain ok = True" in out

    def test_broken_census_chain_exits_one(self, capsys, monkeypatch):
        real = cli.composition_census

        def broken(k, profile):
            return dataclasses.replace(real(k, profile), chain_ok=False)

        monkeypatch.setattr(cli, "composition_census", broken)
        code, out, err = run(
            capsys, "exact-moment", "--k", "3", "--profile", "1,2,3", "--census"
        )
        assert code == 1
        assert "census chain ok = False" in out
        assert err == "error: census chain inequality violated\n"

    def test_census_below_order_two_prints_nothing(self, capsys):
        code, out, err = run(
            capsys, "exact-moment", "--k", "1", "--profile", "1,2,3", "--census"
        )
        assert code == 2
        assert out == ""
        assert err == "usage error: census needs k >= 2\n"

    @pytest.mark.parametrize("k", ["-1", "0"])
    @pytest.mark.parametrize("mode", ["uu", "sq"])
    def test_order_below_one(self, capsys, k, mode):
        # a zero profile makes the envelope core 0, so core ** -1 divides by 0
        code, out, err = run(
            capsys, "exact-moment", "--k", k, "--profile", "0,0", "--mode", mode
        )
        assert code == 2
        assert out == ""
        assert err == "usage error: moment order must be at least 1\n"

    def test_order_above_dimension(self, capsys):
        # sq at k = 3 on a 2-point profile: the hook sum serves n < k
        code, out, _ = run(
            capsys, "exact-moment", "--k", "3", "--profile", "1,2", "--mode", "sq"
        )
        assert code == 0
        assert "exact moment = 125/4" in out

    def test_paper_scale_order(self, capsys):
        for mode in ("uu", "sq"):
            code, out, _ = run(
                capsys, "exact-moment", "--k", "24",
                "--profile", "uniform:1/2:4:4096", "--mode", mode,
            )
            assert code == 0
            assert "k = 24  n = 4096" in out

    def test_zero_profile_has_no_ratio(self, capsys):
        code, out, _ = run(capsys, "exact-moment", "--k", "2", "--profile", "0,0")
        assert code == 0
        assert "exact moment = 0" in out
        assert "ratio = undefined" in out

    def test_moment_beyond_float_range(self, capsys):
        code, out, _ = run(
            capsys, "exact-moment", "--k", "300", "--profile", "1000,2000"
        )
        assert code == 0
        assert "exact moment (float) = beyond the float range" in out

    def test_large_dimension_needs_no_enumeration(self, capsys):
        # 300^3 index tuples, but only 5 equality patterns
        code, out, _ = run(
            capsys, "exact-moment", "--k", "3", "--profile", "uniform:1:2:300"
        )
        assert code == 0
        assert "n = 300" in out

    def test_float_profile_rejected(self, capsys):
        code, _, err = run(
            capsys, "exact-moment", "--k", "2", "--profile", "uniform:0.5:4:6"
        )
        # the grid profile is exact rationals, so this succeeds
        assert code == 0


class TestVerifyLemmasCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify-lemmas", "--k", "3")
        assert code == 0
        assert "all checks passed" in out
        assert "magnitude check" in out

    def test_counting_violation_exits_one(self, capsys, monkeypatch):
        real = cli.verify_counting_lemma

        def violated(k, l1, l2, alpha, q):
            check = real(k, l1, l2, alpha, q)
            return dataclasses.replace(check, ok=(l1, l2, q) != (1, 1, 0))

        monkeypatch.setattr(cli, "verify_counting_lemma", violated)
        code, out, err = run(capsys, "verify-lemmas", "--k", "3")
        assert code == 1
        assert "alpha=id l1=1 l2=1 q=0 count=0 bound=1 VIOLATION" in out
        assert "all checks passed" not in out
        assert err == "error: 1 bound violations\n"

    def test_magnitude_violation_exits_one(self, capsys, monkeypatch):
        real = cli.wg_bound

        def tight(k, n, pi):
            return dataclasses.replace(real(k, n, pi), value=Fraction(0))

        monkeypatch.setattr(cli, "wg_bound", tight)
        code, out, err = run(capsys, "verify-lemmas", "--k", "2")
        assert code == 1
        assert ": False" in out
        # S_2 has two classes, and both Weingarten values are nonzero
        assert err == "error: 2 bound violations\n"

    def test_magnitude_dimension_override(self, capsys):
        code, out, _ = run(capsys, "verify-lemmas", "--k", "2", "--n", "12")
        assert code == 0
        assert "n = 12" in out

    @pytest.mark.parametrize("k", ["0", "1", "8"])
    def test_order_outside_the_counting_range(self, capsys, k):
        # rejected before the header line, so stdout stays empty
        code, out, err = run(capsys, "verify-lemmas", "--k", k)
        assert code == 2
        assert out == ""
        assert err == f"usage error: --k must lie in 2..7, got {k}\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_dimension_below_one(self, capsys, n):
        code, out, err = run(capsys, "verify-lemmas", "--k", "3", "--n", n)
        assert code == 2
        assert out == ""
        assert err == f"usage error: --n must be at least 1, got {n}\n"

    def test_magnitude_check_not_applicable(self, capsys):
        # k^2 = 9 >= 2n = 8: no bound to check, and the run says so
        code, out, _ = run(capsys, "verify-lemmas", "--k", "3", "--n", "4")
        assert code == 0
        assert "magnitude check = not applicable (k^2 >= 2n)" in out
        assert "class " not in out
        assert out.endswith("all checks passed\n")


class TestMcMomentCommand:
    def test_compare_exact(self, capsys):
        code, out, _ = run(
            capsys,
            "mc-moment",
            "--k", "2", "--profile", "1,2,3",
            "--samples", "4000", "--seed", "5",
            "--compare-exact",
        )
        assert code == 0
        assert "exact = 196/3" in out
        assert "standard errors" in out

    def test_compare_exact_sq(self, capsys):
        code, out, _ = run(
            capsys,
            "mc-moment",
            "--k", "2", "--profile", "1,2,3", "--mode", "sq",
            "--samples", "4000", "--seed", "5",
            "--compare-exact",
        )
        assert code == 0
        assert "statistic = trace_sq" in out
        assert "exact = 245/6" in out
        assert "standard errors" in out

    def test_deterministic_stdout(self, capsys):
        argv = (
            "mc-moment", "--k", "2", "--profile", "1,2",
            "--samples", "1000", "--seed", "3",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_output_file_via_flag(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "mc-moment",
            "--k", "1", "--profile", "1,2",
            "--samples", "100", "--seed", "0",
            "--output", "est.csv", "--out", str(tmp_path),
        )
        assert code == 0
        text = (tmp_path / "est.csv").read_text()
        assert text.startswith("n,k,seed,stat,value,b,a,M,m\n")
        assert "trace_uu_mean" in text and "trace_uu_stderr" in text

    def test_output_reads_one_float_view(self, capsys, tmp_path, monkeypatch):
        from ringmoments import montecarlo
        calls = []
        build = montecarlo.float_view

        def counted(profile):
            calls.append(profile.n)
            return build(profile)

        monkeypatch.setattr(montecarlo, "float_view", counted)
        code, _, _ = run(
            capsys,
            "mc-moment", "--k", "2", "--profile", "1,2,3", "--samples", "100",
            "--output", "est.csv", "--out", str(tmp_path),
        )
        assert code == 0
        # one view for the estimate, one for the records
        assert calls == [3, 3]

    def test_output_dir_from_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RINGMOMENTS_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run(
            capsys,
            "mc-moment",
            "--k", "1", "--profile", "1,2",
            "--samples", "100", "--seed", "0",
            "--output", "env.csv",
        )
        assert code == 0
        assert (tmp_path / "env.csv").exists()

    def test_jsonl_format(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "mc-moment",
            "--k", "1", "--profile", "1,2",
            "--samples", "100", "--seed", "0",
            "--output", "est.jsonl", "--out", str(tmp_path),
            "--format", "json",
        )
        assert code == 0
        lines = (tmp_path / "est.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["stat"] == "trace_uu_mean"

    def test_output_creates_missing_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "nd" / "sub"
        code, out, err = run(
            capsys,
            "mc-moment",
            "--k", "1", "--profile", "1,2",
            "--samples", "100", "--seed", "0",
            "--output", "run.csv", "--out", str(out_dir),
        )
        assert code == 0, err
        assert err == ""
        assert (out_dir / "run.csv").read_text().startswith("n,k,seed,stat,")
        assert f"wrote {out_dir / 'run.csv'}" in out

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_output_under_a_file_exits_two_before_the_estimate(self, capsys, tmp_path, sub):
        afile = tmp_path / "afile"
        afile.write_text("")
        out_dir = afile / sub if sub else afile
        code, out, err = run(
            capsys,
            "mc-moment",
            "--k", "1", "--profile", "1,2",
            "--samples", "100", "--seed", "0",
            "--output", "r.csv", "--out", str(out_dir),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "is not a directory" in err
        assert afile.read_text() == ""

    def test_output_with_a_directory_part_is_created(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "mc-moment",
            "--k", "1", "--profile", "1,2",
            "--samples", "100", "--seed", "0",
            "--output", str(Path("sub", "run.csv")), "--out", str(tmp_path),
        )
        assert code == 0, err
        assert err == ""
        assert (tmp_path / "sub" / "run.csv").read_text().startswith("n,k,seed,stat,")
        assert f"wrote {tmp_path / 'sub' / 'run.csv'}" in out

    def test_output_under_a_file_in_its_own_path_exits_two(self, capsys, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("")
        code, out, err = run(
            capsys,
            "mc-moment",
            "--k", "1", "--profile", "1,2",
            "--samples", "100", "--seed", "0",
            "--output", str(Path("afile", "sub", "run.csv")), "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "is not a directory" in err
        assert afile.read_text() == ""

    def test_output_naming_a_directory_exits_two(self, capsys, tmp_path):
        (tmp_path / "taken").mkdir()
        code, out, err = run(
            capsys,
            "mc-moment",
            "--k", "1", "--profile", "1,2",
            "--samples", "100", "--seed", "0",
            "--output", "taken", "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "is a directory" in err
        assert list((tmp_path / "taken").iterdir()) == []

    def test_profile_beyond_floats_exits_two_before_the_estimate(self, capsys, tmp_path):
        out_dir = tmp_path / "new"
        code, out, err = run(
            capsys,
            "mc-moment", "--k", "2", "--profile", "1e400,1", "--samples", "10",
            "--output", "r.csv", "--out", str(out_dir),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: profile ") and err.count("\n") == 1
        assert "beyond the float range" in err
        assert not out_dir.exists()
        # the exact half holds the same profile exactly
        code, out, _ = run(capsys, "exact-moment", "--k", "2", "--profile", "1e400,1")
        assert code == 0
        assert "exact moment (float) = beyond the float range" in out

    def test_profile_whose_power_overflows_exits_one(self, capsys, tmp_path):
        # b of 1e200,1 is a float (about 7.07e199), so the profile is
        # sampled; A^2 is not, and the overflow guard reports it alone
        out_dir = tmp_path / "new"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys,
                "mc-moment", "--k", "2", "--profile", "1e200,1", "--samples", "10",
                "--output", "r.csv", "--out", str(out_dir),
            )
        assert code == 1
        assert out == ""
        assert err == "error: matrix power overflowed at exponent <= 2\n"
        assert not out_dir.exists()

    def test_non_finite_estimate_exits_one(self, capsys):
        code, out, err = run(capsys, "mc-moment", "--k", "40", "--profile", "1000,2000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "std error=inf" in err
        assert err.count("\n") == 1


class TestSpectrumExperimentCommand:
    def test_radius_rate_outputs(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "experiment": "radius-rate",
            "family": {"kind": "uniform-random", "lo": 0.5, "hi": 2.0},
            "n_grid": [4, 8],
            "replications": 4,
            "seed": 9,
        }))
        code, out, _ = run(
            capsys,
            "spectrum-experiment", "--config", str(config), "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "radius_rate_records.csv").exists()
        fit = json.loads((tmp_path / "radius_rate_fit.json").read_text())
        assert set(fit) == {
            "slope", "stderr", "ci_low", "ci_high", "medians", "degenerate",
        }
        assert [n for n, _ in fit["medians"]] == [4, 8]
        assert "fitted log-log slope" in out

    def test_tail_outputs(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "experiment": "tail",
            "profile": "uniform:1/2:2:8",
            "deltas": [0.0, 10.0],
            "replications": 5,
            "seed": 2,
        }))
        code, out, _ = run(
            capsys,
            "spectrum-experiment", "--config", str(config), "--out", str(tmp_path),
        )
        assert code == 0
        # a shift past M - b can never be exceeded
        assert (tmp_path / "tail_curve.csv").read_bytes() == (
            b"delta,p_radius_above,p_min_below\n0.0,1.0,0.6\n10.0,0.0,0.0\n"
        )

    @pytest.mark.parametrize("n_grid", [[], [8, 8], [0], [4, -1]])
    def test_invalid_grid(self, capsys, tmp_path, n_grid):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"experiment": "radius-rate", "family": {"kind": "grid"}, "n_grid": n_grid}
        ))
        out_dir = tmp_path / "new"
        code, out, err = run(
            capsys,
            "spectrum-experiment", "--config", str(config),
            "--out", str(out_dir), "--jobs", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: n_grid ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_empty_deltas(self, capsys, tmp_path):
        err = self._usage_error(
            capsys, tmp_path, {"experiment": "tail", "profile": "1,2", "deltas": []}
        )
        assert err.startswith("usage error: deltas ")

    def test_unknown_experiment_kind(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "mystery"}))
        code, _, err = run(
            capsys, "spectrum-experiment", "--config", str(config), "--out", str(tmp_path)
        )
        assert code == 2
        assert "usage error" in err

    def _usage_error(self, capsys, tmp_path, payload):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        code, out, err = run(
            capsys,
            "spectrum-experiment", "--config", str(config),
            "--out", str(tmp_path), "--jobs", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [config]
        return err

    def test_non_object_config(self, capsys, tmp_path):
        err = self._usage_error(capsys, tmp_path, [1, 2])
        assert "JSON object" in err

    def test_non_object_family(self, capsys, tmp_path):
        payload = {"experiment": "radius-rate", "family": "grid", "n_grid": [4]}
        err = self._usage_error(capsys, tmp_path, payload)
        assert "family must be a JSON object" in err

    # at --jobs 2 the replications run in a pool whose forked workers
    # inherit the patch, and the failing stream's error comes back pickled
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_eigensolver_failure_exits_one(self, capsys, tmp_path, monkeypatch, jobs):
        from ringmoments import montecarlo

        def failing(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(montecarlo, "extreme_eigenvalues", failing)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"experiment": "tail", "profile": "1,2", "deltas": [0.1], "seed": 4}
        ))
        code, out, err = run(
            capsys,
            "spectrum-experiment", "--config", str(config),
            "--out", str(tmp_path / "out"), "--jobs", jobs,
        )
        assert code == 1
        assert out == ""
        assert err == "error: eigensolver did not converge (seed=4, stream=0)\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "payload,missing",
        [
            ({"experiment": "radius-rate", "n_grid": [4]}, "family"),
            ({"experiment": "radius-rate", "family": {"kind": "grid"}}, "n_grid"),
            ({"experiment": "radius-rate", "family": {}, "n_grid": [4]}, "kind"),
            ({"experiment": "tail", "deltas": [0.1]}, "profile"),
            ({"experiment": "tail", "profile": "1,2"}, "deltas"),
        ],
    )
    def test_missing_key(self, capsys, tmp_path, payload, missing):
        err = self._usage_error(capsys, tmp_path, payload)
        assert repr(missing) in err

    @pytest.mark.parametrize(
        "payload",
        [
            {"experiment": "tail", "profile": "1,2,3", "deltas": [0.1]},
            {"experiment": "radius-rate", "family": {"kind": "grid"}, "n_grid": [4]},
        ],
    )
    def test_zero_replications(self, capsys, tmp_path, payload):
        err = self._usage_error(capsys, tmp_path, dict(payload, replications=0))
        assert "replication" in err

    @pytest.mark.parametrize(
        "payload,key",
        [
            ({"experiment": "radius-rate", "family": {"kind": "grid"}, "n_grid": 4}, "n_grid"),
            ({"experiment": "radius-rate", "family": {"kind": "grid"}, "n_grid": [4.5]}, "n_grid"),
            (
                {"experiment": "radius-rate", "family": {"kind": "grid", "lo": None},
                 "n_grid": [4]},
                "lo",
            ),
            (
                {"experiment": "radius-rate", "family": {"kind": "grid", "hi": "2"},
                 "n_grid": [4]},
                "hi",
            ),
            ({"experiment": "tail", "profile": "1,2", "deltas": 0.1}, "deltas"),
            ({"experiment": "tail", "profile": "1,2", "deltas": [None]}, "deltas"),
            ({"experiment": "tail", "profile": 3, "deltas": [0.1]}, "profile"),
            ({"experiment": "tail", "profile": "1,2", "deltas": [0.1], "seed": "7"}, "seed"),
            (
                {"experiment": "tail", "profile": "1,2", "deltas": [0.1], "replications": 2.5},
                "replications",
            ),
            (
                {"experiment": "tail", "profile": "1,2", "deltas": [0.1], "replications": True},
                "replications",
            ),
            # json reads NaN, Infinity and -Infinity as floats
            ({"experiment": "tail", "profile": "1,2", "deltas": [math.nan, 0.1]}, "deltas"),
            ({"experiment": "tail", "profile": "1,2", "deltas": [-math.inf]}, "deltas"),
            (
                {"experiment": "radius-rate", "family": {"kind": "grid", "lo": math.nan},
                 "n_grid": [4]},
                "lo",
            ),
            (
                {"experiment": "radius-rate", "family": {"kind": "grid", "hi": math.inf},
                 "n_grid": [4]},
                "hi",
            ),
            (
                {"experiment": "radius-rate", "family": {"kind": "grid", "hi": 10**400},
                 "n_grid": [4]},
                "hi",
            ),
        ],
    )
    def test_mistyped_value(self, capsys, tmp_path, payload, key):
        err = self._usage_error(capsys, tmp_path, payload)
        assert repr(key) in err

    @pytest.mark.parametrize(
        "payload,key",
        [
            (
                {"experiment": "tail", "profile": "1,2", "deltas": [0.1], "replication": 2},
                "replication",
            ),
            (
                {"experiment": "radius-rate", "family": {"kind": "grid", "high": 2.0},
                 "n_grid": [4]},
                "high",
            ),
            (
                {"experiment": "radius-rate", "family": {"kind": "grid"}, "n_grid": [4],
                 "profile": "1,2"},
                "profile",
            ),
            ({"experiment": "tail", "profile": "1,2", "deltas": [0.1], "n_grid": [4]}, "n_grid"),
        ],
    )
    def test_unknown_key(self, capsys, tmp_path, payload, key):
        err = self._usage_error(capsys, tmp_path, payload)
        assert "unknown key" in err and repr(key) in err

    def test_output_under_a_file_exits_two_before_the_run(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"experiment": "tail", "profile": "1,2", "deltas": [0.1], "replications": 2}
        ))
        afile = tmp_path / "afile"
        afile.write_text("")
        code, out, err = run(
            capsys,
            "spectrum-experiment", "--config", str(config),
            "--out", str(afile / "sub"), "--jobs", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: cannot make output directory ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one(self, capsys, tmp_path, jobs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"experiment": "tail", "profile": "1,2", "deltas": [0.1], "replications": 2}
        ))
        code, out, err = run(
            capsys,
            "spectrum-experiment", "--config", str(config),
            "--out", str(tmp_path), "--jobs", jobs,
        )
        assert code == 2
        assert err == f"usage error: jobs must be at least 1, got {jobs}\n"
        assert out == ""
        assert not (tmp_path / "tail_records.csv").exists()

    @pytest.mark.parametrize(
        "payload,jobs",
        [
            (
                {"experiment": "tail", "profile": "1,2", "deltas": [0.1],
                 "replicatons": 2},
                "1",
            ),
            ({"experiment": "tail", "profile": "1,2", "deltas": [0.1]}, "0"),
            # an entry beyond the float range, serial and pooled
            ({"experiment": "tail", "profile": "1e400,1", "deltas": [0.1]}, "1"),
            ({"experiment": "tail", "profile": "1e400,1", "deltas": [0.1]}, "2"),
            # a negative lo, refused whatever the draws would be
            (
                {"experiment": "radius-rate", "n_grid": [4],
                 "family": {"kind": "uniform-random", "lo": -1e-300, "hi": 1.0}},
                "1",
            ),
        ],
    )
    def test_rejected_run_creates_no_directory(self, capsys, tmp_path, payload, jobs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        out_dir = tmp_path / "fo" / "newdir"
        code, out, err = run(
            capsys,
            "spectrum-experiment", "--config", str(config),
            "--out", str(out_dir), "--jobs", jobs,
        )
        assert code == 2
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert out == ""
        assert not (tmp_path / "fo").exists()

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "spectrum-experiment", "--config", str(tmp_path / "nope.json"),
        )
        assert code == 2


class TestReadmeConfigs:
    """The spectrum-experiment configs shown in README.md stay valid."""

    @staticmethod
    def configs() -> dict[str, str]:
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        return {json.loads(block)["experiment"]: block for block in blocks}

    def test_keys_are_known(self):
        configs = {kind: json.loads(text) for kind, text in self.configs().items()}
        assert set(configs) == {"radius-rate", "tail"}
        assert set(configs["radius-rate"]) <= RADIUS_RATE_KEYS
        assert set(configs["radius-rate"]["family"]) <= FAMILY_KEYS
        assert set(configs["tail"]) <= TAIL_KEYS

    def test_tail_example_runs(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(self.configs()["tail"])
        code, out, err = run(
            capsys,
            "spectrum-experiment", "--config", str(config),
            "--out", str(tmp_path), "--jobs", "1",
        )
        assert code == 0, err
        assert (tmp_path / "tail_records.csv").exists()
        assert (tmp_path / "tail_curve.csv").exists()


NUMPY_MEMORY_MESSAGE = (
    "Unable to allocate 72.8 TiB for an array with shape (10000000000000,) "
    "and data type float64"
)


class TestOutOfMemory:
    """A MemoryError exits 1 with one line; the callee is patched to raise
    it, so nothing is allocated."""

    @pytest.mark.parametrize("module, callee, message, argv", [
        ("cli", "wg_series", "",
         ["wg", "--k", "2", "--n", "3", "--r-max", "100000000000"]),
        ("montecarlo", "estimate_trace_moment", NUMPY_MEMORY_MESSAGE,
         ["mc-moment", "--k", "1", "--profile", "1", "--samples", "10000000000000"]),
        ("montecarlo", "mc_entry_moment", NUMPY_MEMORY_MESSAGE,
         ["entry-moment", "--n", "2", "--rows", "1", "--cols", "1", "--conj-rows", "1",
          "--conj-cols", "1", "--mc-samples", "10000000000000"]),
    ], ids=["wg", "mc-moment", "entry-moment"])
    def test_one_line_exit_one(self, capsys, monkeypatch, module, callee, message, argv):
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message) if message else MemoryError()

        target = importlib.import_module(f"ringmoments.{module}")
        monkeypatch.setattr(target, callee, out_of_memory)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (f"error: out of memory: {message}\n" if message
                       else "error: out of memory\n")


def _digit_limit():
    """Python's cap on int-to-string digits, or None where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@contextlib.contextmanager
def _lifted_digit_limit():
    limit = _digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestFullDigits:
    """Values past the 4300-digit cap on int-to-string conversion print in
    full, and the in-process caller keeps its own cap."""

    def _expect(self, capsys, argv, texts):
        """Run argv, then check that each (format, values) text appears in
        its output, formatted under a lifted cap."""
        limit = _digit_limit()
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert _digit_limit() == limit
        with _lifted_digit_limit():
            expected = [text.format(*values) for text, values in texts]
        assert max(map(len, expected)) > 4300
        for text in expected:
            assert text in out

    def test_exact_moment(self, capsys):
        report = theorem_bound(2000, parse_profile("1,2"))
        self._expect(capsys, ["exact-moment", "--k", "2000", "--profile", "1,2"], [
            ("exact moment = {}\n", [report.exact_moment]),
            ("bound core = {}\n", [report.bound_core]),
            ("ratio = {}  (float ", [report.ratio]),
        ])

    def test_census(self, capsys):
        profile = "uniform:1/2:4:64"
        census = composition_census(900, parse_profile(profile))
        self._expect(capsys, ["exact-moment", "--k", "900", "--profile", profile, "--census"], [
            *((f"census L{i} = {{}}\n", [link]) for i, link in enumerate(census.links)),
            ("census envelope value = {}\n", [census.value]),
        ])

    def test_wg_series(self, capsys):
        series = wg_series(2, 3, Permutation.from_cycle_string("id", 2), 10000)
        self._expect(capsys, ["wg", "--k", "2", "--n", "3", "--r-max", "10000"], [
            ("series partial (r_max=10000) = {}\n", [series.series_partial]),
            ("series tail bound = {}\n", [series.tail_bound]),
        ])


class TestProcessLevel:
    def test_argparse_usage_exit(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_exact_commands_leave_numpy_unloaded(self):
        # the sampling layer, the only one that imports numpy, loads on demand
        code = "\n".join([
            "import sys",
            "import ringmoments, ringmoments.cli",
            "for argv in (",
            "    ['wg', '--k', '4', '--n', '8', '--r-max', '6'],",
            "    ['exact-moment', '--k', '3', '--profile', '1,2,3', '--census'],",
            "    ['entry-moment', '--n', '3', '--rows', '1,2', '--cols', '1,2',",
            "     '--conj-rows', '1,2', '--conj-cols', '2,1'],",
            "    ['verify-lemmas', '--k', '3'],",
            "):",
            "    assert ringmoments.cli.main(argv) == 0, argv",
            "assert 'numpy' not in sys.modules, 'numpy was imported'",
        ])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr

    def test_closed_stdout_exits_one_quietly(self):
        # the output is many pipe buffers long, so the command is still
        # writing when the reader closes its end
        with subprocess.Popen(
            [sys.executable, "-m", "ringmoments", "verify-lemmas", "--k", "7"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            assert proc.stdout.readline().startswith("counting check at k = 7")
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=120), err) == (1, "")

    def test_module_runs_byte_identical(self, tmp_path):
        argv = [
            sys.executable, "-m", "ringmoments",
            "mc-moment", "--k", "2", "--profile", "1,2,3",
            "--samples", "500", "--seed", "11",
            "--output", "run.csv",
        ]
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            d.mkdir()
            result = subprocess.run(
                argv + ["--out", str(d)], capture_output=True, text=True
            )
            assert result.returncode == 0, result.stderr
        assert (d1 / "run.csv").read_bytes() == (d2 / "run.csv").read_bytes()
