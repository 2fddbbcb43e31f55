"""Sampling layer: distributional checks, determinism, experiment records."""

import csv
import json
import math
import os
import pickle
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from ringmoments import montecarlo
from ringmoments.exact_moments import trace_moment_sq, trace_moment_uu
from ringmoments.haar_moments import MomentSpec
from ringmoments.montecarlo import (
    EigensolverError,
    ExperimentRecord,
    OverflowGuardError,
    ProfileFamily,
    RateFit,
    TailPoint,
    estimate_trace_moment,
    extreme_eigenvalues,
    float_view,
    haar_batch,
    mc_entry_moment,
    radius_rate_experiment,
    rng_stream,
    sample_A_batch,
    spectrum_records,
    tail_experiment,
    write_records_csv,
    write_records_jsonl,
)
from ringmoments.profiles import SingularProfile

CSV_COLUMNS = [f.name for f in fields(ExperimentRecord)]


def read_records_csv(path: str) -> list[ExperimentRecord]:
    """Records back from ``write_records_csv``; rejects any other header."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header: {reader.fieldnames}")
        return [
            ExperimentRecord(
                n=int(row["n"]),
                k=int(row["k"]),
                seed=int(row["seed"]),
                stat=row["stat"],
                value=float(row["value"]),
                b=float(row["b"]),
                a=float(row["a"]),
                M=float(row["M"]),
                m=float(row["m"]),
            )
            for row in reader
        ]


def read_records_jsonl(path: str) -> list[ExperimentRecord]:
    """Records back from ``write_records_jsonl``."""
    with open(path) as fh:
        return [ExperimentRecord(**json.loads(line)) for line in fh if line.strip()]


class TestSamplers:
    def test_unitarity(self):
        rng = rng_stream(7)
        for n in (1, 2, 5, 16):
            u = haar_batch(n, 1, rng)[0]
            assert u.shape == (n, n)
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-10

    def test_batch_unitarity(self):
        rng = rng_stream(11)
        batch = haar_batch(6, 8, rng)
        assert batch.shape == (8, 6, 6)
        for u in batch:
            assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10

    def test_trace_second_moment_is_one(self):
        # E |tr U|^2 = 1 for Haar U at every n >= 1
        rng = rng_stream(3)
        n, count = 4, 20000
        batch = haar_batch(n, count, rng)
        traces = np.trace(batch, axis1=1, axis2=2)
        vals = np.abs(traces) ** 2
        se = vals.std(ddof=1) / math.sqrt(count)
        assert abs(vals.mean() - 1.0) < 4 * se

    @pytest.mark.parametrize("n", [2, 4])
    def test_haar_law_trace_moments(self, n):
        # Diaconis-Shahshahani: E |tr U^j|^2 = min(j, n); and E (tr U)^2 = 0,
        # which a real (orthogonal) draw would put at 1
        count = 20000
        batch = haar_batch(n, count, rng_stream(23, n))
        power = batch
        for j in (1, 2, 3):
            if j > 1:
                power = power @ batch
            vals = np.abs(np.trace(power, axis1=1, axis2=2)) ** 2
            se = vals.std(ddof=1) / math.sqrt(count)
            assert abs(vals.mean() - min(j, n)) < 4 * se, (j, vals.mean())
        squares = np.trace(batch, axis1=1, axis2=2) ** 2
        for part in (squares.real, squares.imag):
            se = part.std(ddof=1) / math.sqrt(count)
            assert abs(part.mean()) < 4 * se

    def test_one_draw_is_similar_to_the_product(self):
        # U T V = U (T V U) U^*, so U T V and T (V U) share the spectrum and
        # every trace statistic the samplers estimate
        rng = rng_stream(29)
        n = 6
        s = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
        u, v = haar_batch(n, 2, rng)
        product = (u * s) @ v
        single = s[:, None] * (v @ u)
        assert np.allclose(
            np.sort(np.abs(np.linalg.eigvals(product))),
            np.sort(np.abs(np.linalg.eigvals(single))),
            rtol=0, atol=1e-10,
        )
        for k in (1, 2, 3):
            pk = np.linalg.matrix_power(product, k)
            sk = np.linalg.matrix_power(single, k)
            assert abs(np.sum(np.abs(pk) ** 2) - np.sum(np.abs(sk) ** 2)) < 1e-10
            assert abs(abs(np.trace(pk)) ** 2 - abs(np.trace(sk)) ** 2) < 1e-10

    def test_sample_A_batch_is_one_scaled_haar_draw(self):
        view = float_view(SingularProfile.from_values([0.5, 1.0, 2.0, 3.5]))
        drawn = sample_A_batch(view, 5, rng_stream(31, 2))
        expected = view.values[:, None] * haar_batch(4, 5, rng_stream(31, 2))
        assert drawn.tobytes() == expected.tobytes()

    def test_uniform_random_float_view_is_the_draws(self):
        profile = ProfileFamily("uniform-random", 0.5, 4.0).realize(64, rng_stream(5, 1))
        draws = rng_stream(5, 1).uniform(0.5, 4.0, 64)
        assert float_view(profile).values.tobytes() == draws.tobytes()

    # an entry, exact or an int beside a float
    @pytest.mark.parametrize("values", [(Fraction(10**400), 1), (10**400, 1.0)])
    def test_profile_beyond_floats_is_rejected_before_sampling(self, monkeypatch, values):
        def no_draw(*args):
            raise AssertionError("sampled a profile beyond the float range")

        monkeypatch.setattr(montecarlo, "haar_batch", no_draw)
        profile = SingularProfile.from_values(values)
        with pytest.raises(ValueError, match="beyond the float range"):
            estimate_trace_moment(2, profile, samples=10, seed=3)

    @pytest.mark.parametrize(
        "values",
        [
            (Fraction(10**200), 1),  # b2 is beyond the float range, b is not
            (1e200, 1.0),  # the square sum is inf in floats
        ],
    )
    def test_profile_near_the_float_limit_is_sampled(self, values):
        # b is computed on scaled entries: about sqrt(10^400 / 2), a float
        view = float_view(SingularProfile.from_values(values))
        drawn = sample_A_batch(view, 2, rng_stream(3))
        assert drawn.shape == (2, 2, 2) and np.all(np.isfinite(drawn))

    def test_profile_whose_squares_underflow_is_sampled(self):
        # 1 / (s * s) overflows for s = 1e-200, but a is a float: sqrt(2) s
        view = float_view(SingularProfile.from_values((1e-200, 1.0)))
        assert view.a == pytest.approx(1.41421356e-200, rel=1e-8)
        drawn = sample_A_batch(view, 2, rng_stream(3))
        assert drawn.shape == (2, 2, 2) and np.all(np.isfinite(drawn))

    def test_haar_batch_validation(self):
        rng = rng_stream(0)
        with pytest.raises(ValueError, match="at least 1"):
            haar_batch(0, 1, rng)
        with pytest.raises(ValueError, match="at least 1"):
            haar_batch(2, 0, rng)

    def test_sample_A_singular_values(self):
        profile = SingularProfile.from_values([0.5, 1.0, 2.0, 3.5])
        rng = rng_stream(5)
        a = sample_A_batch(float_view(profile), 1, rng)[0]
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(sorted(sv), sorted(map(float, profile.values)), atol=1e-8)

    def test_spectral_radius_never_exceeds_top_value(self):
        profile = SingularProfile.uniform_grid(0.5, 4.0, 12)
        view, rng = float_view(profile), rng_stream(9)
        for _ in range(25):
            hi, lo = extreme_eigenvalues(sample_A_batch(view, 1, rng)[0])
            assert hi <= float(profile.M) + 1e-8
            assert lo >= -1e-8

    def test_unitary_case_pins_both_extremes(self):
        view = float_view(SingularProfile.constant(1.0, 8))
        hi, lo = extreme_eigenvalues(sample_A_batch(view, 1, rng_stream(13))[0])
        assert abs(hi - 1.0) < 1e-10
        assert abs(lo - 1.0) < 1e-10


class TestFloatView:
    @pytest.mark.parametrize("values", [(Fraction(0), 1, 2), (0.0, 1.0, 2.0)])
    def test_a_vanishes_with_a_zero_entry(self, values):
        assert float_view(SingularProfile(values)).a == 0.0

    @pytest.mark.parametrize("values", [(Fraction(0), 0), (0.0, 0.0)])
    def test_zero_profile(self, values):
        view = float_view(SingularProfile(values))
        assert view.b == view.a == view.M == view.m == 0.0

    def test_tiny_entries_keep_b_and_a(self):
        # s * s underflows to 0.0 for s = 1e-200; b and a must not
        for profile in (
            SingularProfile.constant(1e-200, 3),
            SingularProfile.constant(Fraction("1e-200"), 3),
        ):
            view = float_view(profile)
            assert view.b == pytest.approx(1e-200, rel=1e-15)
            assert view.a == pytest.approx(1e-200, rel=1e-15)
        view = float_view(SingularProfile((Fraction("1e-200"), 1)))
        assert view.a == pytest.approx(1.4142135623730950e-200, rel=1e-15)
        # the plain a2 is subnormal here, so its root would lose digits
        view = float_view(SingularProfile((Fraction("1e-160"), 1)))
        assert view.a == pytest.approx(1.4142135623730950e-160, rel=1e-15)

    def test_entries_are_the_rounded_fractions(self):
        # numerator / denominator is correctly rounded, as float(Fraction) is
        for profile in (
            SingularProfile.uniform_grid(Fraction(1, 2), 4, 1001),
            SingularProfile((Fraction("0.3"), Fraction(1, 3), 7, Fraction(2, 7), 5)),
            SingularProfile((Fraction(1, 3 * 10**330), Fraction(10**300, 7), 0.1)),
        ):
            x = float_view(profile).values.tolist()
            assert x == [float(v) for v in profile.values]

    def test_huge_entries_keep_b(self):
        # b2 = (10^400 + 1) / 2 lies beyond the float range, b does not
        for values in ((Fraction(10**200), 1), (1e200, 1.0)):
            view = float_view(SingularProfile(values))
            assert view.b == pytest.approx(7.0710678118654752e199, rel=1e-15)
        with pytest.raises(ValueError, match="n = 2 cannot be sampled"):
            float_view(SingularProfile((Fraction(10**400), 1)))

    def test_scaled_roots_keep_the_bits_of_the_plain_roots(self):
        # power-of-two scales are exact: where the plain sums over the float
        # view x neither under- nor overflow (x^2 stays within 1e-198..1e201
        # here), b and a are sqrt(mean x^2) and sqrt(n / sum x^-2) bit for
        # bit; M and m are the rounded exact extremes, as rounding is monotone
        rng = np.random.default_rng(12)
        for n in (1, 3, 64, 512):
            for _ in range(25):
                values = rng.uniform(0.0, 4.0, n) * 10.0 ** rng.uniform(-100, 100)
                profile = SingularProfile(tuple(values.tolist()))
                view = float_view(profile)
                x = view.values.tolist()
                assert x == values.tolist()
                assert view.b == math.sqrt(sum(v * v for v in x) / n)
                assert view.a == math.sqrt(n / sum(1 / (v * v) for v in x))
                assert (view.M, view.m) == (float(profile.M), float(profile.m))

    @pytest.mark.parametrize(
        "profile,columns",
        [
            (
                SingularProfile.uniform_grid(Fraction(1, 2), 4, 64),
                "(2.473002373783887, 1.3800284810242434, 4.0, 0.5)",
            ),
            (
                SingularProfile((Fraction("0.3"), Fraction(1, 3), 7, Fraction(2, 7), 5)),
                "(3.8544193794700736, 0.3927067092904317, 7.0, 0.2857142857142857)",
            ),
            (SingularProfile((1e-200, 1e-200)), "(1e-200, 1e-200, 1e-200, 1e-200)"),
            (SingularProfile((1e200, 1.0)), "(7.071067811865475e+199, 1.4142135623730951, 1e+200, 1.0)"),
        ],
    )
    def test_record_columns_are_pinned(self, profile, columns):
        # pure-Python float arithmetic: the same bits on every platform
        [record] = montecarlo.profile_records(float_view(profile), 1, 0, [("x", 0.0)])
        assert repr((record.b, record.a, record.M, record.m)) == columns

    def test_built_once_per_sampled_profile(self, monkeypatch):
        calls = []
        build = montecarlo.float_view

        def counted(profile):
            calls.append(profile.n)
            return build(profile)

        monkeypatch.setattr(montecarlo, "float_view", counted)
        spectrum_records(ProfileFamily("uniform-random", 0.5, 2.0), [4, 6], 3, seed=8)
        assert calls == [4] * 3 + [6] * 3
        calls.clear()
        # two batches of 3 x 3 draws, one view
        estimate_trace_moment(2, SingularProfile.constant(1, 3), montecarlo._BATCH + 1, 0)
        assert calls == [3]
        calls.clear()
        # one view for the early reject, b and a, and every replication
        tail_experiment(SingularProfile.uniform_grid(0.5, 2.0, 5), [0.1], 2, seed=0)
        assert calls == [5]


class TestRngStreams:
    def test_same_stream_reproduces(self):
        a = rng_stream(42, 3).standard_normal(5)
        b = rng_stream(42, 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_differ_by_index_and_seed(self):
        base = rng_stream(42, 0).standard_normal(5)
        assert not np.array_equal(base, rng_stream(42, 1).standard_normal(5))
        assert not np.array_equal(base, rng_stream(43, 0).standard_normal(5))

    @pytest.mark.parametrize("seed,index", [(-1, 0), (2**63, 0), (0, -1), (0, 2**63)])
    def test_seed_and_index_must_fit_63_bits(self, seed, index):
        with pytest.raises(ValueError, match="nonnegative 63-bit integer"):
            rng_stream(seed, index)


class TestEstimates:
    def test_estimator_matches_exact_uu(self):
        profile = SingularProfile.from_values([1.0, 2.0, 3.0])
        est = estimate_trace_moment(2, profile, samples=20000, seed=1)
        exact = float(trace_moment_uu(2, SingularProfile.from_values([1, 2, 3])))
        tol = 4 * est.std_error + 1e-9 * abs(exact)
        assert abs(est.mean - exact) < tol
        assert est.statistic == "trace_uu"
        assert (est.samples, est.k, est.n) == (20000, 2, 3)

    def test_estimator_matches_exact_sq(self):
        profile = SingularProfile.from_values([1.0, 2.0, 3.0])
        est = estimate_trace_moment(2, profile, samples=20000, seed=2, mode="sq")
        exact = float(trace_moment_sq(2, SingularProfile.from_values([1, 2, 3])))
        assert abs(est.mean - exact) < 4 * est.std_error + 1e-9 * abs(exact)
        assert est.statistic == "trace_sq"

    def test_order_one_uu_is_deterministic(self):
        # trace(A A*) equals the squared profile norm for every unitary pair
        profile = SingularProfile.from_values([1.0, 2.0])
        est = estimate_trace_moment(1, profile, samples=50, seed=0)
        assert abs(est.mean - 5.0) < 1e-10
        assert est.std_error < 1e-10

    def test_determinism_and_seed_sensitivity(self):
        profile = SingularProfile.from_values([1.0, 2.0, 3.0])
        a = estimate_trace_moment(2, profile, samples=500, seed=10)
        b = estimate_trace_moment(2, profile, samples=500, seed=10)
        c = estimate_trace_moment(2, profile, samples=500, seed=11)
        assert a == b
        assert a.mean != c.mean

    def test_estimates_draw_batches_in_turn_from_one_stream(self):
        # one full batch of 3 x 3 draws and a short one, both from rng_stream(seed)
        sizes = (min(montecarlo._BATCH, montecarlo._BATCH_ENTRIES // 3**2), 3)
        profile = SingularProfile.from_values([0.5, 1.0, 2.0])
        rng = rng_stream(7)
        traces = np.concatenate([
            np.abs(np.trace(a @ a, axis1=1, axis2=2)) ** 2
            for a in (sample_A_batch(float_view(profile), b, rng) for b in sizes)
        ])
        est = estimate_trace_moment(2, profile, sum(sizes), 7, "sq")
        assert est.mean == float(traces.mean())
        assert est.std_error == float(traces.std(ddof=1) / math.sqrt(sum(sizes)))

        spec = MomentSpec(3, (1, 2), (2, 1), (1, 2), (2, 1))
        rng = rng_stream(7)
        words = np.concatenate([
            (u[:, 0, 1] * u[:, 1, 0] * np.conj(u[:, 0, 1]) * np.conj(u[:, 1, 0])).real
            for u in (haar_batch(3, b, rng) for b in sizes)
        ])
        assert mc_entry_moment(spec, sum(sizes), 7).mean == float(words.mean())

    def test_batches_stay_within_the_entry_bound(self, monkeypatch):
        # _BATCH matrices at n = 512 would be 16 GiB of normals; the fake
        # haar_batch records the count and raises before anything is drawn
        n, counts = 512, []

        class Recorded(Exception):
            pass

        def record(dim, count, rng):
            counts.append(count)
            raise Recorded

        monkeypatch.setattr(montecarlo, "haar_batch", record)
        with pytest.raises(Recorded):
            estimate_trace_moment(2, SingularProfile.constant(1, n), 10000, 0)
        with pytest.raises(Recorded):
            mc_entry_moment(MomentSpec(n, (1,), (1,), (1,), (1,)), 10000, 0)
        assert len(counts) == 2
        assert all(1 <= c and c * n * n <= montecarlo._BATCH_ENTRIES for c in counts)

    def test_validation(self):
        profile = SingularProfile.from_values([1.0, 2.0])
        with pytest.raises(ValueError):
            estimate_trace_moment(0, profile, samples=10, seed=0)
        with pytest.raises(ValueError):
            estimate_trace_moment(1, profile, samples=1, seed=0)
        with pytest.raises(ValueError):
            estimate_trace_moment(1, profile, samples=10, seed=0, mode="bad")

    def test_power_overflow_is_guarded_without_warnings(self):
        a = np.full((1, 2, 2), 1e200, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowGuardError, match="exponent <= 2"):
                montecarlo._power_batch(a, 2)

    def test_non_finite_estimate_fails_closed(self):
        # A^40 stays finite, but the spread of |.|^2 overflows
        profile = SingularProfile.from_values([1000.0, 2000.0])
        with pytest.raises(OverflowGuardError, match="std error=inf"):
            estimate_trace_moment(40, profile, samples=100, seed=0)


class TestProfileFamilies:
    def test_grid_and_constant_ignore_rng(self):
        rng = rng_stream(0)
        grid = ProfileFamily("grid", 0.5, 4.0).realize(6, rng)
        assert grid == SingularProfile.uniform_grid(0.5, 4.0, 6)
        const = ProfileFamily("constant", 2.0).realize(4, rng)
        assert const == SingularProfile.constant(2.0, 4)

    def test_uniform_random_in_range_and_stream_owned(self):
        fam = ProfileFamily("uniform-random", 0.5, 4.0)
        p1 = fam.realize(32, rng_stream(1, 0))
        p2 = fam.realize(32, rng_stream(1, 0))
        p3 = fam.realize(32, rng_stream(1, 1))
        assert p1 == p2
        assert p1 != p3
        assert all(0.5 <= float(v) <= 4.0 for v in p1.values)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown family kind 'weird'"):
            ProfileFamily("weird")

    @pytest.mark.parametrize("lo,hi", [(-1e-300, 1.0), (-0.5, 1.0), (2.0, 1.0)])
    def test_uniform_random_bounds_checked_when_built(self, lo, hi):
        # a negative lo is refused whatever the draws would have been
        with pytest.raises(ValueError, match="uniform-random family needs 0 <= lo <= hi"):
            ProfileFamily("uniform-random", lo, hi)

    def test_grid_and_constant_values_are_checked_as_entries(self):
        # a falling grid is a profile; a negative entry is not
        assert ProfileFamily("grid", 2.0, 1.0).realize(2, rng_stream(0)).values == (2, 1)
        family = ProfileFamily("constant", -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            family.realize(2, rng_stream(0))


class TestSpectrumRecords:
    def test_schema_and_stats(self):
        fam = ProfileFamily("grid", 1.0, 2.0)
        records = spectrum_records(fam, [4, 8], replications=3, seed=6)
        assert len(records) == 2 * 3 * 4
        stats = {r.stat for r in records}
        assert stats == {
            "spectral_radius",
            "min_modulus",
            "radius_deviation",
            "min_deviation",
        }
        for r in records:
            assert r.seed == 6 and r.k == 1 and r.n in (4, 8)

    def test_jobs_do_not_change_output(self):
        fam = ProfileFamily("uniform-random", 0.5, 2.0)
        serial = spectrum_records(fam, [4, 6], replications=4, seed=8, jobs=1)
        parallel = spectrum_records(fam, [4, 6], replications=4, seed=8, jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        fam = ProfileFamily("constant", 1.0)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            spectrum_records(fam, [4], replications=1, seed=0, jobs=jobs)

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        sizes = []

        class SerialPool:
            """Records its size and maps in this process: no process starts."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns):
                return map(fn, *columns)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
        fam = ProfileFamily("uniform-random", 0.5, 2.0)
        serial = spectrum_records(fam, [4], replications=2, seed=8)
        assert spectrum_records(fam, [4], replications=2, seed=8, jobs=64) == serial
        assert sizes == [2]
        # a single task takes the serial path at any jobs
        spectrum_records(fam, [4], replications=1, seed=8, jobs=64)
        assert sizes == [2]
        profile = SingularProfile.uniform_grid(0.5, 2.0, 4)
        tail_experiment(profile, [0.1], replications=3, seed=0, jobs=64)
        assert sizes == [2, 3]

    def test_deviation_consistency(self):
        # rows arrive four per replication: radius, min, then both deviations
        fam = ProfileFamily("uniform-random", 0.5, 2.0)
        records = spectrum_records(fam, [6], replications=3, seed=3)
        for start in range(0, len(records), 4):
            radius, minimum, rdev, mdev = records[start : start + 4]
            assert rdev.value == radius.value - radius.b
            assert mdev.value == minimum.a - minimum.value

    def test_replication_validation(self):
        with pytest.raises(ValueError):
            spectrum_records(ProfileFamily("constant", 1.0), [4], 0, 0)

    def test_eigensolver_failure_names_the_stream(self, monkeypatch):
        calls = []

        def failing(a):
            calls.append(a)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("no convergence")
            return extreme_eigenvalues(a)

        monkeypatch.setattr(montecarlo, "extreme_eigenvalues", failing)
        with pytest.raises(EigensolverError, match=r"seed=5, stream=1\)"):
            spectrum_records(ProfileFamily("constant", 1.0), [4], 3, seed=5)

    @pytest.mark.parametrize("error, message", [
        (EigensolverError, "eigensolver did not converge (seed=5, stream=1)"),
        (OverflowGuardError, "matrix power overflowed at exponent <= 3"),
    ])
    def test_errors_survive_a_pickle_round_trip(self, error, message):
        # a process pool hands a worker's error back to the parent pickled
        copy = pickle.loads(pickle.dumps(error(message)))
        assert (type(copy), str(copy)) == (error, message)

    def test_records_carry_the_profile(self):
        view = float_view(SingularProfile.from_values([Fraction(1, 2), 2, 3]))
        records = montecarlo.profile_records(view, 4, 9, [("x", 1.5), ("y", -2.0)])
        assert [(r.stat, r.value) for r in records] == [("x", 1.5), ("y", -2.0)]
        for r in records:
            assert (r.n, r.k, r.seed) == (3, 4, 9)
            assert (r.b, r.a, r.M, r.m) == (view.b, view.a, 3.0, 0.5)

    def test_tiny_family_keeps_b(self):
        # s * s underflows for s = 1e-200: the records still carry b = 1e-200,
        # so the radius deviation is tiny, not the radius itself
        records = spectrum_records(ProfileFamily("constant", 1e-200), [4], 2, 3)
        for record in records:
            assert record.b == pytest.approx(1e-200, rel=1e-15)
            if record.stat == "radius_deviation":
                assert abs(record.value) < 1e-210

    def test_one_haar_draw_per_replication(self, monkeypatch):
        calls = []
        draw = montecarlo.haar_batch

        def counted(n, count, rng):
            calls.append((n, count))
            return draw(n, count, rng)

        monkeypatch.setattr(montecarlo, "haar_batch", counted)
        fam = ProfileFamily("uniform-random", 0.5, 2.0)
        spectrum_records(fam, [4, 6], replications=3, seed=8)
        assert calls == [(4, 1)] * 3 + [(6, 1)] * 3


class TestRateExperiment:
    def test_fit_on_small_grid(self):
        fam = ProfileFamily("uniform-random", 0.5, 4.0)
        records, fit = radius_rate_experiment(fam, [8, 16], replications=6, seed=4)
        assert isinstance(fit, RateFit)
        assert len(fit.medians) == 2
        assert {n for n, _ in fit.medians} == {8, 16}
        assert any(r.stat == "radius_deviation" for r in records)
        if not fit.degenerate:
            assert fit.ci_low <= fit.slope <= fit.ci_high

    def test_degenerate_constant_profile(self):
        # a flat profile makes A unitary, every deviation is ~0 and the fit
        # must flag itself instead of extrapolating from noise
        fam = ProfileFamily("constant", 1.0)
        _, fit = radius_rate_experiment(fam, [4, 8], replications=3, seed=5)
        assert fit.degenerate
        assert fit.slope == 0.0

    def test_replication_validation(self):
        with pytest.raises(ValueError):
            radius_rate_experiment(ProfileFamily("constant", 1.0), [4], 0, seed=0)

    @pytest.mark.parametrize("n_grid", [[], [8, 8], [0], [4, -1]])
    def test_invalid_grid_rejected_before_sampling(self, monkeypatch, n_grid):
        def no_draw(*args):
            raise AssertionError("sampled before the grid was checked")

        monkeypatch.setattr(montecarlo, "haar_batch", no_draw)
        with pytest.raises(ValueError, match="n_grid"):
            radius_rate_experiment(ProfileFamily("constant", 1.0), n_grid, 2, seed=0)


class TestTailExperiment:
    def test_monotone_and_vanishing_tails(self):
        profile = SingularProfile.uniform_grid(0.5, 2.0, 16)
        deltas = [0.0, 0.05, 0.1, 0.25, float(profile.M) - float_view(profile).b]
        _, points = tail_experiment(profile, deltas, replications=40, seed=12)
        ps = [p.p_radius_above for p in points]
        qs = [p.p_min_below for p in points]
        assert all(x >= y for x, y in zip(ps, ps[1:]))
        assert all(x >= y for x, y in zip(qs, qs[1:]))
        # the radius never exceeds the largest singular value
        assert ps[-1] == 0.0
        assert all(0.0 <= x <= 1.0 for x in ps + qs)

    def test_replication_validation(self):
        profile = SingularProfile.uniform_grid(0.5, 2.0, 8)
        with pytest.raises(ValueError):
            tail_experiment(profile, [0.1], replications=0, seed=0)

    def test_jobs_do_not_change_output(self):
        profile = SingularProfile.uniform_grid(0.5, 2.0, 6)
        serial = tail_experiment(profile, [0.0, 0.1], replications=4, seed=8, jobs=1)
        parallel = tail_experiment(profile, [0.0, 0.1], replications=4, seed=8, jobs=2)
        assert serial == parallel

    def test_empty_deltas_rejected_before_sampling(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("sampled before the deltas were checked")

        monkeypatch.setattr(montecarlo, "haar_batch", no_draw)
        with pytest.raises(ValueError, match="deltas"):
            tail_experiment(SingularProfile.uniform_grid(0.5, 2.0, 8), [], 2, seed=0)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        profile = SingularProfile.uniform_grid(0.5, 2.0, 4)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            tail_experiment(profile, [0.1], replications=1, seed=0, jobs=jobs)


class TestRecordIO:
    def make_records(self):
        fam = ProfileFamily("uniform-random", 0.5, 3.0)
        return spectrum_records(fam, [4, 6], replications=3, seed=17)

    def test_csv_round_trip_bit_exact(self, tmp_path):
        records = self.make_records()
        path = os.fspath(tmp_path / "records.csv")
        write_records_csv(records, path)
        assert read_records_csv(path) == records
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == ",".join(CSV_COLUMNS)

    def test_csv_rewrite_identical_bytes(self, tmp_path):
        records = self.make_records()
        p1 = os.fspath(tmp_path / "a.csv")
        p2 = os.fspath(tmp_path / "b.csv")
        write_records_csv(records, p1)
        write_records_csv(read_records_csv(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_csv_of_tail_points_has_their_header(self, tmp_path):
        path = tmp_path / "curve.csv"
        points = [TailPoint(0.0, 0.30000000000000004, 1.0), TailPoint(0.5, 2.5e-300, 0.0)]
        write_records_csv(points, os.fspath(path))
        assert path.read_bytes() == (
            b"delta,p_radius_above,p_min_below\n"
            b"0.0,0.30000000000000004,1.0\n0.5,2.5e-300,0.0\n"
        )

    def test_csv_of_no_records_has_the_record_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records_csv([], os.fspath(path))
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_jsonl_round_trip(self, tmp_path):
        records = self.make_records()
        path = os.fspath(tmp_path / "records.jsonl")
        write_records_jsonl(records, path)
        assert read_records_jsonl(path) == records

    def test_bad_header_rejected(self, tmp_path):
        path = os.fspath(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("x,y\n1,2\n")
        with pytest.raises(ValueError):
            read_records_csv(path)

    def test_record_field_order(self):
        assert CSV_COLUMNS == ["n", "k", "seed", "stat", "value", "b", "a", "M", "m"]
        r = ExperimentRecord(4, 1, 0, "spectral_radius", 1.5, 1.0, 0.5, 2.0, 0.5)
        assert [getattr(r, c) for c in CSV_COLUMNS] == [
            4, 1, 0, "spectral_radius", 1.5, 1.0, 0.5, 2.0, 0.5,
        ]
