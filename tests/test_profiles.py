"""Singular value profiles: validation, the stored integer form and the
exact grid constructor."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringmoments.exact_moments import (
    MAX_SQ_ORDER,
    MAX_UU_ORDER,
    composition_census,
    theorem_bound,
    trace_moment_sq,
    trace_moment_uu,
)
from ringmoments.montecarlo import (
    ProfileFamily,
    estimate_trace_moment,
    float_view,
    spectrum_records,
    tail_experiment,
)
from ringmoments.profiles import SingularProfile


class TestConstruction:
    @pytest.mark.parametrize(
        "values,message",
        [
            ((), "at least one singular value"),
            ((1, -2), "nonnegative"),
            ((0.5, -1e-9), "nonnegative"),
            ((float("nan"), 1.0), "finite"),
            ((1.0, float("nan")), "finite"),
            ((float("inf"),), "finite"),
            ((-math.inf, 1.0), "finite"),
            ((1, Decimal("Infinity")), "finite"),
            ((Decimal("-Infinity"), 1), "finite"),
            ((Decimal("NaN"),), "finite"),
        ],
    )
    def test_empty_and_negative_profiles_rejected(self, values, message):
        with pytest.raises(ValueError, match=message):
            SingularProfile(values)

    def test_uniform_grid(self):
        assert SingularProfile.uniform_grid(1, 3, 3).values == (1, 2, 3)
        assert SingularProfile.uniform_grid(Fraction(1, 2), 4, 1).values == (Fraction(1, 2),)
        assert SingularProfile.uniform_grid(0.5, 4.0, 1).values == (0.5,)
        with pytest.raises(ValueError, match="at least one singular value"):
            SingularProfile.uniform_grid(1, 2, 0)



def _entries():
    """A nonnegative rational given as an int, a float, a Fraction, a str or
    a Decimal."""
    return st.one_of(
        st.integers(min_value=0, max_value=10**30),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        st.fractions(min_value=0, max_denominator=10**12),
        st.fractions(min_value=0, max_denominator=10**6).map(str),
        st.decimals(min_value=0, max_value=10**12, allow_nan=False, allow_infinity=False),
    )


def _spellings(value: Fraction) -> list:
    """The types among int, float, Fraction, str and Decimal that spell
    ``value`` exactly."""
    out = [value, str(value)]
    if value.denominator == 1:
        out.append(value.numerator)
    if Fraction(float(value)) == value:
        out.append(float(value))
    decimal = Decimal(value.numerator) / Decimal(value.denominator)
    if Fraction(decimal) == value:
        out.append(decimal)
    return out


class TestStoredForm:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_entries(), min_size=1, max_size=12))
    def test_form_and_derived_quantities(self, entries):
        exact = [Fraction(v) for v in entries]
        profile = SingularProfile(entries)
        assert profile.values == tuple(exact)
        assert all(isinstance(p, int) for p in profile.numerators)
        assert math.gcd(profile.denominator, *profile.numerators) == 1
        assert profile.n == len(exact)
        assert profile.M == max(exact) and profile.m == min(exact)
        assert profile.b2 == sum(v * v for v in exact) / len(exact)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(min_value=0, max_denominator=10**4), min_size=1, max_size=8),
           st.data())
    def test_equal_inputs_of_other_types_are_equal(self, values, data):
        respelled = [data.draw(st.sampled_from(_spellings(v))) for v in values]
        profile, other = SingularProfile(values), SingularProfile(respelled)
        assert other == profile and hash(other) == hash(profile)

    @settings(max_examples=200, deadline=None)
    @given(_entries(), _entries(), st.integers(min_value=1, max_value=50))
    def test_uniform_grid_is_the_grid_of_fractions(self, lo, hi, n):
        grid = SingularProfile.uniform_grid(lo, hi, n)
        if n == 1:
            expected = (Fraction(lo),)
        else:
            step = (Fraction(hi) - Fraction(lo)) / (n - 1)
            expected = tuple(Fraction(lo) + i * step for i in range(n))
        assert grid.values == expected
        assert grid == SingularProfile(expected) and hash(grid) == hash(SingularProfile(expected))

    def test_numpy_integers_are_stored_as_python_ints(self):
        profile = SingularProfile([np.int64(2**40), np.int32(1)])
        assert profile.numerators == (2**40, 1) and profile.denominator == 1
        assert all(type(p) is int for p in (*profile.numerators, profile.denominator))
        assert profile.b2 == Fraction(2**80 + 1, 2)

    @pytest.mark.parametrize("n", [0, -3])
    def test_uniform_grid_needs_an_entry(self, n):
        with pytest.raises(ValueError, match="at least one singular value"):
            SingularProfile.uniform_grid(Fraction(1, 2), 4, n)

    def test_no_production_path_reads_values(self, monkeypatch):
        def unread(self):
            raise AssertionError("SingularProfile.values read outside the tests")

        monkeypatch.setattr(SingularProfile, "values", property(unread))
        profile = SingularProfile.uniform_grid(Fraction(1, 2), 4, 7)
        for k in (MAX_UU_ORDER, MAX_UU_ORDER + 1):
            trace_moment_uu(k, profile)
        for k in (MAX_SQ_ORDER, MAX_SQ_ORDER + 1):
            trace_moment_sq(k, profile)
        theorem_bound(3, profile, "uu")
        theorem_bound(3, profile, "sq")
        composition_census(4, profile)
        float_view(profile)
        estimate_trace_moment(2, profile, samples=2, seed=0)
        tail_experiment(profile, [0.1], replications=1, seed=0)
        for family in (
            ProfileFamily("uniform-random", 0.5, 4.0),
            ProfileFamily("grid", 0.5, 4.0),
            ProfileFamily("constant", 2.0),
        ):
            spectrum_records(family, [5], replications=1, seed=3)
