"""Singular value profiles: validation, the grid constructor, and b and a
computed without under- or overflow."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

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


class TestRoots:
    @pytest.mark.parametrize("values", [(Fraction(0), 1, 2), (0.0, 1.0, 2.0)])
    def test_a_vanishes_with_a_zero_entry(self, values):
        profile = SingularProfile(values)
        assert profile.a == 0.0

    @pytest.mark.parametrize("values", [(Fraction(0), 0), (0.0, 0.0)])
    def test_zero_profile(self, values):
        profile = SingularProfile(values)
        assert profile.b == profile.a == 0.0

    def test_tiny_entries_keep_b_and_a(self):
        # s * s underflows to 0.0 for s = 1e-200; b and a must not
        for profile in (
            SingularProfile.constant(1e-200, 3),
            SingularProfile.constant(Fraction("1e-200"), 3),
        ):
            assert profile.b == pytest.approx(1e-200, rel=1e-15)
            assert profile.a == pytest.approx(1e-200, rel=1e-15)
        exact = SingularProfile((Fraction("1e-200"), 1))
        assert exact.a == pytest.approx(1.4142135623730950e-200, rel=1e-15)
        # float(a2) is subnormal here, so sqrt(float(a2)) would lose digits
        exact = SingularProfile((Fraction("1e-160"), 1))
        assert exact.a == pytest.approx(1.4142135623730950e-160, rel=1e-15)

    def test_huge_entries_keep_b(self):
        # b2 = (10^400 + 1) / 2 lies beyond the float range, b does not
        for values in ((Fraction(10**200), 1), (1e200, 1.0)):
            assert SingularProfile(values).b == pytest.approx(7.0710678118654752e199, rel=1e-15)
        with pytest.raises(OverflowError):
            SingularProfile((Fraction(10**400), 1)).b

    def test_scaled_roots_keep_the_bits_of_the_plain_roots(self):
        # power-of-two scales are exact: where the plain sums over the float
        # view x neither under- nor overflow (x^2 stays within 1e-198..1e201
        # here), b and a are sqrt(mean x^2) and sqrt(n / sum x^-2) bit for bit
        rng = np.random.default_rng(12)
        for n in (1, 3, 64, 512):
            for _ in range(25):
                values = rng.uniform(0.0, 4.0, n) * 10.0 ** rng.uniform(-100, 100)
                profile = SingularProfile(tuple(values.tolist()))
                x = [float(v) for v in profile.values]
                assert x == values.tolist()
                assert profile.b == math.sqrt(sum(v * v for v in x) / n)
                assert profile.a == math.sqrt(n / sum(1 / (v * v) for v in x))
