"""Singular value profiles: validation and the exact grid constructor."""

import math
from decimal import Decimal
from fractions import Fraction

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

