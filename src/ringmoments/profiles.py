"""Singular value profiles for the sampled matrices.

A profile is the ordered tuple (s_1, ..., s_n) of prescribed singular values,
held as exact Fractions.  An int, float or Decimal entry converts losslessly,
so a float entry is stored as the rational it denotes.  Every entry must be
finite and nonnegative.  ``montecarlo`` samples the float view float(s_i).

Derived quantities are properties, recomputed on access:

* M, m: largest and smallest singular value,
* b2 = (1/n) * sum s_i^2, exact, and b = sqrt(b2),
* a = sqrt(n / sum s_i^(-2)), with a = 0 as soon as some s_i is 0 (the
  reciprocal sum is infinite).

b and a are floats computed on the float view x_i = float(s_i): b on the x_i
scaled by the power of two just below max x, a on those scaled by the power
of two just below min x.  Power-of-two scales are exact, so b and a keep the
bits of sqrt(mean x_i^2) and sqrt(n / sum x_i^(-2)) wherever those neither
under- nor overflow, and they do not under- or overflow where the roots
themselves are floats.  An entry beyond the float range makes both raise
OverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[int, float, Fraction]


def _power_of_two_below(x: float) -> float:
    """The power of two p with x / 2 < p <= x, for a float x > 0."""
    return math.ldexp(1.0, math.frexp(x)[1] - 1)


@dataclass(frozen=True)
class SingularProfile:
    """Immutable singular value profile; see module docstring.

    >>> SingularProfile((0.5, 2)).values
    (Fraction(1, 2), Fraction(2, 1))
    >>> SingularProfile((0.1,)).values[0]
    Fraction(3602879701896397, 36028797018963968)
    """

    values: tuple

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("profile needs at least one singular value")
        try:
            exact = tuple(map(Fraction, self.values))
        except (ValueError, OverflowError):  # NaN or an infinity
            raise ValueError("singular values must be finite") from None
        if any(v < 0 for v in exact):
            raise ValueError("singular values must be nonnegative")
        object.__setattr__(self, "values", exact)

    @classmethod
    def from_values(cls, values: Sequence[Scalar]) -> "SingularProfile":
        return cls(tuple(values))

    @classmethod
    def constant(cls, value: Scalar, n: int) -> "SingularProfile":
        return cls((value,) * n)

    @classmethod
    def uniform_grid(cls, lo: Scalar, hi: Scalar, n: int) -> "SingularProfile":
        """The exact grid s_i = lo + (i-1) (hi-lo) / (n-1) between the exact
        values of lo and hi.  n = 1 yields (lo,), and n < 1 the empty tuple,
        which the constructor rejects."""
        if n == 1:
            return cls((lo,))
        lo, hi = cls((lo, hi)).values  # converted and checked like entries
        step = (hi - lo) / (n - 1)
        return cls(tuple(lo + i * step for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def M(self) -> Fraction:
        return max(self.values)

    @property
    def m(self) -> Fraction:
        return min(self.values)

    @property
    def b2(self) -> Fraction:
        return sum(v * v for v in self.values) / self.n

    @property
    def b(self) -> float:
        x = [float(v) for v in self.values]
        top = max(x)
        if top == 0:
            return 0.0
        p = _power_of_two_below(top)
        return p * math.sqrt(sum(w * w for w in (v / p for v in x)) / self.n)

    @property
    def a(self) -> float:
        x = [float(v) for v in self.values]
        bottom = min(x)
        if bottom == 0:
            return 0.0
        p = _power_of_two_below(bottom)
        return p * math.sqrt(self.n / sum(1 / (w * w) for w in (v / p for v in x)))
