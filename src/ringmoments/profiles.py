"""Singular value profiles for the sampled matrices.

A profile is the ordered tuple (s_1, ..., s_n) of prescribed singular values,
held as exact Fractions.  An int, float or Decimal entry converts losslessly,
so a float entry is stored as the rational it denotes.  Every entry must be
finite and nonnegative.

Derived quantities are exact properties, recomputed on access:

* M, m: largest and smallest singular value,
* b2 = (1/n) * sum s_i^2.

The floats the sampler reads (the entries, b, a, M and m) belong to
``montecarlo.float_view``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[int, float, Fraction]


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
