"""Singular value profiles for the sampled matrices.

A profile is the ordered tuple (s_1, ..., s_n) of prescribed singular values,
held exactly as integer numerators over one common denominator:
s_i = numerators[i] / denominator.  The denominator is the least common
one, so the form is in lowest terms and equal profiles compare and hash
equal.  An int, float or Decimal entry converts losslessly, so a float
entry is stored as the rational it denotes.  Every entry must be finite and
nonnegative.

Derived quantities are exact properties, recomputed on access from the
integers:

* M, m: largest and smallest singular value,
* b2 = (1/n) * sum s_i^2,
* values: the entries as Fractions, for reading a profile by hand; the
  package itself reads the integer form.

The exact kernels of ``exact_moments`` take the integer form as it is, and
``montecarlo.float_view`` divides each numerator by the denominator once
for the floats the sampler reads (the entries, b, a, M and m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence, Union

Scalar = Union[int, float, Fraction]


@dataclass(frozen=True, init=False)
class SingularProfile:
    """Immutable singular value profile, built from a sequence of entries;
    see module docstring.

    >>> profile = SingularProfile((0.5, 2))
    >>> profile.numerators, profile.denominator
    ((1, 4), 2)
    >>> profile.values
    (Fraction(1, 2), Fraction(2, 1))
    >>> SingularProfile((0.1,)).values[0]
    Fraction(3602879701896397, 36028797018963968)
    """

    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, values: Sequence[Scalar]) -> None:
        if len(values) < 1:
            raise ValueError("profile needs at least one singular value")
        try:
            # (p, q) in lowest terms with q > 0, as Python ints: a numpy
            # integer entry keeps its fixed width through Fraction
            ratios = [
                (int(p), int(q))
                for p, q in (Fraction(v).as_integer_ratio() for v in values)
            ]
        except (ValueError, OverflowError):  # NaN or an infinity
            raise ValueError("singular values must be finite") from None
        if any(p < 0 for p, _ in ratios):
            raise ValueError("singular values must be nonnegative")
        # the lcm of lowest-terms denominators leaves the form in lowest terms
        denominator = math.lcm(*(q for _, q in ratios))
        object.__setattr__(self, "numerators", tuple(
            p * (denominator // q) for p, q in ratios
        ))
        object.__setattr__(self, "denominator", denominator)

    @classmethod
    def _from_integers(cls, numerators: tuple[int, ...], denominator: int) -> "SingularProfile":
        """A profile from a form the caller has made nonempty, nonnegative
        and lowest-terms; nothing is checked."""
        profile = cls.__new__(cls)
        object.__setattr__(profile, "numerators", numerators)
        object.__setattr__(profile, "denominator", denominator)
        return profile

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
        which the constructor rejects.

        Over the denominator q (n-1), with lo = p / q and hi = r / q, the
        numerators are p (n-1) + i (r - p), an arithmetic progression of
        integers; dividing it and the denominator by their gcd, which is
        that of the denominator, the first term and the step, gives lowest
        terms."""
        if n == 1:
            return cls((lo,))
        ends = cls((lo, hi))  # converted and checked like entries
        if n < 1:
            return cls(())
        (p, r), q = ends.numerators, ends.denominator
        g = math.gcd(q * (n - 1), p * (n - 1), r - p)
        first, step = p * (n - 1) // g, (r - p) // g
        numerators = tuple(range(first, first + n * step, step)) if step else (first,) * n
        return cls._from_integers(numerators, q * (n - 1) // g)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(p, self.denominator) for p in self.numerators)

    @property
    def n(self) -> int:
        return len(self.numerators)

    @property
    def M(self) -> Fraction:
        return Fraction(max(self.numerators), self.denominator)

    @property
    def m(self) -> Fraction:
        return Fraction(min(self.numerators), self.denominator)

    @property
    def b2(self) -> Fraction:
        squares = sum(map(mul, self.numerators, self.numerators))
        return Fraction(squares, self.denominator**2 * self.n)
