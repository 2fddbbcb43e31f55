"""Singular value profiles for the sampled matrices.

A profile is the ordered tuple (s_1, ..., s_n) of prescribed singular values.
Profiles come in two arithmetic modes: exact (every entry an int or Fraction,
normalized to Fraction) and float.  Every entry must be nonnegative, and in
float mode finite: NaN and infinite entries are rejected at construction.
Exact trace moments require the exact mode; ``montecarlo`` builds the float
view of either mode that it samples.

Derived quantities are properties, recomputed on access:

* M, m: largest and smallest singular value,
* b2 = (1/n) * sum s_i^2 and b = sqrt(b2),
* a2 = n / sum s_i^(-2) and a = sqrt(a2), with a = 0 as soon as some
  s_i == 0 (the reciprocal sum is infinite).

b and a are floats computed so that they do not under- or overflow where
the root itself is a float.  In float mode b is computed on the entries
scaled by the power of two just below M, and a on those scaled by the power
of two just below m; in exact mode each is ldexp(sqrt(float(q / 4^e)), e)
with q = b2 or a2 and 4^e near q.  Power-of-two scales are exact, so b and a
keep the bits of sqrt(b2) and sqrt(a2) wherever those have no under- or
overflow.
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


def _float_sqrt(q: Fraction) -> float:
    """sqrt(q) for a rational q >= 0, taken on q / 4^e in (1/2, 4) and scaled
    back by 2^e; an OverflowError when it lies beyond the float range."""
    if q == 0:
        return 0.0
    e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(float(q / Fraction(4) ** e)), e)


@dataclass(frozen=True)
class SingularProfile:
    """Immutable singular value profile; see module docstring."""

    values: tuple

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("profile needs at least one singular value")
        if all(isinstance(v, (int, Fraction)) for v in self.values):
            normalized = tuple(Fraction(v) for v in self.values)
        else:
            normalized = tuple(float(v) for v in self.values)
            if not all(map(math.isfinite, normalized)):
                raise ValueError("float singular values must be finite")
        if any(v < 0 for v in self.values):
            raise ValueError("singular values must be nonnegative")
        object.__setattr__(self, "values", normalized)

    @classmethod
    def from_values(cls, values: Sequence[Scalar]) -> "SingularProfile":
        return cls(tuple(values))

    @classmethod
    def constant(cls, value: Scalar, n: int) -> "SingularProfile":
        return cls((value,) * n)

    @classmethod
    def uniform_grid(cls, lo: Scalar, hi: Scalar, n: int) -> "SingularProfile":
        """The deterministic grid s_i = lo + (i-1) (hi-lo) / (n-1); exact when
        the endpoints are exact.  n = 1 yields (lo,)."""
        if n < 1:
            raise ValueError("profile needs at least one singular value")
        if isinstance(lo, (int, Fraction)) and isinstance(hi, (int, Fraction)):
            lo_x, hi_x = Fraction(lo), Fraction(hi)
        else:
            lo_x, hi_x = float(lo), float(hi)
        if n == 1:
            return cls((lo_x,))
        step = (hi_x - lo_x) / (n - 1)
        return cls(tuple(lo_x + i * step for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.values[0], Fraction)

    @property
    def M(self):
        return max(self.values)

    @property
    def m(self):
        return min(self.values)

    @property
    def b2(self):
        total = sum(v * v for v in self.values)
        if self.is_exact:
            return Fraction(total, self.n)
        return total / self.n

    @property
    def b(self) -> float:
        if self.is_exact:
            return _float_sqrt(self.b2)
        if self.M == 0:
            return 0.0
        p = _power_of_two_below(self.M)
        return p * math.sqrt(sum(w * w for w in (v / p for v in self.values)) / self.n)

    @property
    def a2(self):
        if any(v == 0 for v in self.values):
            return Fraction(0) if self.is_exact else 0.0
        total = sum(1 / (v * v) for v in self.values)
        return self.n / total

    @property
    def a(self) -> float:
        if self.is_exact:
            return _float_sqrt(self.a2)
        if self.m == 0:
            return 0.0
        p = _power_of_two_below(self.m)
        return p * math.sqrt(self.n / sum(1 / (w * w) for w in (v / p for v in self.values)))
