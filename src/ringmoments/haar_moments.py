"""Exact mixed moments of Haar unitary matrix entries.

For U Haar on the n x n unitary group, the average of a balanced word

    u[r_1, c_1] ... u[r_k, c_k] * conj(u[r'_1, c'_1]) ... conj(u[r'_k, c'_k])

equals the double sum over permutations sigma, tau in S_k of

    [r_l == r'_{sigma(l)} for all l] * [c_l == c'_{tau(l)} for all l]
      * wg(sigma^-1 * tau)

with wg the exact Weingarten value at degree k and dimension n.  Unbalanced
words (row or column multisets that disagree) average to zero.

The matching pairs are counted by the cycle type of sigma^-1 * tau
(``word_census``); that census depends on the index equalities alone, and
the moment is the census weighed by the table at n
(``weingarten.ClassTable.weigh``), one integer dot product over the
table's common denominator.

The matchings are cosets.  With sigma_0 one row matching and Y the Young
subgroup of the permutations that preserve the conj_rows values, the row
matchings are the sigma = y * sigma_0 with y in Y; likewise the column
matchings are the tau = z * tau_0 with z in the Young subgroup Z of the
conj_cols values.  Conjugating by sigma_0, sigma^-1 * tau has the cycle
type of y^-1 * z * rho with rho = tau_0 * sigma_0^-1, and each product
y^-1 * z arises from exactly |Y n Z| pairs (y, z).  So the census runs over
one representative x of each left coset x (Y n Z) in Y (the x increasing on
every block of positions that agree in both conj_rows and conj_cols) times
all of Z, with the weight |Y n Z|: |Y| |Z| / |Y n Z| products instead of
|Y| |Z|, and k! instead of (k!)^2 for a word with every index equal.

The census is a function of the word's shape, so it is compiled once per
shape.  Permuting the unconjugated factors by pi turns each matching pair
(sigma, tau) into (sigma pi, tau pi), so sigma^-1 * tau becomes
pi^-1 sigma^-1 tau pi, of the same cycle type; permuting the conjugated
factors by pi turns it into (pi^-1 sigma, pi^-1 tau) and leaves sigma^-1 * tau
unchanged.  Both maps are bijections on the matching pairs.  Swapping the
two sides turns each matching pair into (sigma^-1, tau^-1), and
sigma tau^-1 is conjugate to (sigma^-1 tau)^-1, of the same cycle type.  So
the census of a word equals the census of its canonical form, each side's
(row, column) pairs sorted and the smaller side taken as unconjugated, and
``word_census`` memoises that form's census.  The form is
only a cache key: words of one shape may get different keys (relabelled
values do), which costs a second build and never a wrong census, since each
key's census is computed from the word it names.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .permutations import (
    compose_images,
    cycle_types_of_products,
    young_subgroup_images,
)
from .weingarten import wg_class_table

# The census enumerates |Y| |Z| / |Y n Z| products (see the module
# docstring), at most k! of them: 40320 for a word of length 8 with every
# index equal.
MAX_WORD_LENGTH = 8


@dataclass(frozen=True)
class MomentSpec:
    """A balanced-length entry-moment request; all indices 1-based in 1..n."""

    n: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    conj_rows: tuple[int, ...]
    conj_cols: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.rows)
        if k < 1:
            raise ValueError("need at least one factor")
        if not (len(self.cols) == len(self.conj_rows) == len(self.conj_cols) == k):
            raise ValueError("all four index tuples must have equal length")
        for name in ("rows", "cols", "conj_rows", "conj_cols"):
            bad = [e for e in getattr(self, name) if not 1 <= e <= self.n]
            if bad:
                raise ValueError(f"{name} entries {bad} outside 1..{self.n}")

    @property
    def k(self) -> int:
        return len(self.rows)


def _one_matching(src: Sequence[int], dst: Sequence[int]) -> tuple[int, ...] | None:
    """One permutation sigma with src[l] == dst[sigma(l)] for every position
    l (the j-th occurrence of each value goes to its j-th occurrence), or
    None when the multisets disagree."""
    # sorting (value, position) pairs lists each value's occurrences in
    # position order
    sigma = [0] * len(src)
    for (value, l), (other, m) in zip(sorted(zip(src, range(len(src)))),
                                      sorted(zip(dst, range(1, len(dst) + 1)))):
        if value != other:
            return None
        sigma[l] = m
    return tuple(sigma)


def word_census(
    rows: Sequence[int],
    cols: Sequence[int],
    conj_rows: Sequence[int],
    conj_cols: Sequence[int],
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The census of the word u[rows_l, cols_l] ... conj(u[conj_rows_l,
    conj_cols_l]) ... as (cycle type, count) pairs, for index tuples of one
    length >= 1; no other validation.  For each cycle type, the count is how
    many matching pairs (sigma, tau) have sigma^-1 * tau of that type,
    counted per coset (see the module docstring).  It depends on the shape
    of the word alone, never on the dimension or the index values, and is
    empty when the row or column multisets disagree.  Built once per
    canonical form of the word (``_canonical_word``); the tuple is shared
    between callers."""
    return _word_census(*_canonical_word(rows, cols, conj_rows, conj_cols))


def _canonical_word(
    rows: Sequence[int],
    cols: Sequence[int],
    conj_rows: Sequence[int],
    conj_cols: Sequence[int],
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """The sorted (row, column) pairs of the unconjugated and of the
    conjugated factors, the smaller side first."""
    plain = tuple(sorted(zip(rows, cols)))
    conj = tuple(sorted(zip(conj_rows, conj_cols)))
    return min((plain, conj), (conj, plain))


@lru_cache(maxsize=None)
def _word_census(
    plain: tuple[tuple[int, int], ...], conj: tuple[tuple[int, int], ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The census of the word with unconjugated (row, column) pairs ``plain``
    and conjugated pairs ``conj``, both sorted, as (cycle type, count)
    pairs; memoised per word, n-free."""
    rows, cols = zip(*plain)
    conj_rows, conj_cols = zip(*conj)
    # both sides are sorted, so the row matching, if any, is the identity
    # and rho = tau_0
    rho = _one_matching(cols, conj_cols)
    if rows != conj_rows or rho is None:
        return ()
    # Y n Z permutes the positions with equal (conj_row, conj_col) pairs
    weight = math.prod(map(math.factorial, Counter(conj).values()))
    # x * z * rho is conjugate to z * (rho * x): one compiled product per x
    types = cycle_types_of_products(
        young_subgroup_images(conj_cols),
        [compose_images(rho, x) for x in young_subgroup_images(conj_rows, conj)],
    )
    return tuple((lam, count * weight) for lam, count in Counter(types).items())


def entry_moment(spec: MomentSpec) -> Fraction:
    """Exact Haar average of the word described by ``spec``: its
    ``word_census`` weighed by the Weingarten table of degree k at dimension
    n, which is defined below the degree too.

    The value is always a real rational.  Requires k <= MAX_WORD_LENGTH; a
    mismatch in the row or column multisets returns 0 without touching the
    table.

    >>> entry_moment(MomentSpec(5, (1,), (1,), (1,), (1,)))
    Fraction(1, 5)
    """
    if spec.k > MAX_WORD_LENGTH:
        raise ValueError(f"word length {spec.k} above supported {MAX_WORD_LENGTH}")
    census = word_census(spec.rows, spec.cols, spec.conj_rows, spec.conj_cols)
    if not census:
        return Fraction(0)
    return wg_class_table(spec.k, spec.n).weigh(census)
