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

The matchings are cosets.  With both sides' (row, column) pairs sorted,
the rows agree position by position when the row multisets do, so the row
matchings are the sigma in the Young subgroup Y of the rows.  With tau_0
one column matching, the column matchings are the tau = tau_0 * z with z in
the Young subgroup Z of the unconjugated columns.  So sigma^-1 * tau is
y * tau_0 * z with y = sigma^-1, which has the cycle type of z * y * tau_0,
and each product z * y arises from exactly |Y n Z| pairs (z, y).  The
census therefore runs over ZY once, all of Z times one y per right coset
(Y n Z) y (``permutations.young_products``), with the weight |Y n Z|:
|Y| |Z| / |Y n Z| products instead of |Y| |Z|, and k! instead of (k!)^2 for
a word with every index equal.  Y and Z depend on the unconjugated side
only, so the products are shared by every word with that side.

The census is a function of the word's shape, so it is compiled once per
shape.  Permuting the unconjugated factors by pi turns each matching pair
(sigma, tau) into (sigma pi, tau pi), so sigma^-1 * tau becomes
pi^-1 sigma^-1 tau pi, of the same cycle type; permuting the conjugated
factors by pi turns it into (pi^-1 sigma, pi^-1 tau) and leaves sigma^-1 * tau
unchanged.  Both maps are bijections on the matching pairs.  Swapping the
two sides turns each matching pair into (sigma^-1, tau^-1), and
sigma tau^-1 is conjugate to (sigma^-1 tau)^-1, of the same cycle type.  So
the census of a word equals the census of its canonical form, each side's
(row, column) pairs sorted (``word_side``) and the smaller side taken as
unconjugated, and ``side_census`` memoises that form's census.  The form is
only a cache key: words of one shape may get different keys (relabelled
values do), which costs a second build and never a wrong census, since each
key's census is computed from the word it names.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .permutations import cycle_types_of_products, young_products
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
    canonical form of the word (``side_census``); the tuple is shared
    between callers."""
    # each side as ``word_side`` forms it, written out on this warm path
    return side_census(tuple(sorted(zip(rows, cols))), tuple(sorted(zip(conj_rows, conj_cols))))


Side = tuple[tuple[int, int], ...]


def word_side(rows: Sequence[int], cols: Sequence[int]) -> Side:
    """One side of a word as ``side_census`` takes it: its (row, column)
    pairs, sorted."""
    return tuple(sorted(zip(rows, cols)))


def side_census(plain: Side, conj: Side) -> tuple[tuple[tuple[int, ...], int], ...]:
    """``word_census`` of the word with unconjugated side ``plain`` and
    conjugated side ``conj`` (``word_side``); memoised per canonical form,
    the smaller side taken as unconjugated."""
    return _word_census(plain, conj) if plain <= conj else _word_census(conj, plain)


@lru_cache(maxsize=None)
def _word_census(plain: Side, conj: Side) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The census of the word with sides ``plain`` and ``conj``, as
    (cycle type, count) pairs; memoised per word, n-free."""
    rows, cols = zip(*plain)
    conj_rows, conj_cols = zip(*conj)
    # sorted sides: the row multisets agree exactly when the rows agree
    # position by position (see the module docstring)
    if rows != conj_rows:
        return ()
    # tau_0: each column goes to a position of its value among the
    # conjugated columns, each such position used once
    slots: dict[int, list[int]] = {}
    for m, value in enumerate(conj_cols, 1):
        if value in slots:
            slots[value].append(m)
        else:
            slots[value] = [m]
    try:
        tau_0 = [slots[value].pop() for value in cols]
    except (KeyError, IndexError):  # the column multisets disagree
        return ()
    products, weight = young_products(rows, cols)
    census: dict[tuple[int, ...], int] = {}
    for lam in cycle_types_of_products(products, tau_0):
        census[lam] = census.get(lam, 0) + weight
    return tuple(census.items())


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
