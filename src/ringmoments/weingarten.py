"""Weingarten function of the unitary group at finite dimension.

One engine, the characters of S_k, serves every exact quantity here.
``wg_character_table(k)`` holds the data that does not depend on the
dimension: for each partition lam of k its hook-length product H_lam, the
contents j - i of its cells (i, j), and the character values chi_lam(mu) on
every class mu, by Murnaghan-Nakayama run forward on beads, one column of
the table per class (``_character_columns``).  From it:

* ``wg_class_table`` / ``wg_exact``: the exact Weingarten values, by the
  character expansion (Collins-Sniady 2006)

      wg(mu) = sum over lam with at most n rows of
               chi_lam(mu) / (H_lam * C_lam(n)),   C_lam(n) = prod (n + content),

  defined for every k >= 1 and n >= 1.  Below the degree the shapes with
  more than n rows drop out, which is exactly what the entry moments of an
  n-dimensional Haar unitary need.  The table weighs a census of cycle
  types, such as an entry moment's, as one integer dot product
  (``ClassTable.weigh``).
* ``monotone_counts`` / ``wg_series``: the alternating series
  n^-k * sum_r (-1)^r c_r(mu) / n^r, where c_r counts the weakly monotone
  transposition words of length r with product of type mu.  They are the
  coefficients of the complete symmetric functions of the Jucys-Murphy
  elements, so (Matsumoto-Novak 2013)

      c_r(mu) = sum_lam chi_lam(mu) h_r(contents of lam) / H_lam,

  evaluated in integers over the lcm of the H_lam.  The series is truncated
  at a chosen order together with an explicit geometric bound on the tail.
* ``wg_bound`` / ``wg_alt_bounds``: closed-form magnitude bounds.

This module does no floating-point arithmetic except in ``wg_alt_bounds``,
whose first bound carries a fractional exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator

from .permutations import Permutation


def integer_partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of k as descending tuples, largest part first.

    >>> integer_partitions(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    def gen(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    return tuple(gen(k, k))


def class_representative(cycle_type: tuple[int, ...], k: int) -> Permutation:
    """A permutation of degree k with the given cycle type: consecutive blocks
    of points, each rotated."""
    if sum(cycle_type) != k:
        raise ValueError(f"cycle type {cycle_type} does not sum to {k}")
    images = []
    start = 1
    for length in cycle_type:
        block = list(range(start + 1, start + length)) + [start]
        images.extend(block)
        start += length
    return Permutation(tuple(images))


@lru_cache(maxsize=None)
def _character_columns(k: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """mu -> (chi_lam(mu) for lam in ``integer_partitions(k)``) for every
    class mu of S_k, by the Murnaghan-Nakayama rule run forward.

    A partition lam of at most k parts is its k beads lam_i + k - i
    (i = 1..k, lam padded with zeros), held as the bits of an int; adding a
    border strip of length r moves one bead r places up into a gap, with
    sign (-1)^(beads jumped).  chi_lam(mu) sums the signs over the ways to
    build lam from the empty partition by strips of lengths mu_1, mu_2, ...
    in any fixed order, so the column of mu is the column of mu without its
    last part with strips of that length added, and the columns share their
    prefixes.  Built once per degree.
    """
    columns: dict[tuple[int, ...], dict[int, int]] = {(): {(1 << k) - 1: 1}}

    def column(mu: tuple[int, ...]) -> dict[int, int]:
        if mu not in columns:
            strip = mu[-1]
            out: dict[int, int] = {}
            for beads, value in column(mu[:-1]).items():
                movable = beads & ~(beads >> strip)  # a bead with a gap r places up
                while movable:
                    bead = movable & -movable
                    movable ^= bead
                    moved = beads ^ bead ^ (bead << strip)
                    jumps = (beads & (bead << strip) - (bead << 1)).bit_count()
                    out[moved] = out.get(moved, 0) + (-value if jumps & 1 else value)
            columns[mu] = out
        return columns[mu]

    shapes = integer_partitions(k)
    beads = [
        sum(1 << (part + k - i) for i, part in enumerate(lam + (0,) * (k - len(lam)), 1))
        for lam in shapes
    ]
    return {mu: tuple(map(column(mu).get, beads, [0] * len(beads))) for mu in shapes}


@dataclass(frozen=True)
class Irrep:
    """The n-free data of the irreducible representation of S_k of shape
    ``shape``: its hook-length product, the contents j - i of its cells
    (i, j), and its character value on every class."""

    shape: tuple[int, ...]
    hook: int
    contents: tuple[int, ...]
    characters: dict[tuple[int, ...], int]


@lru_cache(maxsize=None)
def wg_character_table(k: int) -> tuple[Irrep, ...]:
    """One ``Irrep`` per partition of k, in ``integer_partitions`` order.

    Built once per degree; safe for concurrent reads once built.
    """
    if k < 1:
        raise ValueError("degree must be at least 1")
    columns = _character_columns(k)
    irreps = []
    for index, lam in enumerate(integer_partitions(k)):
        hook = 1
        contents = []
        for i, row in enumerate(lam):
            for j in range(row):
                leg = sum(1 for below in lam[i + 1 :] if below > j)
                hook *= row - j + leg
                contents.append(j - i)
        characters = {mu: column[index] for mu, column in columns.items()}
        irreps.append(Irrep(lam, hook, tuple(contents), characters))
    return tuple(irreps)


class ClassTable(dict):
    """Weingarten values by cycle type, mu -> Fraction, that also keep the
    integer numerators of the values over their common denominator, so
    ``weigh`` turns a census into one integer dot product and one Fraction."""

    def __init__(self, numerators: dict[tuple[int, ...], int], denominator: int):
        super().__init__((mu, Fraction(a, denominator)) for mu, a in numerators.items())
        self.numerators = numerators
        self.denominator = denominator

    def weigh(self, census: Iterable[tuple[tuple[int, ...], int]]) -> Fraction:
        """sum of count * wg(mu) over the census's (cycle type mu, count)
        pairs, as one integer dot product over the common denominator."""
        numerators = self.numerators
        return Fraction(sum(count * numerators[mu] for mu, count in census), self.denominator)


@lru_cache(maxsize=None)
def wg_class_table(k: int, n: int) -> ClassTable:
    """Exact Weingarten values at degree k and dimension n, one per cycle
    type, for every k >= 1 and n >= 1:

        wg(mu) = sum over lam with at most n rows of
                 chi_lam(mu) / (H_lam * prod over cells of (n + content)).

    For n >= k this is the unique solution of the orthogonality system
    sum_rho n^(#cycles(rho)) wg(type(rho^-1 pi)) = [pi == id]; below the
    degree, where that system is singular, it is the Moore-Penrose
    solution, which Haar entry moments at dimension n use.

    The numerators over the lcm of the per-shape denominators are kept
    beside the values, for ``ClassTable.weigh``.  Safe for concurrent reads
    once built; memoized per (k, n).
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    # the shapes with more than n rows get no denominator and weight 0
    denominators = [
        irrep.hook * math.prod(map(n.__add__, irrep.contents)) if len(irrep.shape) <= n else 0
        for irrep in wg_character_table(k)
    ]
    common = math.lcm(*filter(None, denominators))
    scales = [common // d if d else 0 for d in denominators]
    numerators = {mu: sum(map(mul, column, scales)) for mu, column in _character_columns(k).items()}
    return ClassTable(numerators, common)


def monotone_counts(k: int, r_max: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """counts[mu][r] = c_r(mu), the number of words (s_1 t_1) ... (s_r t_r)
    with s_j < t_j and the t_j weakly increasing that multiply to a given
    permutation of cycle type mu, for r = 0 .. r_max.

    c_r(mu) = sum_lam chi_lam(mu) h_r(contents of lam) / H_lam, summed in
    integers over the lcm of the H_lam.  Zero whenever r is below the
    transposition distance or has the wrong parity.

    >>> monotone_counts(3, 3)[(2, 1)]
    (0, 1, 0, 5)
    """
    if r_max < 0:
        raise ValueError("word length must be nonnegative")
    irreps = wg_character_table(k)
    common = math.lcm(*(irrep.hook for irrep in irreps))
    totals = {mu: [0] * (r_max + 1) for mu in integer_partitions(k)}
    for irrep in irreps:
        # complete homogeneous h_0 .. h_{r_max} of the contents
        h = [1] + [0] * r_max
        for c in irrep.contents:
            for r in range(1, r_max + 1):
                h[r] += c * h[r - 1]
        scale = common // irrep.hook
        for mu, row in totals.items():
            weight = irrep.characters[mu] * scale
            for r in range(r_max + 1):
                row[r] += weight * h[r]
    return {mu: tuple(t // common for t in row) for mu, row in totals.items()}


def wg_exact(k: int, n: int, pi: Permutation) -> Fraction:
    """Exact rational Weingarten value at degree k, dimension n.

    >>> wg_exact(2, 3, Permutation((1, 2)))
    Fraction(1, 8)
    >>> wg_exact(2, 3, Permutation((2, 1)))
    Fraction(-1, 24)
    """
    if pi.degree != k:
        raise ValueError(f"permutation degree {pi.degree} does not match k={k}")
    return wg_class_table(k, n)[pi.cycle_type()]


@dataclass(frozen=True)
class WeingartenValue:
    """A truncated series evaluation next to the exact value.

    ``tail_bound`` bounds |exact - series_partial| and is None when no finite
    geometric bound applies (k^2 >= 2n).
    """

    k: int
    n: int
    pi: Permutation
    series_partial: Fraction
    r_max: int
    tail_bound: Fraction | None
    exact: Fraction


def _geometric_tail(k: int, n: int, m: int) -> Fraction | None:
    """(2 / (n^k k^2)) x^m / (1 - x) with x = k^2 / (2n), the geometric
    majorant of |wg| summed from order m on; None when k^2 >= 2n."""
    x = Fraction(k * k, 2 * n)
    return Fraction(2, n**k * k * k) * x**m / (1 - x) if x < 1 else None


def wg_series(
    k: int, n: int, pi: Permutation, r_max: int | None = None
) -> WeingartenValue:
    """Truncated alternating series for the Weingarten value.

    series_partial = n^-k * sum_{r=0}^{r_max} (-1)^r c_r(pi) / n^r with c_r
    the weakly monotone transposition word count (``monotone_counts``).  The
    discarded tail is at most ``_geometric_tail(k, n, r_max + 1)``, finite
    exactly when k^2 < 2n.

    >>> v = wg_series(2, 10, Permutation((2, 1)), r_max=3)
    >>> v.series_partial
    Fraction(-101, 100000)
    """
    if pi.degree != k:
        raise ValueError(f"permutation degree {pi.degree} does not match k={k}")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if r_max is None:
        r_max = k * k + 4
    if r_max < 0:
        raise ValueError("truncation order must be nonnegative")
    counts = monotone_counts(k, r_max)[pi.cycle_type()]
    partial = Fraction(
        sum((-1) ** r * c * n ** (r_max - r) for r, c in enumerate(counts)),
        n ** (k + r_max),
    )
    # no transpositions exist at k = 1: the series terminates at r = 0
    tail = Fraction(0) if k == 1 else _geometric_tail(k, n, r_max + 1)
    return WeingartenValue(k, n, pi, partial, r_max, tail, wg_exact(k, n, pi))


@dataclass(frozen=True)
class WgBound:
    """Closed-form bound on |wg| at (k, n); ``case`` records which branch."""

    k: int
    n: int
    distance: int
    value: Fraction
    case: str


def wg_bound(k: int, n: int, pi: Permutation) -> WgBound:
    """Magnitude bound on the Weingarten value, valid whenever k^2 < 2n.

    Identity:      |wg| <= 1/n^k + (k^2 / (2 n^(k+2))) / (1 - k^4 / (4 n^2)).
    Non-identity:  |wg| <= (2 / (n^k k^2)) * (k^2 / (2n))^d / (1 - k^2 / (2n)),
    with d the transposition distance of pi.
    """
    if pi.degree != k:
        raise ValueError(f"permutation degree {pi.degree} does not match k={k}")
    if k * k >= 2 * n:
        raise ValueError(f"bound needs k^2 < 2n; got k={k}, n={n}")
    d = pi.transposition_distance()
    if d == 0:
        value = Fraction(1, n**k) + (
            Fraction(k * k, 2 * n ** (k + 2))
            / (1 - Fraction(k**4, 4 * n * n))
        )
        return WgBound(k, n, d, value, "identity")
    return WgBound(k, n, d, _geometric_tail(k, n, d), "non-identity")


@dataclass(frozen=True)
class AltBounds:
    """Alternative magnitude bounds; a member is None when its own
    applicability condition fails."""

    k: int
    n: int
    j: int
    power_bound: float | None
    catalan_bound: float | None


def wg_alt_bounds(k: int, n: int, pi: Permutation, j: int) -> AltBounds:
    """Two alternative bounds on |wg|.

    * power bound: n^(-k - d(1 - 2/j)), applicable when j >= 2 and k^j <= n.
      The source leaves the prefactor an unspecified absolute constant; as
      in ``BoundReport``, the report does not apply it, so the value is the
      bound's core, never a certified bound.
    * Catalan bound: (3 * catalan(k-1) / 2) * n^(-k - d), applicable when
      k^(3/2) <= n.
    """
    if pi.degree != k:
        raise ValueError(f"permutation degree {pi.degree} does not match k={k}")
    if j < 2:
        raise ValueError("exponent parameter j must be at least 2")
    d = pi.transposition_distance()
    power: float | None = None
    if k**j <= n:
        power = float(n) ** -(k + d * (1 - 2 / j))
    catalan: float | None = None
    if k**3 <= n * n:
        cat = math.comb(2 * (k - 1), k - 1) // k
        catalan = float(Fraction(3 * cat, 2) / Fraction(n ** (k + d)))
    return AltBounds(k, n, j, power, catalan)
