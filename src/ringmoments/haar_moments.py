"""Exact mixed moments of Haar unitary matrix entries.

For U Haar on the n x n unitary group, the average of a balanced word

    u[r_1, c_1] ... u[r_k, c_k] * conj(u[r'_1, c'_1]) ... conj(u[r'_k, c'_k])

equals the double sum over permutations sigma, tau in S_k of

    [r_l == r'_{sigma(l)} for all l] * [c_l == c'_{tau(l)} for all l]
      * wg(sigma^-1 * tau)

with wg the exact Weingarten value at degree k and dimension n.  Unbalanced
words (row or column multisets that disagree) average to zero.

The delta constraints are resolved by value classes: a matching permutation
decomposes into independent bijections between the positions holding each
value, so only genuine matchings are enumerated.  The matching pairs are
counted by the cycle type of sigma^-1 * tau (``entry_census``); that census
depends on the index equalities alone, and the moment is the census weighed
by the table at n.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .montecarlo import MomentEstimate, _finish_estimate, haar_batch, rng_stream
from .permutations import compose_images, cycle_type_census, invert_images
from .weingarten import wg_class_table

# The matchings are enumerated one by one: a word of length k with every
# index equal has k! of them on each side, so the census grows as (k!)^2.
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


def _matchings(src: Sequence[int], dst: Sequence[int]) -> list[tuple[int, ...]]:
    """All permutations sigma (as image tuples) with src[l] == dst[sigma(l)]
    for every position l; empty when the multisets disagree."""
    if Counter(src) != Counter(dst):
        return []
    src_positions: dict[int, list[int]] = {}
    dst_positions: dict[int, list[int]] = {}
    for pos, v in enumerate(src, 1):
        src_positions.setdefault(v, []).append(pos)
    for pos, v in enumerate(dst, 1):
        dst_positions.setdefault(v, []).append(pos)
    values = sorted(src_positions)
    per_value = [itertools.permutations(dst_positions[v]) for v in values]
    out = []
    for combo in itertools.product(*per_value):
        images = [0] * len(src)
        for v, targets in zip(values, combo):
            for src_pos, dst_pos in zip(src_positions[v], targets):
                images[src_pos - 1] = dst_pos
        out.append(tuple(images))
    return out


def entry_census(spec: MomentSpec) -> Counter:
    """The Weingarten census of ``spec``: for each cycle type, how many
    matching pairs (sigma, tau) have sigma^-1 * tau of that type.

    The census depends on the index equalities alone, never on the dimension
    ``spec.n``; it is empty when the row or column multisets disagree.
    """
    sigmas = _matchings(spec.rows, spec.conj_rows)
    if not sigmas:
        return Counter()
    taus = _matchings(spec.cols, spec.conj_cols)
    products = Counter(
        compose_images(inv, tau) for inv in map(invert_images, sigmas) for tau in taus
    )
    return cycle_type_census(products)


def census_value(census: Mapping[tuple[int, ...], int], table) -> Fraction:
    """sum over the census of multiplicity * Weingarten value of the type."""
    return sum((count * table[lam] for lam, count in census.items()), Fraction(0))


def entry_moment(spec: MomentSpec) -> Fraction:
    """Exact Haar average of the word described by ``spec``: its
    ``entry_census`` weighed by the Weingarten table of degree k at dimension
    n, which is defined below the degree too.

    The value is always a real rational.  Requires k <= MAX_WORD_LENGTH; a
    mismatch in the row or column multisets returns 0 without touching the
    table.

    >>> entry_moment(MomentSpec(5, (1,), (1,), (1,), (1,)))
    Fraction(1, 5)
    """
    if spec.k > MAX_WORD_LENGTH:
        raise ValueError(f"word length {spec.k} above supported {MAX_WORD_LENGTH}")
    census = entry_census(spec)
    if not census:
        return Fraction(0)
    return census_value(census, wg_class_table(spec.k, spec.n))


def mc_entry_moment(spec: MomentSpec, samples: int, seed: int) -> MomentEstimate:
    """Monte-Carlo check of ``entry_moment``: empirical mean of the real part
    of the sampled word (the exact value is real; the imaginary part averages
    to zero and is dropped)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = rng_stream(seed)
    vals = np.empty(samples, dtype=float)
    done = 0
    while done < samples:
        b = min(4096, samples - done)
        u = haar_batch(spec.n, b, rng)
        word = np.ones(b, dtype=complex)
        for r, c in zip(spec.rows, spec.cols):
            word = word * u[:, r - 1, c - 1]
        for r, c in zip(spec.conj_rows, spec.conj_cols):
            word = word * np.conj(u[:, r - 1, c - 1])
        vals[done : done + b] = word.real
        done += b
    return _finish_estimate(vals, "entry_moment", spec.k, spec.n)
