"""Reference constructions that share nothing with the character engine of
``ringmoments.weingarten``: the Weingarten table from a census of S_k and a
Gaussian solve of the orthogonality system, and the monotone transposition
word counts from a dynamic program over words.  Both enumerate S_k, so they
are meant for small degrees only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from ringmoments.permutations import (
    compose_images,
    cycle_count_of_images,
    cycle_type_of_images,
    invert_images,
)
from ringmoments.weingarten import class_representative, integer_partitions


@lru_cache(maxsize=None)
def _orthogonality_counts(
    k: int,
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]]:
    """For each (target class mu, product class lam), the census
    {j: #{rho in S_k with j cycles and rho^-1 * rep(mu) in class lam}}."""
    reps = {mu: class_representative(mu, k).images for mu in integer_partitions(k)}
    counts: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]] = {}
    for rho in itertools.permutations(range(1, k + 1)):
        inv = invert_images(rho)
        j = cycle_count_of_images(rho)
        for mu, rep in reps.items():
            lam = cycle_type_of_images(compose_images(inv, rep))
            bucket = counts.setdefault((mu, lam), {})
            bucket[j] = bucket.get(j, 0) + 1
    return counts


def _solve_linear_rational(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over Fraction with first-nonzero pivoting."""
    size = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def census_class_table(k: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Weingarten values from the orthogonality system

        sum_rho n^(#cycles(rho)) * wg(type(rho^-1 * pi)) = [pi == id]

    for every pi in S_k, folded to one equation per class.  Needs n >= k,
    where the system is invertible."""
    if n < k:
        raise ValueError(f"dimension {n} below degree {k}: system is singular")
    parts = integer_partitions(k)
    counts = _orthogonality_counts(k)
    matrix = [
        [Fraction(sum(c * n**j for j, c in counts.get((mu, lam), {}).items())) for lam in parts]
        for mu in parts
    ]
    rhs = [Fraction(1 if mu == (1,) * k else 0) for mu in parts]
    return dict(zip(parts, _solve_linear_rational(matrix, rhs)))


@lru_cache(maxsize=None)
def monotone_count_table(k: int, r_max: int) -> tuple[dict[tuple[int, ...], int], ...]:
    """table[r][images] = number of weakly monotone transposition words of
    length r multiplying to the permutation with those images.

    Dynamic programming over (current product, floor for the next larger
    point); appending (s t) on the right multiplies the product on the right.
    """
    identity = tuple(range(1, k + 1))
    pairs = [(s, t) for t in range(2, k + 1) for s in range(1, t)]
    levels: list[dict[tuple[int, ...], int]] = [{identity: 1}]
    frontier: dict[tuple[tuple[int, ...], int], int] = {(identity, 0): 1}
    for _ in range(r_max):
        nxt: dict[tuple[tuple[int, ...], int], int] = {}
        for (img, floor), cnt in frontier.items():
            for s, t in pairs:
                if t < floor:
                    continue
                swapped = list(img)
                swapped[s - 1], swapped[t - 1] = img[t - 1], img[s - 1]
                key = (tuple(swapped), t)
                nxt[key] = nxt.get(key, 0) + cnt
        frontier = nxt
        level: dict[tuple[int, ...], int] = {}
        for (img, _), cnt in frontier.items():
            level[img] = level.get(img, 0) + cnt
        levels.append(level)
    return tuple(levels)
