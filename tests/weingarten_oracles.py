"""Reference constructions that share nothing with the production engines:

* the Weingarten table from a census of S_k and a Gaussian solve of the
  orthogonality system, next to the character engine of
  ``ringmoments.weingarten``;
* the monotone transposition word counts from a dynamic program over words;
* the entry census pair by pair, over every matching pair (sigma, tau),
  next to the coset count of ``haar_moments.entry_census``;
* the route-B census word by word, over every (phi, alpha, dressing), next
  to the conjugacy fold of ``exact_moments._route_b_census``.

All of them enumerate S_k or products of its subsets, so they are meant for
small degrees only.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from ringmoments.haar_moments import MomentSpec
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


def cycle_type_census(images) -> Counter:
    """Fold a multiset of permutations (image tuple -> multiplicity) into
    cycle type -> multiplicity."""
    census: Counter = Counter()
    for p, count in images.items():
        census[cycle_type_of_images(p)] += count
    return census


def _matchings(src, dst) -> list[tuple[int, ...]]:
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


def pairwise_entry_census(spec: MomentSpec) -> Counter:
    """The entry census of ``spec`` with every matching pair (sigma, tau)
    enumerated one by one: cycle type of sigma^-1 * tau -> number of pairs.
    (k!)^2 pairs for a word with every index equal."""
    sigmas = _matchings(spec.rows, spec.conj_rows)
    if not sigmas:
        return Counter()
    taus = _matchings(spec.cols, spec.conj_cols)
    products = Counter(
        compose_images(inv, tau) for inv in map(invert_images, sigmas) for tau in taus
    )
    return cycle_type_census(products)


def unfolded_route_b_census(statistic: str, pattern: tuple[int, ...]) -> Counter:
    """Route B word by word: the cycle types of

        uu: c^-1 phi^-1 alpha^-1 c (l2 k-1) (1 l1) phi, restricted to {1..k-1},
            over endpoint-fixing phi, l1 with i[l1] == i[1] and l2 with
            i[l2 + 1] == i[k];
        sq: c^-1 phi^-1 alpha^-1 c phi over phi in S_k,

    with c the full cycle 1 -> 2 -> ... -> k -> 1 and alpha over the
    pattern's stabilizer (endpoint-fixing for uu), each word formed in full.
    Returns None for uu when some word moves the point k."""
    k = len(pattern)
    identity = tuple(range(1, k + 1))
    if statistic == "sq":
        phis = list(itertools.permutations(identity))
        dressings = [identity]
    else:
        phis = [(1,) + mid + (k,) for mid in itertools.permutations(range(2, k))]
        dressings = []
        for l1 in range(1, k):
            if pattern[l1 - 1] != pattern[0]:
                continue
            for l2 in range(1, k):
                if pattern[l2] != pattern[k - 1]:
                    continue
                swap_1 = list(identity)
                swap_1[0], swap_1[l1 - 1] = l1, 1
                swap_2 = list(identity)
                swap_2[l2 - 1], swap_2[k - 2] = k - 1, l2
                dressings.append(compose_images(swap_2, swap_1))
    alphas = [
        a for a in phis if all(pattern[a[l] - 1] == pattern[l] for l in range(k))
    ]
    c = identity[1:] + (1,)
    c_inv = invert_images(c)
    words: Counter = Counter()
    for phi in phis:
        phi_inv = invert_images(phi)
        for alpha in alphas:
            for dressing in dressings:
                word = c_inv
                for factor in (phi_inv, invert_images(alpha), c, dressing, phi):
                    word = compose_images(word, factor)
                words[word] += 1
    if statistic == "sq":
        return cycle_type_census(words)
    if any(word[k - 1] != k for word in words):
        return None
    return cycle_type_census(Counter({word[: k - 1]: m for word, m in words.items()}))
