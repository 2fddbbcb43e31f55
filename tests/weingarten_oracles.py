"""Reference constructions that share nothing with the production engines:

* the Weingarten table from a census of S_k and a Gaussian solve of the
  orthogonality system, next to the character engine of
  ``ringmoments.weingarten``;
* the monotone transposition word counts from a dynamic program over words;
* the entry census pair by pair, over every matching pair (sigma, tau),
  next to the coset count of ``haar_moments.word_census``;
* the route-B census word by word, over every (phi, alpha, dressing), next
  to the conjugacy fold of ``exact_moments._route_b_census``;
* the counting-lemma count word by word on ``Permutation`` objects, next to
  the folded census read by ``exact_moments.verify_counting_lemma``;
* the injective pattern weights by Moebius inversion on the set-partition
  lattice, next to the closed forms of ``exact_moments.composition_census``
  and the hook sums.

``transposition`` and ``full_cycle`` build the named permutations the tests
use from ``Permutation.from_cycles``.

All of them enumerate S_k, products of its subsets or set partitions, so
they are meant for small degrees only.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from ringmoments.exact_moments import equality_patterns
from ringmoments.haar_moments import MomentSpec
from ringmoments.permutations import (
    Permutation,
    compose_images,
    cycle_type_of_product,
    enumerate_sk0,
    invert_images,
)
from ringmoments.profiles import SingularProfile
from ringmoments.weingarten import class_representative, integer_partitions


@lru_cache(maxsize=None)
def _orthogonality_counts(
    k: int,
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]]:
    """For each (target class mu, product class lam), the census
    {j: #{rho in S_k with j cycles and rho^-1 * rep(mu) in class lam}}."""
    reps = {mu: class_representative(mu, k).images for mu in integer_partitions(k)}
    counts: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]] = {}
    identity = tuple(range(1, k + 1))
    for rho in itertools.permutations(identity):
        inv = invert_images(rho)
        j = len(cycle_type_of_product(rho, identity))
        for mu, rep in reps.items():
            lam = cycle_type_of_product(inv, rep)
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
        census[cycle_type_of_product(p, range(1, len(p) + 1))] += count
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


def transposition(k: int, a: int, b: int) -> Permutation:
    """The swap (a b) of degree k; equal points give the identity."""
    return Permutation.from_cycles(k, [(a, b)])


def full_cycle(k: int) -> Permutation:
    """The k-cycle 1 -> 2 -> ... -> k -> 1."""
    return Permutation.from_cycles(k, [range(1, k + 1)])


def counting_lemma_distances(k: int, l1: int, l2: int, alpha: Permutation) -> Counter:
    """Transposition distance -> number of endpoint-fixing phi whose word
    c^-1 phi^-1 alpha^-1 c (l2 k-1) (1 l1) phi has that distance, each word
    formed in full as a ``Permutation``."""
    c = full_cycle(k)
    head = c.inverse()
    tail = c * transposition(k, l2, k - 1) * transposition(k, 1, l1)
    mid = alpha.inverse() * tail
    return Counter(
        (head * phi.inverse() * mid * phi).transposition_distance() for phi in enumerate_sk0(k)
    )


@lru_cache(maxsize=None)
def set_partition_terms(p: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """(mu(0, pi), blocks of pi) for every set partition pi of {0, ..., p-1},
    with mu(0, pi) = prod over blocks B of (-1)^(|B|-1) (|B|-1)! the Moebius
    function of the set-partition lattice."""
    def partitions(items: list[int]) -> Iterator[list[list[int]]]:
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            yield [[first]] + part
            for j in range(len(part)):
                yield part[:j] + [[first] + part[j]] + part[j + 1 :]

    terms = []
    for part in partitions(list(range(p))):
        mu = math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in part)
        terms.append((mu, tuple(tuple(b) for b in part)))
    return tuple(terms)


def power_sums(profile: SingularProfile, k: int) -> list[Fraction]:
    """p[m] = sum_i s_i^(2m) for m = 0..k."""
    squares = [v * v for v in profile.values]
    sums = [Fraction(profile.n)]
    powers = [Fraction(1)] * len(squares)
    for _ in range(k):
        powers = [x * sq for x, sq in zip(powers, squares)]
        sums.append(sum(powers, Fraction(0)))
    return sums


def ordered_injective_weight(sums: Sequence[Fraction], sizes: Sequence[int]) -> Fraction:
    """sum over ordered tuples of distinct value positions (v_1, ..., v_p) of
    prod_j s_{v_j}^(2 * sizes_j), exactly, from the power sums ``sums``.

    Moebius inversion on the lattice of set partitions of the p slots: the
    unrestricted sum over a partition pi (slots in one block share a
    position) is prod over blocks B of p[sum_{j in B} sizes_j], and the
    injective sum is the sum over pi of mu(0, pi) times that product.  At
    most Bell(p) terms; zero whenever p exceeds the number of values.
    """
    total = Fraction(0)
    for mu, blocks in set_partition_terms(len(sizes)):
        term = Fraction(mu)
        for block in blocks:
            term *= sums[sum(sizes[j] for j in block)]
        total += term
    return total


def weighted_patterns(
    k: int, profile: SingularProfile
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], Fraction]]:
    """(pattern, block sizes, injective weight) for every equality pattern of
    k positions with at most n blocks."""
    sums = power_sums(profile, k)
    weights: dict[tuple[int, ...], Fraction] = {}
    for pattern in equality_patterns(k):
        blocks = max(pattern)
        if blocks > profile.n:
            continue
        sizes = tuple(pattern.count(b) for b in range(1, blocks + 1))
        key = tuple(sorted(sizes))
        if key not in weights:
            weights[key] = ordered_injective_weight(sums, key)
        yield pattern, sizes, weights[key]
