"""Exact expected trace moments of A = U T V with independent Haar factors
and T = diag(s_1, ..., s_n).

Two statistics are computed, both exactly over rationals, at any order
k >= 1 and any dimension n:

* trace_moment_uu:  E trace(A^k (A^k)^*)
* trace_moment_sq:  E |trace(A^k)|^2

Hook sums
---------
Write x_i = s_i^2.  For r = 0 .. min(k, n) - 1 let h_r = (k-r, 1^r) be the
r-th hook, H_r = k (k-r-1)! r! its hook-length product,

    C_r(n) = prod_{j=0}^{k-r-1} (n + j) * prod_{i=1}^{r} (n - i)

its content product, and s_{h_r}(x) its Schur polynomial, given by the hook
case of the Jacobi-Trudi identity (Macdonald, Symmetric Functions, I.3)

    s_{h_r} = sum_{j=0}^{r} (-1)^j h_{k-r+j}(x) e_{r-j}(x).

Added up, the sums of two neighbouring hooks cancel to one term, which is
Pieri's rule for hooks (Macdonald I.5):

    h_{k-r}(x) e_r(x) = s_{h_r}(x) + s_{h_{r-1}}(x),    1 <= r < k,

so s_{h_0} = h_k and s_{h_r} = h_{k-r} e_r - s_{h_{r-1}}, one product per
hook; the evaluation uses this recursion.

Hooks with more than n rows are left out: their Schur polynomials vanish in
n variables.  Then

    E |trace(A^k)|^2        = sum_r H_r s_{h_r}(x) / C_r(n),
    E trace(A^k (A^k)^*)    = sum_r (H_r / k) (n + k - 1 - 2r) s_{h_r}(x) / C_r(n).

Derivation of sq.  trace(A^k) = trace((T W)^k) with W = V U, which is Haar.
The power sum p_k = sum_lam chi_lam(c_k) s_lam expands the trace of a k-th
power in Schur characters, and by Murnaghan-Nakayama chi_lam of a k-cycle
is (-1)^r on the hook h_r and 0 off the hooks, so
trace((T W)^k) = sum_r (-1)^r trace rho_{h_r}(T W), with rho_lam the
polynomial representation of GL_n of highest weight lam (0 when lam has more
than n rows).  Schur orthogonality for the Haar measure,
E rho_lam(W)_{ab} conj(rho_mu(W)_{cd}) = [lam = mu][a = c][b = d] / d_lam(n),
removes the cross terms and leaves
E |trace rho_lam(T) rho_lam(W)|^2 = trace rho_lam(T T^*) / d_lam(n)
= s_lam(x) / d_lam(n).  The hook-content formula d_lam(n) = C_lam(n) / H_lam
gives the sq sum.  The same result follows from the character expansion of
the Weingarten function (Collins-Sniady 2006) summed over conjugacy classes.

Derivation of uu.  trace(A^k (A^k)^*) = ||B^k||_F^2 with B = T W, since A
is unitarily similar to T W.  For the matrix unit E_ba,
(B^k)_{ab} = (1/k) d/dt trace((B (I + t E_ba))^k) at t = 0, and the hook
expansion of the power sum above gives

    (B^k)_{ab} = (1/k) sum_r (-1)^r trace(rho_r(T) rho_r(W) drho_r(E_ba)),

with rho_r = rho_{h_r} and drho_r its Lie-algebra action.  Schur
orthogonality removes the cross terms, as for sq, and gives
E |trace(rho_lam(W) Y)|^2 = ||Y||_F^2 / d_lam(n).  With
drho(E_ba)^* = drho(E_ab) the sum over a and b becomes

    E ||B^k||_F^2 = (1/k^2) sum_r trace(rho_r(T T^*) K_r) / d_{h_r}(n),
    K_r = sum_{a,b} drho_r(E_ab) drho_r(E_ba),

and K_r is the quadratic Casimir of gl_n, which acts on the irreducible
rho_lam as the scalar

    c_lam = sum_i lam_i (lam_i + n + 1 - 2i) = k n + 2 sum(contents of lam).

The contents of h_r are 0, 1, ..., k-r-1 along its row and -1, ..., -r down
its column, so 2 sum(contents) = k (k - 1 - 2r) and
c_{h_r} = k (n + k - 1 - 2r), a closed form with no character table.  With
d_lam(n) = C_lam(n) / H_lam this is the uu sum.  Inside the census orders
``_certify`` proves both sums a second, independent way before any answer
is returned (see below).

Positivity.  Every hook coefficient is positive: 2r <= 2 min(k, n) - 2 <
n + k - 1, and every factor of C_r(n) is positive for r < n.  Schur
polynomials have nonnegative monomial coefficients (Kostka numbers), so
both moments are polynomials in x with nonnegative coefficients, and
neither falls when one s_i rises.

Evaluation is in integers.  The profile stores its entries as integer
numerators over one common denominator, so the x_i are the squared
numerators over D, the squared denominator, with no conversion.  e_j and
h_j of the squared numerators come from O(n k) integer running sums over
the variables, one ``itertools.accumulate`` per order, and the Schur
polynomials from the Pieri recursion.  The coefficients are integer
numerators over one denominator, memoised once per (statistic, k, n)
together with their certificate (``_certify``, below), and a single
Fraction is built at the end.

Certification by the Weingarten census
--------------------------------------
Each moment also expands as sum_i s_{i_1}^2 ... s_{i_k}^2 * (inner average),
where i runs over index tuples in {1..n}^k and the inner average (``f_i`` for
the uu statistic, ``g_i`` for the sq statistic) is a sum of Haar entry
moments of the unitary factor alone.

Every inner average is a sum of Weingarten values, and which cycle types
enter that sum, with what multiplicity, depends only on the equality pattern
of the index tuple, never on n or on the profile.  ``route_censuses``
compiles that integer census once per (statistic, pattern), along two
independent routes:

* route A counts the matching pairs of the entry moments of the word pairs
  that the index reorderings make of the tuple: one word per stabilizer
  coset, that is one per distinct rearrangement of the tuple
  (``_rearrangements``).  A word's census depends on its conjugated factors
  only through their sorted (row, column) pairs, so the rearrangements are
  tallied per such side, once per set of letters (``_rearranged_sides``;
  for sq only the words that start with one letter, since a rotated word
  has the same side), and each side's census, counted per coset of the
  matchings and built once per canonical form of the word
  (``haar_moments.side_census``), is looked up once per pattern and summed
  as integers times its tally.  The pattern is counted in the form that
  shares the most with other patterns (``_route_a_word``): its values
  renamed by multiplicity, and for uu reversed when that gives the smaller
  side, since the reversed pattern's words are the transposes of its own,
  with the same censuses,
* route B pushes the delta constraints through the Weingarten sum and counts
  the conjugation-and-transposition dressed words
  w = c^-1 phi^-1 alpha^-1 c d phi it lands on (c the full cycle, alpha a
  stabilizer element, d the dressing, phi a reordering).  Cycle type is a
  class function, and conjugating by phi turns w into gamma * beta with
  gamma = phi c^-1 phi^-1 and beta = alpha^-1 c d.  The census of
  gamma * beta over the pattern-free set of gamma is memoised; conjugating
  beta by the universe permutes that set, so the census depends on beta
  only through its conjugacy class in the universe, and a pattern's census
  is the sum over its multiset of beta tallied by class
  (``_class_representative``; for sq, whose universe is all of S_k, by
  cycle type), one sum per dressing memoised per stabilizer and dressing
  (``_dressed_census``), which the uu patterns with one middle share.  The
  uu words must fix the endpoint k; every uu reordering phi fixes k, so w
  fixes k exactly when gamma * beta does, and the check on the conjugates
  is the same check, after which gamma * beta is a permutation of
  {1..k-1} and its cycle type is read in S_{k-1}.  Route A never uses
  this fold.

The two censuses are compared as integer vectors, which checks the
derivations at every n at once.  A disagreement raises ``CrossCheckError``;
it would mean the two derivations do not describe the same quantity, so no
answer is returned in that case.  An inner average at dimension n is then
the census weighed by the degree-k Weingarten table at n
(``ClassTable.weigh``), which is defined at every n >= 1, below the degree
too; the two routes' censuses being equal, one weighing serves both.

Folding the n^k outer sum over equality patterns gives
sum_lam aut(lam) S_lam(n) m_lam(x) over partitions lam of k with at most n
parts, with S_lam(n) the sum of the inner averages of the patterns whose
block sizes form lam.  ``_certify`` checks, once per (statistic, k, n), at
every n inside the census orders (``_CENSUS_ORDERS``), that this is the
hook sum coefficient by coefficient in the monomial basis, which proves the
two derivations the same polynomial in x for every profile of length n.
A mismatch raises ``CrossCheckError``.

The counting chain
------------------
``composition_census`` evaluates its first links in closed form from the
same integer e_j and h_j running sums the hook sums use:

    L0 = p_1(x)^2 (k-2)! h_{k-2}(x),    L1 = k! h_k(x).

For a tuple i of length m, sum_i x^i prod_v m_v(i)! = m! h_m(x), with
m_v(i) the multiplicity of the value v in i: each monomial x^a of degree m
is hit by m! / prod_v a_v! tuples.  The endpoint-fixing symmetries of i
permute positions 2..k-1 only, so their number is prod_v m_v! over those
positions; the endpoints contribute p_1^2 and the middle (k-2)! h_{k-2}.
L1 is the sum at m = k.

``verify_counting_lemma`` reads its count off route B's folded uu census.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, permutations
from operator import mul
from typing import Iterator, Literal, Sequence

from .haar_moments import Side, side_census, word_side
from .permutations import (
    Permutation,
    blocked_young_subgroup,
    blocking,
    compose_images,
    composites,
    cycle_types_of_products,
    invert_images,
    young_subgroup_images,
)
from .profiles import SingularProfile
from .weingarten import wg_class_table

# The census orders: the hook sums are certified against the Weingarten
# census at these orders.  The uu inner average has word length k-1, the sq
# one word length k; other orders are served without a census.
MAX_UU_ORDER = 6
MAX_SQ_ORDER = 5
_CENSUS_ORDERS = {"uu": range(2, MAX_UU_ORDER + 1), "sq": range(1, MAX_SQ_ORDER + 1)}
# The exhaustive counting lemma runs over (k-2)! reorderings per alpha.
MAX_COUNTING_ORDER = 7

Statistic = Literal["uu", "sq"]


class CrossCheckError(RuntimeError):
    """The two evaluation routes disagreed; the computation is unsound."""


def _index_pattern(indices: Sequence[int], n: int) -> tuple[int, ...]:
    """The equality pattern of an index tuple with entries in 1..n: entries
    renamed 1, 2, ... in order of first appearance, so two tuples share a
    pattern iff their positions agree and disagree in the same places.  A
    ValueError names the first fault of an empty tuple, n < 1, or entries
    outside 1..n, checked in that order."""
    if len(indices) < 1:
        raise ValueError("index tuple must be nonempty")
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    if min(indices) < 1 or max(indices) > n:
        bad = [e for e in indices if not 1 <= e <= n]
        raise ValueError(f"entries {bad} outside 1..{n}")
    order = dict.fromkeys(indices)  # first appearances, in order
    names = dict(zip(order, range(1, len(order) + 1)))
    return tuple(map(names.__getitem__, indices))


def _young_labels(statistic: Statistic, labels: Sequence[int]) -> tuple[int, ...]:
    """Labels whose Young subgroup holds the reorderings of the statistic's
    universe that keep ``labels``: for uu the endpoints get labels of their
    own.  With all labels equal it is the universe itself."""
    _check_universe(statistic, len(labels))
    if statistic == "sq":
        return tuple(labels)
    # pattern labels are positive, so 0 and -1 are the endpoints' own
    return (0,) + tuple(labels[1:-1]) + (-1,)


def _check_universe(statistic: Statistic, k: int) -> None:
    """Reject an unknown statistic, or a uu degree with no endpoint-fixing
    subgroup."""
    if statistic not in ("uu", "sq"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if statistic == "uu" and k < 2:
        raise ValueError("endpoint-fixing subgroup needs degree >= 2")


def _least_rearrangement(statistic: Statistic, pattern: tuple[int, ...]) -> tuple[int, ...]:
    """The pattern with the entries of its movable positions sorted: every
    position for sq, all but the two endpoints for uu.  Two patterns have
    the same rearrangements (``_rearrangements``) exactly when they have the
    same least one."""
    _check_universe(statistic, len(pattern))
    if statistic == "sq":
        return tuple(sorted(pattern))
    return pattern[:1] + tuple(sorted(pattern[1:-1])) + pattern[-1:]


def _rearrangements(statistic: Statistic, word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct words w_{phi(1)} ... w_{phi(k)} over the reorderings phi
    of the statistic's universe, one per coset stab * phi of the word's
    stabilizer: every rearrangement for sq, and for uu those that keep both
    endpoints in place.  No validation."""
    if statistic == "sq":
        return list(set(permutations(word)))
    first, last = word[:1], word[-1:]
    return [first + middle + last for middle in set(permutations(word[1:-1]))]


def _chain_side(statistic: Statistic, word: tuple[int, ...]) -> Side:
    """The side (``word_side``) of the chain u[w_1, w_2] u[w_2, w_3] ...,
    open for uu and closed cyclically for sq."""
    return word_side(word, word[1:] if statistic == "uu" else word[1:] + word[:1])


@lru_cache(maxsize=None)
def _rearranged_sides(
    statistic: Statistic, least: tuple[int, ...]
) -> tuple[tuple[Side, int], ...]:
    """The sides (``_chain_side``) of the rearrangements of ``least``
    tallied: (side, number of rearrangements) over the distinct sides.
    Memoised per least rearrangement, so the patterns with the same letters
    share one tally.

    A rotated sq word has the same closed chain, so its side; a class of
    rotations has k/m times as many words as it has words that start with
    a letter occurring m times.  So for sq only the words that start with
    the most frequent letter are formed, and their tally is scaled by k/m,
    which is exact class by class."""
    # each word's ``_chain_side``, written out on this hot path
    if statistic == "uu":
        return tuple(Counter([tuple(sorted(zip(w, w[1:]))) for w in _rearrangements("uu", least)]).items())
    first = max(least, key=least.count)
    rest = list(least)
    rest.remove(first)
    words = [(first,) + w for w in set(permutations(rest))]
    tally = Counter([tuple(sorted(zip(w, w[1:] + w[:1]))) for w in words])
    scale, occurrences = len(least), least.count(first)
    return tuple((side, count * scale // occurrences) for side, count in tally.items())


def _route_a_census(statistic: Statistic, pattern: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Route A: the entry censuses of one word pair per stabilizer coset.

    Each coset stab * phi is one distinct rearrangement w of the pattern,
    the word i_{phi(1)} ... i_{phi(k)} (``_rearrangements``).

    uu: for each rearrangement w fixing both endpoints, the word

        u[i_1, i_2] ... u[i_{k-1}, i_k] * conj(u[w_1, w_2]) ... conj(u[w_{k-1}, w_k]);

    sq: for each rearrangement w, the cyclic word

        u[i_1, i_2] u[i_2, i_3] ... u[i_k, i_1]
        * conj(u[w_1, w_2]) ... conj(u[w_k, w_1]).

    A word's census depends on its conjugated factors only through their
    sorted (row, column) pairs, its side, so the rearrangements are tallied
    per side (``_rearranged_sides``, shared by the patterns with the same
    letters), and each side's census (``haar_moments.side_census``) is
    looked up once and added as integers times its multiplicity.
    """
    word, plain = _route_a_word(statistic, pattern)
    sides = _rearranged_sides(statistic, _least_rearrangement(statistic, word))
    census: dict[tuple[int, ...], int] = {}
    for conj, multiplicity in sides:
        for lam, count in side_census(plain, conj):
            census[lam] = census.get(lam, 0) + multiplicity * count
    return census


def _route_a_word(statistic: Statistic, pattern: tuple[int, ...]) -> tuple[tuple[int, ...], Side]:
    """(word, its ``_chain_side``): the form of the pattern whose
    rearrangements route A counts.

    A word's census depends on the equalities of its indices alone, so
    route A may count any renaming of the pattern.  It renames the values
    1, 2, ... by what the rearrangements keep: for uu the two endpoints'
    values first, then the values by multiplicity, most frequent first,
    ties in order of first appearance.  For uu it may also count the
    reversed pattern: the words of its rearrangements are the transposes
    of the pattern's, every (row, column) pair swapped, and a matching pair
    (sigma, tau) of a word is the pair (tau, sigma) of its transpose, with
    tau^-1 sigma the inverse of sigma^-1 tau, of the same cycle type.  Of
    the two, the one with the smaller side is taken.  So patterns of
    similar shape reach the same least rearrangement and the same sides,
    and share their tallies and word censuses."""
    counts = dict.fromkeys(pattern, 0)
    for v in pattern:
        counts[v] += 1
    if statistic == "sq":
        # stable: equal counts keep the order of first appearance
        order = sorted(counts, key=counts.__getitem__, reverse=True)
        names = dict(zip(order, range(1, len(order) + 1)))
        word = tuple(map(names.__getitem__, pattern))
        return word, _chain_side(statistic, word)
    forms = []
    for candidate in (pattern, pattern[::-1]):
        first, last = candidate[0], candidate[-1]
        order = sorted(dict.fromkeys(candidate), key=counts.__getitem__, reverse=True)
        ends = [first] if first == last else [first, last]
        order = ends + [v for v in order if v != first and v != last]
        names = dict(zip(order, range(1, len(order) + 1)))
        word = tuple(map(names.__getitem__, candidate))
        forms.append((tuple(sorted(zip(word, word[1:]))), word))  # its ``_chain_side``
    side, word = min(forms)
    return word, side


@lru_cache(maxsize=None)
def _cycle_conjugates(statistic: Statistic, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """phi c^-1 phi^-1 over the phi of the statistic's universe, with c the
    full cycle 1 -> 2 -> ... -> k -> 1: (conjugate, multiplicity) pairs.
    Pattern-free; sq meets each k-cycle k times, uu each conjugate once."""
    c_inv = (k,) + tuple(range(1, k))
    return tuple(
        Counter(
            compose_images(compose_images(phi, c_inv), invert_images(phi))
            for phi in young_subgroup_images(_young_labels(statistic, (1,) * k))
        ).items()
    )


@lru_cache(maxsize=None)
def _folded_census(
    statistic: Statistic, k: int, beta: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], int], ...] | None:
    """The census of gamma * beta over the conjugates gamma of
    ``_cycle_conjugates``, as (cycle type, count) pairs; for uu, cycle types
    on {1..k-1}, and None when some gamma * beta moves the point k."""
    conjugates = _cycle_conjugates(statistic, k)
    if statistic == "uu":
        if any(gamma[beta[k - 1] - 1] != k for gamma, _ in conjugates):
            return None
        # every gamma * beta fixes k: its images of 1..k-1 are a
        # permutation of degree k - 1 with the other cycles
        beta = beta[:-1]
    types = cycle_types_of_products([gamma for gamma, _ in conjugates], beta)
    census: dict[tuple[int, ...], int] = {}
    for lam, (_, multiplicity) in zip(types, conjugates):
        census[lam] = census.get(lam, 0) + multiplicity
    return tuple(census.items())


def _route_b_census(statistic: Statistic, pattern: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Route B: the cycle types of the dressed conjugation words.

    With c the full cycle 1 -> 2 -> ... -> k -> 1 and alpha running over the
    pattern's stabilizer:

    uu: over l1, l2 in 1..k-1 with i[l1] == i[1] and i[l2 + 1] == i[k] and
    phi endpoint-fixing, the word
    c^-1 phi^-1 alpha^-1 c (l2 k-1) (1 l1) phi restricted to {1..k-1}; the
    word always fixes the point k.  The l1/l2 constraints are forced by the
    delta analysis: the realignment (1 l1) relating the conjugated row word
    to an index symmetry is itself an index symmetry only when positions 1
    and l1 carry equal indices, and likewise (l2+1, k) on the column side
    before the shift by c.

    sq: over phi in S_k, the word c^-1 phi^-1 alpha^-1 c phi.

    Folded by conjugacy.  Writing d for the dressing ((l2 k-1) (1 l1) for
    uu, the identity for sq) and beta = alpha^-1 c d, the word is
    phi^-1 (phi c^-1 phi^-1 beta) phi, so it has the cycle type of
    gamma * beta with gamma = phi c^-1 phi^-1.  Only beta depends on the
    pattern, so the census is the sum over the multiset of beta of the
    memoised census of gamma * beta over the conjugates gamma
    (``_folded_census``).  Conjugating beta by g in the universe maps that
    census to the one of g^-1 gamma g * beta, and the conjugates are closed
    under it, so the betas are tallied per conjugacy class
    (``_class_representative``) and each class's census is looked up once.
    For uu every phi fixes k, so the word fixes k exactly when gamma * beta
    does: the endpoint check on the conjugates is the check on the words,
    and so is the restriction to {1..k-1}; g fixes k too, so the check
    holds for a whole class or for none of it.
    """
    k = len(pattern)
    labels = blocking(_young_labels(statistic, pattern))
    if statistic == "sq":
        dressings = [(1, k - 1)]  # (k-1 k-1) (1 1): sq words carry no dressing
    else:
        l2s = [l2 for l2 in range(1, k) if pattern[l2] == pattern[k - 1]]
        dressings = [(l1, l2) for l1 in range(1, k) if pattern[l1 - 1] == pattern[0] for l2 in l2s]
    census: dict[tuple[int, ...], int] = {}
    for l1, l2 in dressings:
        dressed = _dressed_census(statistic, labels, l1, l2)
        if dressed is None:
            raise CrossCheckError(f"route B word moves the endpoint for pattern {pattern}")
        for lam, count in dressed:
            census[lam] = census.get(lam, 0) + count
    return census


@lru_cache(maxsize=None)
def _dressed_census(
    statistic: Statistic, labels: tuple[int, ...], l1: int, l2: int
) -> tuple[tuple[tuple[int, ...], int], ...] | None:
    """Route B's census of the betas alpha^-1 c (l2 k-1) (1 l1), alpha over
    the Young subgroup of ``labels`` (a stabilizer, blocked by
    ``blocking``): the betas tallied by conjugacy class and each class's
    folded census (``_folded_census``) added once; None when some word
    moves the endpoint.  Memoised per stabilizer blocking and dressing,
    which patterns share: a uu stabilizer depends on the middle of the
    pattern alone."""
    tail = _dressed_cycle(len(labels), l1, l2)
    # alpha^-1 runs over the group as alpha does
    stab = blocked_young_subgroup(labels)
    betas = composites(stab, tail)
    if statistic == "sq":
        # the universe is all of S_k, so a class is a cycle type
        names = cycle_types_of_products(stab, tail)
    else:
        names = map(partial(_class_representative, statistic), betas)
    classes: dict[tuple[int, ...], list] = {}  # class -> [a beta in it, count]
    for name, beta in zip(names, betas):
        if name in classes:
            classes[name][1] += 1
        else:
            classes[name] = [beta, 1]
    census: dict[tuple[int, ...], int] = {}
    for beta, multiplicity in classes.values():
        folded = _folded_census(statistic, len(tail), _class_representative(statistic, beta))
        if folded is None:
            return None
        for lam, count in folded:
            census[lam] = census.get(lam, 0) + multiplicity * count
    return tuple(census.items())


@lru_cache(maxsize=None)
def _class_representative(statistic: Statistic, beta: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate of beta under the statistic's universe that names the
    points in walk order, so that two betas get the same one exactly when
    they are conjugate in the universe.

    uu: the universe fixes 1 and k, so those keep their names, and the
    other points are renamed 2, 3, ... along the walk from 1 until 1 or k,
    then the walk from k until 1 or k, then the remaining cycles, longest
    first.  sq: all of S_k, so every point is renamed 1, 2, ... along the
    cycles, longest first.
    """
    k = len(beta)
    marked = (1, k) if statistic == "uu" else ()
    order = []
    for end in marked:
        x = beta[end - 1]
        while x not in marked:
            order.append(x)
            x = beta[x - 1]
    cycles, seen = [], set(marked).union(order)
    for start in range(1, k + 1):
        if start not in seen:
            cycle, x = [], start
            while x not in seen:
                seen.add(x)
                cycle.append(x)
                x = beta[x - 1]
            cycles.append(cycle)
    order += [x for cycle in sorted(cycles, key=len, reverse=True) for x in cycle]
    name = {x: x for x in marked}
    name.update(zip(order, range(2 if marked else 1, k + 1)))
    images = [0] * k
    for x, y in enumerate(beta, 1):
        images[name[x] - 1] = name[y]
    return tuple(images)


def _swap(k: int, a: int, b: int) -> tuple[int, ...]:
    """Images of the transposition (a b) of degree k; the identity if a == b."""
    images = list(range(1, k + 1))
    images[a - 1], images[b - 1] = b, a
    return tuple(images)


@lru_cache(maxsize=None)
def _dressed_cycle(k: int, l1: int, l2: int) -> tuple[int, ...]:
    """Images of c (l2 k-1) (1 l1), with c the full cycle 1 -> 2 -> ... -> k -> 1."""
    c = tuple(range(2, k + 1)) + (1,)
    return compose_images(c, compose_images(_swap(k, l2, k - 1), _swap(k, 1, l1)))


@lru_cache(maxsize=None)
def route_censuses(
    statistic: Statistic, pattern: tuple[int, ...]
) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """The route-A and route-B Weingarten censuses of one equality pattern
    (a canonical index tuple, see ``equality_patterns``), after checking
    that they are equal as integer vectors.

    Built on first use and memoized per (statistic, pattern); the pattern's
    length is k.  The censuses map cycle types to counts; they are shared
    between callers and must not be mutated.
    """
    census_a = _route_a_census(statistic, pattern)
    census_b = _route_b_census(statistic, pattern)
    # every count is positive, so equal items are equal censuses
    if census_a.items() != census_b.items():
        raise CrossCheckError(
            f"{statistic} route censuses differ for pattern {pattern}: "
            f"{dict(census_a)} vs {dict(census_b)}"
        )
    return census_a, census_b


def _inner_paths(
    statistic: Statistic, indices: Sequence[int], n: int
) -> tuple[Fraction, Fraction]:
    """Both evaluations of the statistic's inner average for one index
    tuple: the route-A and route-B censuses of its pattern weighed by the
    Weingarten table at n, of degree k-1 for uu and k for sq.  The two
    censuses are equal as integer vectors (``route_censuses``), so one
    weighing is the value of both."""
    pattern = _index_pattern(indices, n)
    k = len(pattern)
    orders = _CENSUS_ORDERS[statistic]
    if k > orders[-1]:
        raise ValueError(f"order {k} above supported ceiling {orders[-1]}")
    # route_censuses refuses a uu order below the range (no endpoint-fixing subgroup)
    census_a, _ = route_censuses(statistic, pattern)
    value = wg_class_table(k - 1 if statistic == "uu" else k, n).weigh(census_a.items())
    return value, value


def _inner_average(statistic: Statistic, indices: Sequence[int], n: int) -> Fraction:
    """The statistic's inner average from ``f_paths`` or ``g_paths``, after
    checking that the two routes agree."""
    # looked up by public name, so a wrapper installed on either sees the call
    paths = f_paths if statistic == "uu" else g_paths
    route_a, route_b = paths(indices, n)
    if route_a != route_b:
        raise CrossCheckError(
            f"{statistic} inner average mismatch for i={tuple(indices)}, n={n}: "
            f"{route_a} vs {route_b}"
        )
    return route_a


def f_paths(indices: Sequence[int], n: int) -> tuple[Fraction, Fraction]:
    """Both evaluations of the uu inner average for one index tuple: the
    route-A and route-B censuses of its pattern (see ``route_censuses``)
    weighed by the degree-(k-1) Weingarten table at n."""
    return _inner_paths("uu", indices, n)


def f_i(indices: Sequence[int], n: int) -> Fraction:
    """The uu inner average, cross-checked along both routes.

    >>> f_i((1, 2), 4)
    Fraction(1, 4)
    """
    return _inner_average("uu", indices, n)


def g_paths(indices: Sequence[int], n: int) -> tuple[Fraction, Fraction]:
    """Both evaluations of the sq inner average for one index tuple: the
    route-A and route-B censuses of its pattern (see ``route_censuses``)
    weighed by the degree-k Weingarten table at n."""
    return _inner_paths("sq", indices, n)


def g_i(indices: Sequence[int], n: int) -> Fraction:
    """The sq inner average, cross-checked along both routes.

    >>> g_i((1,), 3)
    Fraction(1, 3)
    """
    return _inner_average("sq", indices, n)


def equality_patterns(k: int) -> Iterator[tuple[int, ...]]:
    """Canonical index tuples, one per equality pattern of k positions:
    entries are block labels 1, 2, ... in order of first appearance."""
    patterns: list[tuple[int, ...]] = [()]
    for _ in range(k):
        patterns = [p + (label,) for p in patterns for label in range(1, max(p, default=0) + 2)]
    yield from patterns


def _hook_coefficients(
    statistic: Statistic, k: int, n: int
) -> tuple[tuple[int, ...], int]:
    """The hook coefficients a_r(n) of a trace moment as integer numerators
    over one common denominator, in lowest terms: (numerators, denominator).

    With H_r = k (k-r-1)! r! and C_r(n) = prod_{j<k-r} (n+j) prod_{1<=i<=r} (n-i)
    the hook-length and content products of (k-r, 1^r):

    sq: a_r = H_r / C_r(n);
    uu: a_r = (H_r / k) (n + k - 1 - 2r) / C_r(n),

    for the hooks with at most n rows, r < K = min(k, n).  C_r(n) =
    (n+k-r-1)! / (n-r-1)! divides the window W = (n+k-1)! / (n-K)!, and the
    cofactors w_r = W / C_r(n) run w_0 = (n-1)! / (n-K)!,
    w_{r+1} = w_r (n+k-r-1) / (n-r-1); so does f_r = (k-r-1)! r! by its own
    ratio.  Every division is exact, and one gcd reduces the result.
    """
    hooks = min(k, n)
    window = math.prod(range(n - hooks + 1, n + k))
    w, f = math.prod(range(n - hooks + 1, n)), math.factorial(k - 1)
    numerators = []
    for r in range(hooks):
        numerators.append(f * w * (k if statistic == "sq" else n + k - 1 - 2 * r))
        if r + 1 < hooks:
            w = w * (n + k - r - 1) // (n - r - 1)
            f = f * (r + 1) // (k - r - 1)
    g = math.gcd(window, *numerators)
    return tuple(a // g for a in numerators), window // g


def _hook_schurs(e: Sequence[int], h: Sequence[int], k: int, hooks: int) -> list[int]:
    """s_(k-r, 1^r) for r < ``hooks`` from the elementary (``e``) and complete
    (``h``) symmetric values, by Pieri's rule for hooks (Macdonald I.5)

        h_{k-r} e_r = s_(k-r, 1^r) + s_(k-r+1, 1^(r-1)),    1 <= r < k,

    so s_0 = h_k and s_r = h_{k-r} e_r - s_{r-1}: O(hooks) products where the
    Jacobi-Trudi alternating sum takes O(hooks^2)."""
    schurs = [h[k]] if hooks > 0 else []
    for r in range(1, hooks):
        schurs.append(h[k - r] * e[r] - schurs[-1])
    return schurs


@lru_cache(maxsize=None)
def _certify(statistic: Statistic, k: int, n: int) -> tuple[tuple[int, ...], int]:
    """The hook coefficients at (k, n) from ``_hook_coefficients``, checked
    against the Weingarten census before they are first returned, and
    memoised with that certificate.

    Folded over equality patterns, a moment is sum_lam aut(lam) S_lam(n)
    m_lam(x): S_lam(n) sums the inner averages (``f_i`` or ``g_i``) of the
    patterns whose block sizes form the partition lam, aut(lam) = prod_i
    m_i(lam)! turns the injective pattern weight into the monomial symmetric
    function m_lam, and only lam with at most n parts survive in n
    variables.  The hook sum has the m_lam coefficient sum_r a_r(n)
    K(h_r, lam).  Equal coefficients for every lam make the two the same
    polynomial in x, so the check covers every profile of length n.

    K(h_r, lam) = C(l(lam) - 1, r) is read off the same Pieri recursion
    the evaluation uses (``_hook_schurs``): the coefficient of x^lam in
    h_{k-b} e_b is C(l(lam), b), whatever the parts of lam, and
    C(l, r) - C(l - 1, r - 1) = C(l - 1, r).

    The check runs inside the census orders (``_CENSUS_ORDERS``) at every
    n >= 1; beyond them the coefficients are returned unchecked.  A
    mismatch raises ``CrossCheckError``.
    """
    numerators, denominator = _hook_coefficients(statistic, k, n)
    if k not in _CENSUS_ORDERS[statistic]:
        return numerators, denominator
    inner = f_i if statistic == "uu" else g_i
    # every inner average is a multiple of 1/scale, the denominator of the
    # table it is weighed by, so the group sums are integers over scale
    scale = wg_class_table(k - 1 if statistic == "uu" else k, n).denominator
    groups: dict[tuple[int, ...], int] = {}
    for pattern in equality_patterns(k):
        blocks = max(pattern)
        if blocks > n:
            continue
        lam = tuple(sorted(map(pattern.count, range(1, blocks + 1)), reverse=True))
        value = inner(pattern, n)
        multiple, rest = divmod(scale, value.denominator)
        if rest:
            raise CrossCheckError(
                f"{statistic} inner average {value} at k={k}, n={n} is off the table's denominator"
            )
        groups[lam] = groups.get(lam, 0) + value.numerator * multiple
    for lam, total in groups.items():
        aut = math.prod(math.factorial(m) for m in Counter(lam).values())
        kostka = _hook_schurs(
            [math.comb(len(lam), b) for b in range(k + 1)], [1] * (k + 1), k, len(numerators)
        )
        hook_side = sum(a * c for a, c in zip(numerators, kostka))
        if aut * total * denominator != hook_side * scale:
            raise CrossCheckError(
                f"{statistic} hook sum disagrees with the census at k={k}, n={n}, "
                f"lambda={lam}: {Fraction(aut * total, scale)} vs {Fraction(hook_side, denominator)}"
            )
    return numerators, denominator


def _scaled_symmetric_sums(
    profile: SingularProfile, e_max: int, h_max: int
) -> tuple[list[int], list[int], int]:
    """(e, h, D): e_j(X) for j <= e_max and h_j(X) for j <= h_max, in
    integers, with X_i = D x_i the squared singular values x_i = s_i^2 over
    D, the square of the profile's denominator: X_i is the square of its
    i-th numerator.

    Running sums over the variables, one column per order j: with E_j[m] and
    H_j[m] the values at X_1 .. X_m,

        E_j[m] = E_j[m-1] + X_m E_{j-1}[m-1],    H_j[m] = H_j[m-1] + X_m H_{j-1}[m],

    so each column is ``accumulate`` over the products with the previous
    one, O(n (e_max + h_max)) integer steps in all with the loop over the
    variables in C; e_j(x) = E_j[n] / D^j and h_j(x) = H_j[n] / D^j.
    """
    xs = [p * p for p in profile.numerators]
    e, h = [1], [1]
    column = [1] * (len(xs) + 1)  # E_0[m], m = 0..n
    for _ in range(e_max):
        # E_j[0] = 0, and map pairs X_m with E_{j-1}[m-1] and stops at X_n
        column = list(accumulate(map(mul, xs, column), initial=0))
        e.append(column[-1])
    column = [1] * len(xs)  # H_0[m], m = 1..n
    for _ in range(h_max):
        column = list(accumulate(map(mul, xs, column)))
        h.append(column[-1])
    return e, h, profile.denominator**2


def _hook_sum(statistic: Statistic, k: int, profile: SingularProfile) -> Fraction:
    """sum_r a_r(n) s_(k-r, 1^r)(x) with x_i = s_i^2, in integers.

    e_j and h_j of the scaled X_i = D x_i come from
    ``_scaled_symmetric_sums``, and the Schur polynomials are homogeneous of
    degree k, so the moment is one fraction sum_r A_r s_r(X) / (Q D^k) with
    A_r / Q the certified coefficients from ``_certify``.
    """
    if k < 1:
        raise ValueError("moment order must be at least 1")
    numerators, denominator = _certify(statistic, k, profile.n)
    hooks = len(numerators)
    e, h, scale = _scaled_symmetric_sums(profile, hooks - 1, k)
    total = sum(map(mul, numerators, _hook_schurs(e, h, k, hooks)))
    return Fraction(total, denominator * scale**k)


def trace_moment_uu(k: int, profile: SingularProfile) -> Fraction:
    """E trace(A^k (A^k)^*), exactly, for any k >= 1 and any n: the hook
    sum with a_r = (H_r / k) (n + k - 1 - 2r) / C_r(n); see the module
    docstring."""
    return _hook_sum("uu", k, profile)


def trace_moment_sq(k: int, profile: SingularProfile) -> Fraction:
    """E |trace(A^k)|^2, exactly, for any k >= 1 and any n: the hook sum
    with a_r = H_r / C_r(n); see the module docstring."""
    return _hook_sum("sq", k, profile)


@dataclass(frozen=True)
class BoundReport:
    """An exact moment next to the matching envelope value.

    ``bound_core`` is n k^2 (b^2 + k M^2 / n)^k for mode "uu" and
    (b^2 + k M^2 / n)^k for mode "sq"; the unspecified absolute constant is
    deliberately not applied, so ``ratio`` is the measured moment / core and
    is reported, never asserted against a constant; it is None when the core
    is 0 (an all-zero profile).  ``applicable`` records whether
    k^6 < (2 - epsilon) n holds.
    """

    k: int
    n: int
    mode: str
    epsilon: Fraction
    exact_moment: Fraction
    bound_core: Fraction
    ratio: Fraction | None
    applicable: bool


def theorem_bound(
    k: int,
    profile: SingularProfile,
    mode: Literal["uu", "sq"] = "uu",
    epsilon: Fraction | float = Fraction(1, 2),
) -> BoundReport:
    """Envelope report for the chosen trace moment; see BoundReport."""
    if mode not in ("uu", "sq"):
        raise ValueError(f"unknown mode {mode!r}")
    eps = Fraction(epsilon)
    if not 0 < eps < 2:
        raise ValueError("epsilon must lie strictly between 0 and 2")
    n = profile.n
    # first, so an order below 1 is rejected before core ** k can divide by 0
    exact = _hook_sum(mode, k, profile)
    core = (profile.b2 + Fraction(k) * profile.M**2 / n) ** k
    if mode == "uu":
        core = n * k * k * core
    ratio = exact / core if core != 0 else None
    applicable = k**6 < (2 - eps) * n
    return BoundReport(k, n, mode, eps, exact, core, ratio, applicable)


@dataclass(frozen=True)
class CountingCheck:
    """Exhaustive count against the combinatorial ceiling k^(4q) / (2q)!."""

    k: int
    l1: int
    l2: int
    alpha: Permutation
    q: int
    count: int
    bound: Fraction
    ok: bool


def verify_counting_lemma(
    k: int, l1: int, l2: int, alpha: Permutation, q: int
) -> CountingCheck:
    """Count endpoint-fixing phi whose dressed conjugation word

        c^-1 phi^-1 alpha^-1 c (l2 k-1) (1 l1) phi

    has transposition distance exactly q, and compare against the ceiling
    k^(4q) / (2q)!.  ``alpha`` must fix both endpoints.

    The word is route B's uu word with beta = alpha^-1 c (l2 k-1) (1 l1), so
    the count is read off its folded census (``_folded_census``): a word
    that fixes k with cycle type (lam, 1) on {1..k} has distance
    k - 1 - len(lam)."""
    if k < 2:
        raise ValueError("needs degree k >= 2")
    if k > MAX_COUNTING_ORDER:
        raise ValueError(f"exhaustive count supported for k <= {MAX_COUNTING_ORDER}")
    if not (1 <= l1 <= k - 1 and 1 <= l2 <= k - 1):
        raise ValueError(f"l1, l2 must lie in 1..{k - 1}")
    if alpha.degree != k or alpha(1) != 1 or alpha(k) != k:
        raise ValueError("alpha must be an endpoint-fixing permutation of degree k")
    if not 0 <= q <= k:
        raise ValueError(f"distance {q} outside 0..{k}")
    beta = compose_images(invert_images(alpha.images), _dressed_cycle(k, l1, l2))
    # never None: phi(k) = k, both swaps fix k, c(k) = 1, alpha^-1(1) = 1 and
    # c^-1(1) = k, so every word fixes k
    folded = _folded_census("uu", k, beta)
    count = sum(number for lam, number in folded if k - 1 - len(lam) == q)
    bound = Fraction(k ** (4 * q), math.factorial(2 * q))
    return CountingCheck(k, l1, l2, alpha, q, count, bound, count <= bound)


@dataclass(frozen=True)
class CensusReport:
    """Successive closed-form envelopes of the stabilizer-weighted power sum

        L0 = sum_i prod_l s_{i_l}^2 * #(endpoint-fixing symmetries of i)
           = p_1(x)^2 (k-2)! h_{k-2}(x),    x_i = s_i^2,

    over i in {1..n}^k (derivation in the module docstring).  Each link
    majorizes the previous one:

    L1 folds the stabilizer size into the product of block factorials,
       k! h_k(x),
    L2 peels subleading factors to M^2 and closes the partition sums,
    L3 replaces the distinct-value sums by (n b^2)^p / p!,
    L4 absorbs the factorial ratio into (k M^2)^(k-p) binomials,
    L5 is the closed binomial form (n b^2 + k M^2)^k.

    ``value`` is (k^2 / n^(k-1)) * L5 = n k^2 (b^2 + k M^2 / n)^k, the
    envelope core without the unspecified absolute constant.
    """

    k: int
    n: int
    links: tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]
    chain_ok: bool
    value: Fraction


def composition_census(k: int, profile: SingularProfile) -> CensusReport:
    """Evaluate every link of the counting chain exactly; see CensusReport."""
    if k < 2:
        raise ValueError("census needs k >= 2")
    n = profile.n
    m2 = profile.M**2
    e, h, scale = _scaled_symmetric_sums(profile, min(k, n), k)
    # closed forms, see the module docstring; e_j(x) = e[j] / scale^j and
    # likewise for h, so p_1(x) = n b^2 = h_1(x)
    p1 = Fraction(h[1], scale)
    l0 = p1**2 * Fraction(math.factorial(k - 2) * h[k - 2], scale ** (k - 2))
    l1 = Fraction(math.factorial(k) * h[k], scale**k)

    l2 = Fraction(0)
    l3 = Fraction(0)
    l4 = Fraction(0)
    for p in range(1, k + 1):
        # M^2 per peeled factor, compositions of k into p parts, and k!
        weight = m2 ** (k - p) * math.comb(k - 1, p - 1) * math.factorial(k)
        if p <= n:
            l2 += weight * Fraction(e[p], scale**p)
        l3 += weight * p1**p / math.factorial(p)
        l4 += (k * m2) ** (k - p) * p1**p * math.comb(k, p)
    l5 = (p1 + k * m2) ** k

    links = (l0, l1, l2, l3, l4, l5)
    chain_ok = all(x <= y for x, y in zip(links, links[1:]))
    value = Fraction(k * k, n ** (k - 1)) * l5
    return CensusReport(k, n, links, chain_ok, value)
