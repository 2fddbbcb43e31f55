"""Permutation layer: algebra, cycle structure, and the monotone
transposition word counts that the Weingarten series is built from.

Oracles used here:
* BFS over right-multiplication by transpositions for the distance to the
  identity (independent of the cycle-count shortcut).
* direct enumeration of transposition words with weakly increasing larger
  legs for the word counts (independent of the character formula in
  ``weingarten.monotone_counts``).
"""

import itertools
import random
from collections import Counter, deque

import pytest
from hypothesis import given, strategies as st

from ringmoments.permutations import (
    MEMO_DEGREE,
    Permutation,
    all_permutations,
    compose_images,
    composites,
    cycle_type_of_product,
    cycle_types_of_products,
    enumerate_sk0,
    invert_images,
    young_products,
    young_subgroup_images,
)
from ringmoments.weingarten import monotone_counts
from weingarten_oracles import full_cycle, transposition


def count_monotone_factorizations(p: Permutation, r: int) -> int:
    """Words of length r with weakly increasing larger legs multiplying to p."""
    return monotone_counts(p.degree, r)[p.cycle_type()][r]


def bfs_distance(p: Permutation) -> int:
    """Fewest transpositions multiplying to p, by breadth-first search."""
    k = p.degree
    start = tuple(range(1, k + 1))
    target = p.images
    if target == start:
        return 0
    seen = {start}
    frontier = deque([(start, 0)])
    transpositions = [
        transposition(k, s, t)
        for s in range(1, k + 1)
        for t in range(s + 1, k + 1)
    ]
    while frontier:
        images, d = frontier.popleft()
        for t in transpositions:
            nxt = compose_images(images, t.images)
            if nxt == target:
                return d + 1
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, d + 1))
    raise AssertionError("unreachable")


def brute_monotone_count(p: Permutation, r: int) -> int:
    """Enumerate all length-r words (s_1 t_1)...(s_r t_r), s_i < t_i,
    t_1 <= ... <= t_r, whose product (rightmost factor first) is p."""
    k = p.degree
    legs = [(s, t) for t in range(2, k + 1) for s in range(1, t)]
    count = 0
    for word in itertools.product(legs, repeat=r):
        if any(word[a][1] > word[a + 1][1] for a in range(r - 1)):
            continue
        prod = Permutation.identity(k)
        for s, t in word:
            prod = prod * transposition(k, s, t)
        if prod == p:
            count += 1
    return count


class TestAlgebra:
    def test_identity(self):
        e = Permutation.identity(4)
        assert e.images == (1, 2, 3, 4)
        assert len(e.cycle_type()) == 4
        assert e.transposition_distance() == 0

    def test_composition_order(self):
        # (p * q)(x) = p(q(x)): rightmost factor acts first
        p = transposition(3, 1, 2)
        q = transposition(3, 2, 3)
        pq = p * q
        assert pq(3) == p(q(3)) == p(2) == 1
        assert pq.images == (2, 3, 1)

    def test_inverse(self):
        p = Permutation.from_cycle_string("(1 3 4)(2 5)", 5)
        assert (p * p.inverse()).images == (1, 2, 3, 4, 5)
        assert (p.inverse() * p).images == (1, 2, 3, 4, 5)

    def test_cycle_string_round_trip(self):
        for k in range(1, 6):
            for p in all_permutations(k):
                assert Permutation.from_cycle_string(str(p), k) == p

    def test_from_cycles(self):
        p = Permutation.from_cycles(4, [(1, 2, 3)])
        assert p.images == (2, 3, 1, 4)
        # overlapping cycles compose as a product, rightmost first
        q = Permutation.from_cycles(3, [(1, 2), (2, 3)])
        assert q.images == (2, 3, 1)
        with pytest.raises(ValueError):
            Permutation.from_cycles(4, [(1, 2, 1)])
        with pytest.raises(ValueError):
            Permutation.from_cycles(2, [(1, 5)])

    @pytest.mark.parametrize(
        "images,message",
        [((), "degree must be at least 1"), ((1, 1), "not a bijection"), ((1, 3), "not a bijection")],
    )
    def test_images_must_be_a_bijection(self, images, message):
        # no points, a repeated point, and an image outside 1..k
        with pytest.raises(ValueError, match=message):
            Permutation(images)

    def test_point_outside_the_degree(self):
        with pytest.raises(ValueError, match="point 3 outside 1..2"):
            Permutation((2, 1))(3)

    def test_empty_cycle_is_skipped(self):
        assert Permutation.from_cycle_string("(1 2)()", 3) == Permutation((2, 1, 3))

    @pytest.mark.parametrize("text", ["(1 2", "1 2)", "(1 x)", "(1 2))(", "(1 2) 3"])
    def test_malformed_cycle_string(self, text):
        # unbalanced parentheses, no opening parenthesis, a non-integer point,
        # and text outside the parenthesised groups
        with pytest.raises(ValueError, match="malformed cycle notation"):
            Permutation.from_cycle_string(text, 3)

    def test_full_cycle(self):
        c = full_cycle(4)
        assert c.images == (2, 3, 4, 1)
        assert c(4) == 1

    def test_transposition_equal_legs_is_identity(self):
        assert transposition(5, 3, 3) == Permutation.identity(5)

    def test_raw_image_helpers(self):
        a = (2, 1, 3)
        b = (1, 3, 2)
        assert compose_images(a, b) == (2, 3, 1)
        assert invert_images((2, 3, 1)) == (3, 1, 2)
        assert cycle_type_of_product((2, 3, 1), (1, 2, 3)) == (3,)
        assert cycle_type_of_product(a, b) == (3,)


    @pytest.mark.parametrize("k", range(1, 9))
    def test_batched_products_match_the_cycle_walk(self, k):
        # the tabulated degrees, the walked ones above them, and degree 1
        rng = random.Random(k)
        ps = [tuple(rng.sample(range(1, k + 1), k)) for _ in range(30)]
        qs = [tuple(rng.sample(range(1, k + 1), k)) for _ in range(4)]
        assert composites(ps, qs[0]) == [compose_images(p, qs[0]) for p in ps]
        for q in qs:
            assert list(cycle_types_of_products(ps, q)) == [cycle_type_of_product(p, q) for p in ps]


class TestCycleStructure:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_distance_equals_bfs(self, k):
        # closed form k - #cycles against breadth-first search
        perms = list(all_permutations(k)) if k <= 5 else [
            full_cycle(k),
            Permutation.from_cycles(k, [(1, 2), (3, 4, 5)]),
            Permutation.identity(k),
            Permutation.from_cycles(k, [(1, 3), (2, 6)]),
        ]
        for p in perms:
            assert p.transposition_distance() == bfs_distance(p)

    def test_cycle_type_sorted_descending(self):
        p = Permutation.from_cycle_string("(1 2)(3 4 5)", 6)
        assert p.cycle_type() == (3, 2, 1)
        assert len(p.cycle_type()) == 3

    def test_conjugation_preserves_type(self):
        for p in all_permutations(4):
            for g in all_permutations(4):
                assert (g * p * g.inverse()).cycle_type() == p.cycle_type()


class TestMonotoneCounts:
    def test_frozen_small_counts(self):
        swap = transposition(2, 1, 2)
        e2 = Permutation.identity(2)
        # in S_2 the only transposition is (1 2): words alternate
        for r in range(7):
            assert count_monotone_factorizations(e2, r) == (1 if r % 2 == 0 else 0)
            assert count_monotone_factorizations(swap, r) == (1 if r % 2 == 1 else 0)
        e3 = Permutation.identity(3)
        t12 = transposition(3, 1, 2)
        assert count_monotone_factorizations(t12, 1) == 1
        assert count_monotone_factorizations(e3, 2) == 3
        assert count_monotone_factorizations(t12, 3) == 5

    @pytest.mark.parametrize("k,r_max", [(2, 5), (3, 4), (4, 3)])
    def test_counts_match_brute_enumeration(self, k, r_max):
        for p in all_permutations(k):
            for r in range(r_max + 1):
                assert count_monotone_factorizations(p, r) == brute_monotone_count(p, r), (
                    f"count mismatch at k={k}, p={p}, r={r}"
                )

    def test_zero_below_distance_and_parity(self):
        for k in (3, 4):
            for p in all_permutations(k):
                d = p.transposition_distance()
                for r in range(6):
                    c = count_monotone_factorizations(p, r)
                    if r < d or (r - d) % 2 == 1:
                        assert c == 0
                    if r == d:
                        # minimal words exist for every permutation
                        pass
                assert count_monotone_factorizations(p, d) >= 1

    def test_count_at_distance_is_positive(self):
        for k in range(2, 6):
            for p in all_permutations(k):
                assert count_monotone_factorizations(p, p.transposition_distance()) >= 1


class TestGroupEnumeration:
    def test_all_permutations_count(self):
        import math

        for k in range(1, 7):
            assert len(list(all_permutations(k))) == math.factorial(k)
        with pytest.raises(ValueError, match="degree must be at least 1"):
            list(all_permutations(0))

    def test_sk0_membership_and_count(self):
        import math

        for k in range(2, 7):
            group = list(enumerate_sk0(k))
            assert len(group) == math.factorial(k - 2)
            assert len(set(group)) == len(group)
            for p in group:
                assert p(1) == 1 and p(k) == k

    def test_sk0_needs_both_endpoints(self):
        with pytest.raises(ValueError, match="degree >= 2"):
            list(enumerate_sk0(1))

    def test_stabilizer_fixes_tuple(self):
        # all of S_4, and the endpoints labelled apart: the endpoint-fixing
        # subgroup
        i = (1, 2, 1, 2)
        for labels in (i, (0,) + i[1:-1] + (-1,)):
            stab = young_subgroup_images(labels)
            assert stab
            for a in stab:
                assert tuple(i[a[x - 1] - 1] for x in range(1, 5)) == i

    def test_memo_is_shared_per_blocking(self):
        # relabelled labels name the same blocks and get the same tuple back;
        # above MEMO_DEGREE each call builds its own
        assert young_subgroup_images((5, 7, 5), fine=("a", "b", "c")) is young_subgroup_images(
            (1, 2, 1), fine=(1, 2, 3)
        )
        deep = (1,) * (MEMO_DEGREE + 1)
        first = young_subgroup_images(deep, fine=(1,) * MEMO_DEGREE + (2,))
        again = young_subgroup_images(deep, fine=(1,) * MEMO_DEGREE + (2,))
        assert first == again and first is not again
        assert len(first) == MEMO_DEGREE + 1

    def test_coset_representatives_partition_group(self):
        # the inverses of the representatives refined by the pattern's labels
        # give one phi per right coset stab * phi of the pattern's stabilizer
        for universe_labels, stab_labels in (
            ((0, 1, 1, -1), (0, 1, 2, -1)),  # (1, 1, 2, 1) in S_4^0
            ((1, 1, 1, 1), (1, 1, 2, 1)),  # (1, 1, 2, 1) in S_4
        ):
            universe = young_subgroup_images(universe_labels)
            stab = young_subgroup_images(stab_labels)
            reps = [invert_images(p) for p in young_subgroup_images(universe_labels, stab_labels)]
            assert len(reps) * len(stab) == len(universe)
            covered = {compose_images(a, phi) for phi in reps for a in stab}
            assert covered == set(universe)

    def test_coset_representatives_are_the_increasing_arrangements(self):
        # young_subgroup_images(labels, fine) against its definition: the p
        # of the Young subgroup that increase on every block of equal fine
        # labels, filtered out of all of S_k; degree 7 is past the memo
        rng = random.Random(20261020)
        for _ in range(40):
            k = rng.randint(1, 7)
            labels = tuple(rng.randint(1, 3) for _ in range(k))
            fine = tuple(rng.randint(1, 3) for _ in range(k))
            group = [
                p for p in itertools.permutations(range(1, k + 1))
                if all(labels[p[m] - 1] == labels[m] for m in range(k))
            ]
            increasing = [
                p for p in group
                if all(p[a] < p[b] for a in range(k) for b in range(a + 1, k)
                       if (labels[a], fine[a]) == (labels[b], fine[b]))
            ]
            reps = young_subgroup_images(labels, fine=fine)
            assert sorted(reps) == increasing, (labels, fine)

    def test_young_products_are_the_product_set(self):
        # each z * y of Z and Y once, and every one made by |Y n Z| pairs;
        # degree 7 is past the memo
        rng = random.Random(20261022)
        for _ in range(40):
            k = rng.randint(1, 7)
            labels = tuple(rng.randint(1, 3) for _ in range(k))
            other = tuple(rng.randint(1, 3) for _ in range(k))
            pairs = Counter(
                compose_images(z, y)
                for z in young_subgroup_images(other)
                for y in young_subgroup_images(labels)
            )
            products, weight = young_products(labels, other)
            assert len(set(products)) == len(products), (labels, other)
            assert set(products) == set(pairs) and set(pairs.values()) == {weight}, (labels, other)
        assert young_products((5, 7, 5), ("a", "b", "b")) is young_products((1, 2, 1), (1, 2, 2))


@st.composite
def permutations(draw, max_k=7):
    k = draw(st.integers(min_value=1, max_value=max_k))
    images = draw(st.permutations(tuple(range(1, k + 1))))
    return Permutation(tuple(images))


class TestProperties:
    @given(permutations(), permutations())
    def test_compose_requires_matching_degree(self, p, q):
        if p.degree == q.degree:
            r = p * q
            assert all(r(x) == p(q(x)) for x in range(1, p.degree + 1))
        else:
            with pytest.raises(ValueError):
                p * q

    @given(permutations())
    def test_inverse_round_trip(self, p):
        assert p.inverse().inverse() == p
        assert (p * p.inverse()) == Permutation.identity(p.degree)

    @given(permutations())
    def test_distance_is_k_minus_cycles(self, p):
        assert p.transposition_distance() == p.degree - len(p.cycles())

    @given(permutations(), permutations())
    def test_distance_triangle_inequality(self, p, q):
        if p.degree != q.degree:
            return
        assert (p * q).transposition_distance() <= (
            p.transposition_distance() + q.transposition_distance()
        )
