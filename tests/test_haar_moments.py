"""Entry moments of Haar unitaries: closed forms, unitarity sums, MC agreement.

The coset-counted census, and its memo per word shape, are checked against
the pair-by-pair enumeration of ``weingarten_oracles.pairwise_entry_census``."""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ringmoments import exact_moments, haar_moments
from ringmoments.haar_moments import (
    MAX_WORD_LENGTH,
    MomentSpec,
    entry_moment,
    word_census,
)
from ringmoments.montecarlo import mc_entry_moment
from ringmoments.permutations import MEMO_DEGREE
from ringmoments.weingarten import wg_class_table
from weingarten_oracles import pairwise_entry_census

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def moment(n, rows, cols, conj_rows, conj_cols):
    return entry_moment(MomentSpec(n, rows, cols, conj_rows, conj_cols))


def census_of(spec: MomentSpec) -> Counter:
    """The production census of ``spec`` (``word_census``) as a Counter."""
    return Counter(dict(word_census(spec.rows, spec.cols, spec.conj_rows, spec.conj_cols)))


class TestClosedForms:
    def test_single_entry_modulus(self):
        # E|u_ab|^2 = 1/n for every entry
        for n in range(1, 7):
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    assert moment(n, (a,), (b,), (a,), (b,)) == Fraction(1, n)

    def test_fourth_moment_same_entry(self):
        # E|u_11|^4 = 2/(n(n+1))
        for n in range(1, 7):
            assert moment(n, (1, 1), (1, 1), (1, 1), (1, 1)) == Fraction(2, n * (n + 1))

    def test_fourth_moment_shared_row(self):
        # E|u_11|^2 |u_12|^2 = 1/(n(n+1))
        for n in range(2, 7):
            assert moment(n, (1, 1), (1, 2), (1, 1), (1, 2)) == Fraction(1, n * (n + 1))

    def test_fourth_moment_disjoint_entries(self):
        # distinct rows and columns force the identity matching pair:
        # E|u_11|^2 |u_22|^2 = Wg(id) = 1/(n^2-1)
        for n in range(2, 7):
            assert moment(n, (1, 2), (1, 2), (1, 2), (1, 2)) == Fraction(1, n * n - 1)

    def test_pair_sums_close_to_one(self):
        # sum over column choices of E|u_1a|^2 |u_2b|^2 = 1
        for n in (2, 3, 4):
            total = sum(
                moment(n, (1, 2), (a, b), (1, 2), (a, b))
                for a in range(1, n + 1)
                for b in range(1, n + 1)
            )
            assert total == 1

    def test_swapped_conjugate_columns(self):
        # E[u_11 u_22 conj(u_12) conj(u_21)] = -1/(n(n^2-1))
        for n in range(2, 7):
            assert moment(n, (1, 2), (1, 2), (1, 2), (2, 1)) == Fraction(
                -1, n * (n * n - 1)
            )

    def test_scalar_unitary(self):
        # n=1: every balanced word has expectation 1
        for k in range(1, 5):
            ones = tuple([1] * k)
            assert moment(1, ones, ones, ones, ones) == 1


class TestStructuralZeros:
    def test_row_multiset_mismatch(self):
        assert moment(3, (1, 1), (1, 2), (1, 2), (1, 2)) == 0

    def test_column_multiset_mismatch(self):
        assert moment(3, (1, 2), (1, 1), (1, 2), (1, 2)) == 0

    def test_unbalanced_degree_rejected(self):
        with pytest.raises(ValueError):
            MomentSpec(3, (1,), (1,), (1, 2), (1, 2))

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="at least one factor"):
            MomentSpec(3, (), (), (), ())

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            MomentSpec(2, (3,), (1,), (3,), (1,))
        with pytest.raises(ValueError):
            MomentSpec(2, (0,), (1,), (0,), (1,))

    def test_degree_ceiling(self):
        deep = tuple([1] * (MAX_WORD_LENGTH + 1))
        with pytest.raises(ValueError):
            entry_moment(MomentSpec(1, deep, deep, deep, deep))


class TestEntryCensus:
    def test_same_entry_fourth_moment(self):
        # two matchings on each side: sigma^-1 tau is the identity twice and
        # the swap twice
        ones = (1, 1)
        census = census_of(MomentSpec(3, ones, ones, ones, ones))
        assert census == {(1, 1): 2, (2,): 2}

    def test_mismatch_is_empty(self):
        assert not census_of(MomentSpec(3, (1, 1), (1, 2), (1, 2), (1, 2)))

    def test_independent_of_dimension_and_labels(self):
        spec = MomentSpec(4, (1, 2, 1), (2, 3, 3), (2, 1, 1), (3, 2, 3))
        relabelled = MomentSpec(9, (7, 4, 7), (4, 9, 9), (4, 7, 7), (9, 4, 9))
        assert census_of(spec) == census_of(relabelled)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_moment_is_census_dot_table(self, n):
        spec = MomentSpec(n, (1, 2, 1), (2, 1, 1), (2, 1, 1), (1, 1, 2))
        assert entry_moment(spec) == wg_class_table(3, n).weigh(census_of(spec).items())


    def test_integer_value_is_the_fraction_sum(self):
        # one integer dot product over the table's common denominator gives
        # the Fraction that summing count * value type by type gives
        rng = random.Random(20261020)
        for k in range(1, MAX_WORD_LENGTH + 1):
            for _ in range(4):
                census = census_of(random_word(rng, k, rng.randint(1, 4), balanced=True))
                assert census
                for n in range(1, 17):
                    table = wg_class_table(k, n)
                    expect = sum(
                        (count * table[lam] for lam, count in census.items()), Fraction(0)
                    )
                    value = table.weigh(census.items())
                    assert (value.numerator, value.denominator) == (
                        expect.numerator,
                        expect.denominator,
                    ), (k, n, census)


class TestEntryCensusOracle:
    """The coset count equals the census over every matching pair."""

    def test_seeded_random_words(self):
        rng = random.Random(20261018)
        shapes = {"balanced": 0, "unbalanced": 0}
        for _ in range(150):
            k, n = rng.randint(1, 6), rng.randint(1, 4)
            rows = tuple(rng.randint(1, n) for _ in range(k))
            cols = tuple(rng.randint(1, n) for _ in range(k))
            if rng.random() < 0.7:
                conj_rows = tuple(rng.sample(rows, k))
                conj_cols = tuple(rng.sample(cols, k))
            else:
                conj_rows = tuple(rng.randint(1, n) for _ in range(k))
                conj_cols = tuple(rng.randint(1, n) for _ in range(k))
            spec = MomentSpec(n, rows, cols, conj_rows, conj_cols)
            census = census_of(spec)
            assert census == pairwise_entry_census(spec), spec
            shapes["balanced" if census else "unbalanced"] += 1
        assert min(shapes.values()) > 20, shapes

    def test_benchmark_words(self):
        words = json.loads(REFERENCES.read_text())["em8"]
        specs = [MomentSpec(int(m), *map(tuple, w[:4])) for m, pool in words.items() for w in pool]
        assert len(specs) == 24
        for spec in specs:
            assert census_of(spec) == pairwise_entry_census(spec), spec

    def test_all_equal_word(self):
        # |Y n Z| = k!: one coset representative, k! products, weight k!
        for k in range(1, 6):
            ones = (1,) * k
            spec = MomentSpec(2, ones, ones, ones, ones)
            census = census_of(spec)
            assert census == pairwise_entry_census(spec)
            assert sum(census.values()) == math.factorial(k) ** 2


def random_word(rng: random.Random, k: int, n: int, balanced: bool) -> MomentSpec:
    rows = tuple(rng.randint(1, n) for _ in range(k))
    cols = tuple(rng.randint(1, n) for _ in range(k))
    if balanced:
        return MomentSpec(n, rows, cols, tuple(rng.sample(rows, k)), tuple(rng.sample(cols, k)))
    conj_rows = tuple(rng.randint(1, n) for _ in range(k))
    conj_cols = tuple(rng.randint(1, n) for _ in range(k))
    return MomentSpec(n, rows, cols, conj_rows, conj_cols)


def shape_variant(rng: random.Random, spec: MomentSpec) -> MomentSpec:
    """``spec`` with its unconjugated factors reordered, its conjugated
    factors reordered, and its row and column values relabelled, each at
    random: a word of the same shape."""
    k, n = spec.k, spec.n
    plain, conj = rng.sample(range(k), k), rng.sample(range(k), k)
    row_map, col_map = rng.sample(range(1, n + 1), n), rng.sample(range(1, n + 1), n)
    return MomentSpec(
        n,
        tuple(row_map[spec.rows[j] - 1] for j in plain),
        tuple(col_map[spec.cols[j] - 1] for j in plain),
        tuple(row_map[spec.conj_rows[j] - 1] for j in conj),
        tuple(col_map[spec.conj_cols[j] - 1] for j in conj),
    )


@pytest.fixture
def cold_memo():
    """Every census memo cleared before and after the test, so that a
    patched census function can leave nothing behind."""
    def clear():
        haar_moments._word_census.cache_clear()
        exact_moments.route_censuses.cache_clear()

    clear()
    yield
    clear()


class TestLongWords:
    """Words longer than ``MEMO_DEGREE``: their Young subgroups and product
    sets are built afresh, and each product's cycles are walked instead of
    read off a table."""

    @pytest.mark.parametrize("k", [7, 8])
    def test_match_the_pairwise_census(self, k, cold_memo):
        assert k > MEMO_DEGREE
        rng = random.Random(20261030 + k)
        for _ in range(12):
            n = rng.randint(3, 4)
            spec = random_word(rng, k, n, balanced=True)
            expect = pairwise_entry_census(spec)
            assert census_of(spec) == expect, spec
            assert entry_moment(spec) == wg_class_table(k, n).weigh(expect.items()), spec


class TestShapeMemo:
    """The census is memoised per word shape: every word of one shape gets
    the oracle census, whichever of them fills the memo."""

    def test_shape_variants_match_the_oracle(self, cold_memo):
        rng = random.Random(20261019)
        shapes = {"balanced": 0, "unbalanced": 0}
        for _ in range(120):
            k, n = rng.randint(1, 6), rng.randint(1, 4)
            spec = random_word(rng, k, n, balanced=rng.random() < 0.7)
            expect = pairwise_entry_census(spec)
            shapes["balanced" if expect else "unbalanced"] += 1
            variants = [shape_variant(rng, spec) for _ in range(4)]
            assert pairwise_entry_census(variants[0]) == expect, variants[0]
            for variant in [spec] + variants:
                assert census_of(variant) == expect, variant
        assert min(shapes.values()) > 20, shapes

    def test_pairs_stay_together(self, cold_memo):
        # equal sorted rows and sorted cols, different (row, col) pairs
        swapped = MomentSpec(2, (1, 2), (1, 2), (1, 2), (2, 1))
        straight = MomentSpec(2, (1, 2), (1, 2), (1, 2), (1, 2))
        for spec in (straight, swapped, straight):
            assert census_of(spec) == pairwise_entry_census(spec)
        assert census_of(swapped) != census_of(straight)

    def test_one_build_per_shape(self, cold_memo, monkeypatch):
        # route A looks up each distinct conjugated side of a pattern's
        # rearrangements once; every build is a new canonical form
        shapes = []

        def counted(plain, conj):
            shapes.append(min((plain, conj), (conj, plain)))
            return haar_moments.side_census(plain, conj)

        monkeypatch.setattr(exact_moments, "side_census", counted)
        for statistic, orders in (("uu", range(2, 7)), ("sq", range(1, 6))):
            for k in orders:
                for pattern in exact_moments.equality_patterns(k):
                    exact_moments.route_censuses(statistic, pattern)
        misses = haar_moments._word_census.cache_info().misses
        # 1333 sorted-side keys, 270 shapes up to relabelling rows and columns
        assert misses == len(set(shapes)) <= 1333
        assert misses < len(shapes) == 2086

    def test_swapped_sides_share_a_key(self, cold_memo):
        # the word with its unconjugated and conjugated factors exchanged has
        # the same census, and the memo keeps one build for both
        rng = random.Random(20261021)
        for _ in range(60):
            k, n = rng.randint(1, 5), rng.randint(1, 4)
            spec = random_word(rng, k, n, balanced=rng.random() < 0.7)
            swapped = MomentSpec(n, spec.conj_rows, spec.conj_cols, spec.rows, spec.cols)
            haar_moments._word_census.cache_clear()
            expect = pairwise_entry_census(spec)
            assert pairwise_entry_census(swapped) == expect, spec
            assert census_of(spec) == census_of(swapped) == expect, spec
            assert haar_moments._word_census.cache_info().currsize == 1, spec

    def test_returned_census_is_shared_and_immutable(self, cold_memo):
        spec = MomentSpec(3, (1, 1, 2), (1, 2, 2), (2, 1, 1), (2, 1, 2))
        word = (spec.rows, spec.cols, spec.conj_rows, spec.conj_cols)
        census = word_census(*word)
        assert isinstance(census, tuple) and word_census(*word) is census
        assert census_of(spec) == pairwise_entry_census(spec) != {}


class TestUnitarityIdentities:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_row_normalization(self, n):
        # sum_j E|u_1j|^2 = 1
        total = sum(moment(n, (1,), (j,), (1,), (j,)) for j in range(1, n + 1))
        assert total == 1

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_row_orthogonality(self, n):
        # sum_j E[u_1j conj(u_2j)] = 0
        total = sum(moment(n, (1,), (j,), (2,), (j,)) for j in range(1, n + 1))
        assert total == 0

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_higher_degree_diagonal_products(self, n, k):
        # E prod_s (U U*)_{s s} = 1 expands into a degree-k entry moment sum
        rows = tuple(range(1, k + 1))
        total = Fraction(0)
        for cols in itertools.product(range(1, n + 1), repeat=k):
            total += moment(n, rows, cols, rows, cols)
        assert total == 1

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2)])
    def test_higher_degree_offdiagonal_products(self, n, k):
        # E (U U*)_{1 2} prod_{s>=2} (U U*)_{s s} = 0
        rows = tuple(range(1, k + 1))
        conj_rows = (2,) + tuple(range(2, k + 1))
        total = Fraction(0)
        for cols in itertools.product(range(1, n + 1), repeat=k):
            total += moment(n, rows, cols, conj_rows, cols)
        assert total == 0


class TestInvariances:
    def test_relabeling_rows_and_columns(self):
        # Haar invariance: permuting row labels or column labels fixes the moment
        base = moment(4, (1, 2), (3, 1), (1, 2), (3, 1))
        relabeled = moment(4, (3, 4), (2, 3), (3, 4), (2, 3))
        assert base == relabeled

    def test_transpose_symmetry(self):
        # U and U^T are equal in distribution: swap row/column roles
        a = moment(4, (1, 1), (1, 2), (1, 1), (1, 2))
        b = moment(4, (1, 2), (1, 1), (1, 2), (1, 1))
        assert a == b

    def test_factor_order_within_word(self):
        # product of commuting scalars: factor order never matters
        a = moment(4, (1, 2), (2, 1), (1, 2), (2, 1))
        b = moment(4, (2, 1), (1, 2), (2, 1), (1, 2))
        assert a == b

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=5), st.data())
    def test_conjugating_both_words(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=3))
        rows = tuple(data.draw(st.integers(min_value=1, max_value=n)) for _ in range(k))
        cols = tuple(data.draw(st.integers(min_value=1, max_value=n)) for _ in range(k))
        relabel = data.draw(st.permutations(tuple(range(1, n + 1))))
        mapped_rows = tuple(relabel[r - 1] for r in rows)
        mapped_cols = tuple(relabel[c - 1] for c in cols)
        assert moment(n, rows, cols, rows, cols) == moment(
            n, mapped_rows, mapped_cols, mapped_rows, mapped_cols
        )


class TestMonteCarloAgreement:
    @pytest.mark.parametrize(
        "rows,cols,conj_rows,conj_cols",
        [
            ((1,), (1,), (1,), (1,)),
            ((1, 1), (1, 2), (1, 1), (1, 2)),
            ((1, 2), (1, 2), (1, 2), (2, 1)),
        ],
    )
    def test_estimate_matches_exact(self, rows, cols, conj_rows, conj_cols):
        n = 3
        spec = MomentSpec(n, rows, cols, conj_rows, conj_cols)
        exact = float(entry_moment(spec))
        est = mc_entry_moment(spec, samples=40000, seed=11)
        assert est.samples == 40000
        tol = 4 * est.std_error + 1e-12
        assert abs(est.mean - exact) <= tol

    def test_estimator_is_deterministic(self):
        spec = MomentSpec(3, (1,), (2,), (1,), (2,))
        a = mc_entry_moment(spec, samples=5000, seed=17)
        b = mc_entry_moment(spec, samples=5000, seed=17)
        assert a == b
        c = mc_entry_moment(spec, samples=5000, seed=18)
        assert a.mean != c.mean
