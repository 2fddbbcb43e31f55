"""Weingarten table: exact values, series, and magnitude envelopes.

Oracles used here, none of which uses the characters of S_k:
* the full k! x k! Gram matrix G[p, q] = n^{#cycles(p q^-1)} inverted over
  exact rationals with sympy (its pseudo-inverse below the degree); its
  identity row is the Weingarten function;
* the S_k census and Gaussian solve of the class orthogonality system, and
  the dynamic program over monotone transposition words
  (``weingarten_oracles``);
* the class sums sum_mu |C_mu| wg(mu) = 1 / prod_{j<k} (n + j) and
  sum_mu |C_mu| c_r(mu) = h_r(1, ..., k-1).
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ringmoments.permutations import Permutation, all_permutations
from ringmoments.weingarten import (
    class_representative,
    integer_partitions,
    monotone_counts,
    wg_alt_bounds,
    wg_bound,
    wg_character_table,
    wg_class_table,
    wg_exact,
    wg_series,
)
from weingarten_oracles import (
    census_class_table,
    full_cycle,
    monotone_count_table,
    transposition,
)


def gram_inverse_row(k: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Weingarten values by brute inversion of the moment Gram matrix; below
    the degree, where it is singular, by its Moore-Penrose pseudo-inverse."""
    perms = list(all_permutations(k))
    index = {p: a for a, p in enumerate(perms)}
    g = sympy.zeros(len(perms), len(perms))
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            g[a, b] = sympy.Integer(n) ** len((p * q.inverse()).cycle_type())
    inv = g.inv() if n >= k else g.pinv()
    ident = index[Permutation.identity(k)]
    out = {}
    for b, q in enumerate(perms):
        numer, denom = sympy.fraction(sympy.nsimplify(inv[ident, b]))
        val = Fraction(int(numer), int(denom))
        out.setdefault(q.cycle_type(), val)
        assert out[q.cycle_type()] == val, "inverse row not a class function"
    return out


def class_size(mu: tuple[int, ...]) -> int:
    """|C_mu| = k! / prod_i i^(m_i) m_i!."""
    z = math.prod(i**m * math.factorial(m) for i, m in Counter(mu).items())
    return math.factorial(sum(mu)) // z


class TestExactTable:
    @pytest.mark.parametrize("k,n", [(1, 1), (1, 4), (2, 2), (2, 5), (3, 3), (3, 6), (4, 4), (4, 7)])
    def test_matches_gram_inversion(self, k, n):
        oracle = gram_inverse_row(k, n)
        table = wg_class_table(k, n)
        assert table == oracle

    def test_degree_one(self):
        for n in range(1, 8):
            assert wg_exact(1, n, Permutation.identity(1)) == Fraction(1, n)

    def test_degree_two_closed_forms(self):
        for n in range(2, 9):
            assert wg_exact(2, n, Permutation.identity(2)) == Fraction(1, n * n - 1)
            assert wg_exact(2, n, transposition(2, 1, 2)) == Fraction(
                -1, n * (n * n - 1)
            )

    def test_degree_three_closed_forms(self):
        for n in (3, 4, 5, 9):
            d = n * (n * n - 1) * (n * n - 4)
            assert wg_exact(3, n, Permutation.identity(3)) == Fraction(n * n - 2, d)
            assert wg_exact(3, n, transposition(3, 1, 2)) == Fraction(
                -1, (n * n - 1) * (n * n - 4)
            )
            assert wg_exact(3, n, full_cycle(3)) == Fraction(2, d)

    def test_class_function(self):
        for p in all_permutations(4):
            assert wg_exact(4, 5, p) == wg_exact(4, 5, class_representative(p.cycle_type(), 4))

    def test_orthogonality_relations(self):
        # sum over tau of n^{#cycles(tau^-1 pi)} Wg(tau) = [pi == id]
        for k in (2, 3, 4):
            for n in (k, k + 2, 11):
                taus = list(all_permutations(k))
                for lam in integer_partitions(k):
                    pi = class_representative(lam, k)
                    total = sum(
                        Fraction(n) ** len((tau.inverse() * pi).cycle_type()) * wg_exact(k, n, tau)
                        for tau in taus
                    )
                    assert total == (1 if pi == Permutation.identity(k) else 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            wg_class_table(0, 5)
        with pytest.raises(ValueError):
            wg_class_table(3, 0)

    @pytest.mark.parametrize("k,n", [(2, 1), (3, 1), (3, 2)])
    def test_below_the_degree_is_the_gram_pseudo_inverse(self, k, n):
        # the Gram system is singular at n < k; the table is its
        # Moore-Penrose pseudo-inverse, the one Haar moments at n use
        assert wg_class_table(k, n) == gram_inverse_row(k, n)

    def test_no_degree_ceiling(self):
        # k = 9 is past what an S_k census enumerates in reasonable time
        table = wg_class_table(9, 50)
        assert sum(class_size(mu) * v for mu, v in table.items()) == Fraction(
            1, math.prod(range(50, 59))
        )
        assert table[(1,) * 9] > 0 > table[(2,) + (1,) * 7]

    def test_high_degree_smoke(self):
        # k = 6 has 11 classes; spot the sign pattern (-1)^{distance}
        table = wg_class_table(6, 9)
        for lam, value in table.items():
            distance = 6 - len(lam)
            assert (value > 0) == (distance % 2 == 0)


class TestCharacterTable:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_equals_class_table_from_the_degree_up(self, k):
        # against the S_k census and Gaussian solve of the class system
        for n in range(k, k + 6):
            assert wg_class_table(k, n) == census_class_table(k, n), (k, n)

    def test_degree_eight_tables_of_the_benchmark(self):
        # the degree-8 tables the exact benchmark reads, n = 8..16, against
        # the S_8 census and Gaussian solve of the class system; below, degree
        # 8 is checked only through character orthogonality and class sums
        for n in range(8, 17):
            assert wg_class_table(8, n) == census_class_table(8, n), n

    def test_defined_below_the_degree(self):
        # at n = 1 < k = 2 the class system is singular; only the one-row
        # shape (2) survives, with weight 1 / (hook 2 * content 1 * 2), and
        # the four matching pairs of |u_11|^4 sum to |u|^4 = 1
        assert wg_class_table(2, 1) == {(2,): Fraction(1, 4), (1, 1): Fraction(1, 4)}

    @pytest.mark.parametrize("k", range(1, 10))
    def test_characters_are_orthonormal(self, k):
        # chi_lam(1^k) = k! / H_lam, and the class-weighted rows are
        # orthonormal: sum_mu |C_mu| chi_lam(mu) chi_nu(mu) = k! [lam == nu]
        irreps = wg_character_table(k)
        assert [irrep.shape for irrep in irreps] == list(integer_partitions(k))
        for a in irreps:
            assert a.characters[(1,) * k] * a.hook == math.factorial(k)
            assert sorted(a.contents) == sorted(
                j - i for i, row in enumerate(a.shape) for j in range(row)
            )
            for b in irreps:
                inner = sum(
                    class_size(mu) * a.characters[mu] * b.characters[mu]
                    for mu in integer_partitions(k)
                )
                assert inner == (math.factorial(k) if a is b else 0)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_class_sum_is_the_rising_factorial(self, k):
        # sum over S_k of wg = E|u_11|^(2k) / k! = 1 / (n (n+1) ... (n+k-1)),
        # at every n, below the degree too
        for n in sorted({1, 2, max(k - 1, 1), k, 2 * k}):
            table = wg_class_table(k, n)
            total = sum(class_size(mu) * value for mu, value in table.items())
            assert total == Fraction(1, math.prod(range(n, n + k))), (k, n)


class TestMonotoneCountEngine:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_class_sum_is_the_complete_symmetric_polynomial(self, k):
        # all words of length r: t_1 <= ... <= t_r and s_j < t_j, so
        # sum_mu |C_mu| c_r(mu) = h_r(1, ..., k-1)
        r_max = k * k + 4
        h = [1] + [0] * r_max
        for x in range(1, k):
            for r in range(1, r_max + 1):
                h[r] += x * h[r - 1]
        counts = monotone_counts(k, r_max)
        for r in range(r_max + 1):
            assert sum(class_size(mu) * row[r] for mu, row in counts.items()) == h[r], (k, r)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_the_word_dp(self, k):
        levels = monotone_count_table(k, 8)
        counts = monotone_counts(k, 8)
        for mu, row in counts.items():
            rep = class_representative(mu, k).images
            assert list(row) == [level.get(rep, 0) for level in levels], (k, mu)


class TestPartitions:
    def test_partition_counts(self):
        counts = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
        for k, expect in counts.items():
            parts = list(integer_partitions(k))
            assert len(parts) == expect
            assert len(set(parts)) == expect
            for lam in parts:
                assert sum(lam) == k
                assert all(lam[a] >= lam[a + 1] for a in range(len(lam) - 1))

    def test_class_representative_type(self):
        for k in range(1, 7):
            for lam in integer_partitions(k):
                assert class_representative(lam, k).cycle_type() == lam
        with pytest.raises(ValueError, match="does not sum to 4"):
            class_representative((2, 1), 4)


class TestValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda pi: wg_exact(3, 4, pi),
            lambda pi: wg_series(3, 4, pi, 2),
            lambda pi: wg_bound(3, 8, pi),
            lambda pi: wg_alt_bounds(3, 8, pi, 2),
        ],
        ids=["wg_exact", "wg_series", "wg_bound", "wg_alt_bounds"],
    )
    def test_degree_mismatch(self, call):
        with pytest.raises(ValueError, match="degree 2 does not match k=3"):
            call(Permutation.identity(2))

    def test_series_domain(self):
        pi = Permutation.identity(2)
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            wg_series(2, 0, pi, 2)
        with pytest.raises(ValueError, match="truncation order must be nonnegative"):
            wg_series(2, 4, pi, -1)
        with pytest.raises(ValueError, match="word length must be nonnegative"):
            monotone_counts(2, -1)


class TestSeries:
    def test_partial_sum_swap_example(self):
        val = wg_series(2, 10, transposition(2, 1, 2), r_max=3)
        assert val.series_partial == Fraction(-101, 100000)
        assert val.exact == Fraction(-1, 990)
        assert val.tail_bound == Fraction(1, 100000)
        assert abs(val.exact - val.series_partial) <= val.tail_bound

    def test_partial_sum_identity_example(self):
        val = wg_series(2, 10, Permutation.identity(2), r_max=4)
        assert val.series_partial == Fraction(10101, 1000000)
        assert val.exact == Fraction(1, 99)

    def test_degree_one_is_exact_at_zero(self):
        val = wg_series(1, 7, Permutation.identity(1), r_max=0)
        assert val.series_partial == val.exact == Fraction(1, 7)
        assert val.tail_bound == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_tail_bound_covers_truncation(self, k):
        for n in (2 * k * k, 2 * k * k + 5):
            for lam in integer_partitions(k):
                pi = class_representative(lam, k)
                for r_max in (k * k, k * k + 4):
                    val = wg_series(k, n, pi, r_max=r_max)
                    assert val.exact is not None
                    assert abs(val.exact - val.series_partial) <= val.tail_bound, (
                        f"k={k} n={n} type={lam} r_max={r_max}"
                    )

    def test_divergent_regime_marks_tail_infinite(self):
        # k^2 = 9 >= 2n = 8: partial sum still defined, tail marker None
        val = wg_series(3, 4, Permutation.identity(3))
        assert val.tail_bound is None
        assert val.series_partial is not None

    def test_truncation_error_decreases_beyond_k_squared(self):
        for k in (2, 3, 4):
            n = max(k * k, (k * k) // 2 + 1)
            if k * k >= 2 * n:
                n = k * k
            for lam in integer_partitions(k):
                pi = class_representative(lam, k)
                exact = wg_exact(k, n, pi)
                errors = [
                    abs(exact - wg_series(k, n, pi, r_max=r).series_partial)
                    for r in range(k * k, k * k + 6)
                ]
                assert all(errors[a] >= errors[a + 1] for a in range(len(errors) - 1))


class TestMagnitudeBound:
    def test_frozen_degree_two_values(self):
        b_id = wg_bound(2, 10, Permutation.identity(2))
        b_swap = wg_bound(2, 10, transposition(2, 1, 2))
        assert b_id.value == Fraction(49, 4800)
        assert b_swap.value == Fraction(1, 800)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_bound_dominates_exact(self, k):
        for n in range(max(k, (k * k) // 2 + 1), 26):
            if k * k >= 2 * n:
                continue
            for lam in integer_partitions(k):
                pi = class_representative(lam, k)
                assert abs(wg_exact(k, n, pi)) <= wg_bound(k, n, pi).value

    def test_bound_requires_margin(self):
        with pytest.raises(ValueError):
            wg_bound(4, 8, Permutation.identity(4))  # k^2 = 16 >= 2n = 16

    def test_identity_and_offdiagonal_scales(self):
        # identity bound ~ n^-k, distance-d bound ~ n^-(k+d)
        b0 = wg_bound(3, 50, Permutation.identity(3))
        b1 = wg_bound(3, 50, transposition(3, 1, 2))
        b2 = wg_bound(3, 50, full_cycle(3))
        assert b0.value > b1.value > b2.value


class TestAltBounds:
    def test_power_bound_applicability(self):
        # k^j = 4 > n = 3: inapplicable
        alt = wg_alt_bounds(2, 3, transposition(2, 1, 2), j=2)
        assert alt.power_bound is None
        assert wg_alt_bounds(2, 4, transposition(2, 1, 2), j=2).power_bound is not None

    def test_power_bound_values(self):
        # the source leaves the constant K_j unspecified and it is not applied,
        # so only the functional form is checked, never domination of the exact value
        pi = transposition(2, 1, 2)
        alt = wg_alt_bounds(2, 16, pi, j=2)
        # exponent k + d(1 - 2/j) = 2 + 0 with j=2
        assert alt.power_bound == pytest.approx(16.0 ** -2)
        alt3 = wg_alt_bounds(2, 16, pi, j=3)
        assert alt3.power_bound == pytest.approx(16.0 ** -(2 + 1.0 / 3.0))

    def test_catalan_bound(self):
        pi = Permutation.identity(2)
        alt = wg_alt_bounds(2, 16, pi, j=2)
        # 3*C_1/2 = 3/2 at distance 0: 1.5 * n^-2; requires k^(3/2) <= n
        assert alt.catalan_bound == pytest.approx(1.5 * 16.0 ** -2)
        assert wg_alt_bounds(5, 11, Permutation.identity(5), j=2).catalan_bound is None

    def test_catalan_bound_dominates_exact_when_applicable(self):
        for k in (2, 3):
            for n in (k ** 2, k ** 2 + 5):
                for lam in integer_partitions(k):
                    pi = class_representative(lam, k)
                    alt = wg_alt_bounds(k, n, pi, j=3)
                    if alt.catalan_bound is not None:
                        val = abs(float(wg_exact(k, n, pi)))
                        assert val <= alt.catalan_bound * (1 + 1e-12)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=8),
    )
    def test_inversion_invariance(self, k, salt):
        perms = list(all_permutations(k))
        pi = perms[salt % len(perms)]
        n = k + 3
        assert wg_exact(k, n, pi) == wg_exact(k, n, pi.inverse())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=5))
    def test_identity_dominates_class_values(self, k):
        n = 2 * k * k
        table = wg_class_table(k, n)
        top = table[tuple([1] * k)]
        assert all(abs(v) <= top for v in table.values())
