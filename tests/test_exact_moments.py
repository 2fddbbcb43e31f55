"""Exact trace moments: dual evaluation paths, closed identities, envelopes.

Oracle used here: the unreduced double index sum.  For the uu moment it sums
entry moments of the open word pairs over all i, j in {1..n}^k with matching
endpoints; for the sq moment over all cyclic pairs.  It shares nothing with
the pattern-deduplicated production path except entry_moment itself.  The
Moebius pattern weights of ``weingarten_oracles``, which ``census_oracle``
uses, are checked against the enumeration of injective assignments; the
counting chain's closed forms against sums over every index tuple, and the
counting lemma against the word-by-word count.
"""

import functools
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ringmoments import exact_moments
from ringmoments.exact_moments import (
    CrossCheckError,
    composition_census,
    equality_patterns,
    f_i,
    f_paths,
    g_i,
    g_paths,
    route_censuses,
    theorem_bound,
    trace_moment_sq,
    trace_moment_uu,
    verify_counting_lemma,
)
from ringmoments.haar_moments import MomentSpec, entry_moment, word_side
from ringmoments.montecarlo import estimate_trace_moment
from ringmoments.permutations import (
    Permutation,
    compose_images,
    enumerate_sk0,
    invert_images,
    young_subgroup_images,
)
from ringmoments.profiles import SingularProfile
from ringmoments.weingarten import wg_class_table
from weingarten_oracles import (
    counting_lemma_distances,
    full_cycle,
    ordered_injective_weight,
    pairwise_entry_census,
    power_sums,
    set_partition_terms,
    unfolded_route_b_census,
    weighted_patterns,
)

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def brute_uu(k: int, profile: SingularProfile) -> Fraction:
    n = profile.n
    s = profile.values
    total = Fraction(0)
    for i in itertools.product(range(1, n + 1), repeat=k):
        for j in itertools.product(range(1, n + 1), repeat=k):
            if j[0] != i[0] or j[-1] != i[-1]:
                continue
            w = Fraction(1)
            for a in range(k):
                w *= Fraction(s[i[a] - 1]) * Fraction(s[j[a] - 1])
            total += w * entry_moment(
                MomentSpec(n, rows=i[:-1], cols=i[1:], conj_rows=j[:-1], conj_cols=j[1:])
            )
    return total


def brute_sq(k: int, profile: SingularProfile) -> Fraction:
    n = profile.n
    s = profile.values
    total = Fraction(0)
    for i in itertools.product(range(1, n + 1), repeat=k):
        for j in itertools.product(range(1, n + 1), repeat=k):
            w = Fraction(1)
            for a in range(k):
                w *= Fraction(s[i[a] - 1]) * Fraction(s[j[a] - 1])
            total += w * entry_moment(
                MomentSpec(
                    n,
                    rows=i,
                    cols=i[1:] + i[:1],
                    conj_rows=j,
                    conj_cols=j[1:] + j[:1],
                )
            )
    return total


def ramp(n: int) -> SingularProfile:
    return SingularProfile.from_values([Fraction(v) for v in range(1, n + 1)])


def census_oracle(k: int, profile: SingularProfile, inner) -> Fraction:
    """sum_i prod_l s_{i_l}^2 * inner(i) over all i in {1..n}^k, folded over
    equality patterns: the per-profile Weingarten-census evaluation that the
    hook sums replace."""
    total = Fraction(0)
    for pattern, _sizes, weight in weighted_patterns(k, profile):
        if weight != 0:
            total += inner(pattern) * weight
    return total


def seeded_profile(rng, n: int) -> SingularProfile:
    return SingularProfile.from_values(
        [Fraction(rng.randint(0, 9), rng.randint(1, 5)) for _ in range(n)]
    )


class TestInnerAverages:
    def test_uu_is_reciprocal_dimension_at_order_two(self):
        for n in (1, 2, 3, 5):
            for i in ((1, 1),) + (((1, 2),) if n >= 2 else ()):
                assert f_i(i, n) == Fraction(1, n)

    def test_uu_scalar_dimension(self):
        assert f_i((1, 1), 1) == 1

    def test_dual_paths_agree_exhaustively(self):
        for k in (2, 3, 4):
            for n in range(max(k - 1, 1), 5):
                for pattern in equality_patterns(k):
                    if max(pattern) > n:
                        continue
                    route_a, route_b = f_paths(pattern, n)
                    assert route_a == route_b, f"k={k} n={n} i={pattern}"
        for k in (1, 2, 3, 4):
            for n in range(k, 5):
                for pattern in equality_patterns(k):
                    if max(pattern) > n:
                        continue
                    route_a, route_b = g_paths(pattern, n)
                    assert route_a == route_b, f"k={k} n={n} i={pattern}"

    def test_l_constraint_prunes_route_b(self):
        # frozen spot values along both routes
        assert f_paths((1, 2, 1), 3) == (Fraction(1, 8), Fraction(1, 8))
        assert f_paths((1, 1, 2), 3) == (Fraction(1, 12), Fraction(1, 12))
        assert f_paths((1, 2, 3, 1), 3) == (Fraction(3, 40), Fraction(3, 40))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_i((1,), 2)  # needs k >= 2
        with pytest.raises(ValueError):
            f_i((1, 2, 3), 1)  # indices outside 1..n
        with pytest.raises(ValueError):
            g_i((1, 2, 3), 2)
        with pytest.raises(ValueError, match="degree >= 2"):
            route_censuses("uu", (1,))  # no endpoint-fixing subgroup
        # above the census orders there is no census to weigh
        with pytest.raises(ValueError, match="above supported ceiling 6"):
            f_paths((1,) * 7, 3)
        with pytest.raises(ValueError, match="above supported ceiling 5"):
            g_paths((1,) * 6, 3)

    @pytest.mark.parametrize("statistic,paths,inner", [("uu", "f_paths", f_i), ("sq", "g_paths", g_i)])
    def test_route_mismatch_raises(self, monkeypatch, statistic, paths, inner):
        # the inner average is returned only when both routes agree
        monkeypatch.setattr(exact_moments, paths, lambda indices, n: (Fraction(1), Fraction(2)))
        with pytest.raises(CrossCheckError, match=f"{statistic} inner average mismatch .*1 vs 2"):
            inner((1, 2), 3)

    def test_defined_below_the_degree(self):
        # a scalar unitary: every word averages to 1, one coset each
        assert f_i((1, 1, 1, 1), 1) == 1
        assert g_i((1, 1, 1), 1) == 1
        assert f_paths((1, 2, 1, 2, 1), 2)[0] == f_paths((1, 2, 1, 2, 1), 2)[1]

    def test_g_at_order_one(self):
        for n in (1, 2, 4):
            assert g_i((1,), n) == Fraction(1, n)


class TestIndexPattern:
    def test_pattern_canonicalization(self):
        assert exact_moments._index_pattern((3, 5, 3, 1), 5) == (1, 2, 1, 3)
        assert exact_moments._index_pattern((2, 2, 2), 2) == (1, 1, 1)

    def test_validation(self):
        # the checks run in this order, so each call names its first fault
        for paths in (f_paths, g_paths, f_i, g_i):
            with pytest.raises(ValueError, match=r"^index tuple must be nonempty$"):
                paths((), 0)
            with pytest.raises(ValueError, match=r"^ambient dimension must be at least 1$"):
                paths((0, 1), 0)
            with pytest.raises(ValueError, match=r"^entries \[0\] outside 1\.\.2$"):
                paths((0, 1), 2)
            with pytest.raises(ValueError, match=r"^entries \[3\] outside 1\.\.2$"):
                paths((1, 3), 2)


class TestRouteCensuses:
    """Route A and route B must produce the same Weingarten census, cycle
    type by cycle type, for every pattern in the supported range."""

    @pytest.mark.parametrize(
        "statistic,k",
        [("uu", k) for k in range(2, 7)] + [("sq", k) for k in range(1, 6)],
    )
    def test_routes_agree_as_integer_vectors(self, statistic, k):
        for pattern in equality_patterns(k):
            census_a = exact_moments._route_a_census(statistic, pattern)
            census_b = exact_moments._route_b_census(statistic, pattern)
            assert census_a == census_b, (statistic, pattern)
            assert all(count > 0 for count in census_a.values())
            degree = k - 1 if statistic == "uu" else k
            assert all(sum(lam) == degree for lam in census_a)

    @pytest.mark.parametrize(
        "statistic,k",
        [("uu", k) for k in range(2, 7)] + [("sq", k) for k in range(1, 6)],
    )
    def test_route_b_equals_the_unfolded_words(self, statistic, k):
        # the conjugacy fold against every (phi, alpha, dressing) word formed
        # in full
        for pattern in equality_patterns(k):
            folded = exact_moments._route_b_census(statistic, pattern)
            assert folded == unfolded_route_b_census(statistic, pattern), (statistic, pattern)

    @pytest.mark.parametrize(
        "statistic,k",
        [("uu", k) for k in range(2, 8)] + [("sq", k) for k in range(1, 7)],
    )
    def test_route_a_words_are_the_distinct_rearrangements(self, statistic, k, monkeypatch):
        # one conjugated word per coset of the pattern's stabilizer in the
        # universe, each a distinct rearrangement of the pattern, tallied by
        # side and each side looked up once against the pattern's own; the
        # stabilizers and universe are filtered out of all of S_k
        lookups = []

        def record(plain, conj):
            lookups.append((plain, conj))
            return ()

        monkeypatch.setattr(exact_moments, "side_census", record)
        group = list(itertools.permutations(range(1, k + 1)))
        universe = [phi for phi in group if statistic == "sq" or (phi[0], phi[-1]) == (1, k)]
        assert list(
            young_subgroup_images(exact_moments._young_labels(statistic, (1,) * k))
        ) == universe

        def side(word):
            # u[w_1, w_2] u[w_2, w_3] ..., open for uu and cyclic for sq
            if statistic == "uu":
                return word_side(word[:-1], word[1:])
            return word_side(word, word[1:] + word[:1])

        for pattern in equality_patterns(k):
            stab = [a for a in universe if all(pattern[a[l] - 1] == pattern[l] for l in range(k))]
            assert sorted(
                young_subgroup_images(exact_moments._young_labels(statistic, pattern))
            ) == stab
            # route A counts a renaming of the pattern, equal where it is
            # equal, or for uu of the reversed pattern
            word, plain = exact_moments._route_a_word(statistic, pattern)
            assert plain == side(word)
            forms = (pattern, pattern[::-1]) if statistic == "uu" else (pattern,)
            assert any(
                exact_moments._index_pattern(word, k) == exact_moments._index_pattern(form, k)
                for form in forms
            ), (statistic, pattern)
            least = exact_moments._least_rearrangement(statistic, word)
            words = exact_moments._rearrangements(statistic, least)
            assert len(words) == len(universe) // len(stab), (statistic, pattern)
            rearrangements = {
                w for w in itertools.permutations(word)
                if statistic == "sq" or (w[0], w[-1]) == (word[0], word[-1])
            }
            assert len(words) == len(rearrangements), (statistic, pattern)
            assert set(words) == rearrangements, (statistic, pattern)
            tally = Counter(map(side, rearrangements))
            assert dict(exact_moments._rearranged_sides(statistic, least)) == tally
            lookups.clear()
            exact_moments._route_a_census(statistic, pattern)
            assert sorted(lookups) == sorted((side(word), conj) for conj in tally)

    @pytest.mark.parametrize(
        "statistic,k",
        [("uu", k) for k in range(2, 7)] + [("sq", k) for k in range(1, 6)],
    )
    def test_route_a_is_the_pairwise_census_of_the_rearrangements(self, statistic, k):
        # route A against every matching pair of every rearranged word, one
        # word at a time, sharing nothing with the production tally, memo or
        # coset count
        for pattern in equality_patterns(k):
            expect: Counter = Counter()
            for w in set(itertools.permutations(pattern)):
                if statistic == "uu" and (w[0], w[-1]) != (pattern[0], pattern[-1]):
                    continue
                if statistic == "uu":
                    spec = MomentSpec(k, pattern[:-1], pattern[1:], w[:-1], w[1:])
                else:
                    spec = MomentSpec(k, pattern, pattern[1:] + pattern[:1], w, w[1:] + w[:1])
                expect.update(pairwise_entry_census(spec))
            assert exact_moments._route_a_census(statistic, pattern) == expect, (statistic, pattern)

    @pytest.mark.parametrize(
        "statistic,k",
        [("uu", k) for k in range(2, 7)] + [("sq", k) for k in range(1, 6)],
    )
    def test_class_representatives_name_the_conjugacy_classes(self, statistic, k):
        # route B's tally key against the orbits of all of S_k under
        # conjugation by the universe, formed in full
        universe = young_subgroup_images(exact_moments._young_labels(statistic, (1,) * k))
        orbits = {}
        for beta in itertools.permutations(range(1, k + 1)):
            orbit = frozenset(
                compose_images(compose_images(g, beta), invert_images(g)) for g in universe
            )
            orbits.setdefault(orbit, set()).add(exact_moments._class_representative(statistic, beta))
        assert all(len(reps) == 1 for reps in orbits.values())
        assert all(next(iter(reps)) in orbit for orbit, reps in orbits.items())
        assert len({next(iter(reps)) for reps in orbits.values()}) == len(orbits)

    def test_sq_census_mass_at_the_distinct_pattern(self):
        # sq at the all-distinct pattern: a trivial stabilizer, so route B
        # has one word per phi in S_k
        import math

        for k in (1, 2, 3, 4):
            census_a, census_b = route_censuses("sq", tuple(range(1, k + 1)))
            assert sum(census_b.values()) == math.factorial(k)
            assert census_a == census_b

    def test_mismatch_raises_naming_the_pattern(self, monkeypatch):
        pattern = (1, 2, 1, 2)
        real = exact_moments._route_b_census

        def skewed(statistic, pat):
            census = real(statistic, pat)
            census[(1,) * (len(pat) - 1)] += 1
            return census

        route_censuses.cache_clear()
        monkeypatch.setattr(exact_moments, "_route_b_census", skewed)
        try:
            with pytest.raises(CrossCheckError, match=r"\(1, 2, 1, 2\)"):
                route_censuses("uu", pattern)
            with pytest.raises(CrossCheckError):
                f_i((5, 3, 5, 3), 6)
        finally:
            route_censuses.cache_clear()

    def test_route_a_mismatch_raises_naming_the_pattern(self, monkeypatch):
        pattern = (1, 2, 1, 2)
        real = exact_moments._route_a_census

        def skewed(statistic, pat):
            census = real(statistic, pat)
            census[(1,) * (len(pat) - 1)] += 1
            return census

        route_censuses.cache_clear()
        monkeypatch.setattr(exact_moments, "_route_a_census", skewed)
        try:
            with pytest.raises(CrossCheckError, match=r"\(1, 2, 1, 2\)"):
                route_censuses("uu", pattern)
            with pytest.raises(CrossCheckError):
                f_i((5, 3, 5, 3), 6)
        finally:
            route_censuses.cache_clear()

    def test_endpoint_move_raises_naming_the_pattern(self, monkeypatch):
        # a conjugate set built from c instead of c^-1 sends k to 2 in every
        # gamma * beta, so the uu endpoint check must fire
        k = 4
        forward = tuple(range(2, k + 1)) + (1,)
        memos = (exact_moments._folded_census, exact_moments._dressed_census)
        for memo in memos:
            memo.cache_clear()
        monkeypatch.setattr(exact_moments, "_cycle_conjugates", lambda statistic, k: ((forward, 1),))
        try:
            with pytest.raises(CrossCheckError, match=r"endpoint.*\(1, 2, 1, 2\)"):
                exact_moments._route_b_census("uu", (1, 2, 1, 2))
        finally:
            for memo in memos:
                memo.cache_clear()

    def test_certification_tabulates_no_group_above_degree_five(self, monkeypatch):
        # the words of the census orders have length at most 5, and route
        # B's uu 6 folded censuses drop the fixed point k, so a cold
        # certification of uu 6 and sq 5 tabulates the cycle types of no S_6
        from ringmoments import haar_moments, permutations, weingarten

        def clear():
            for module in (permutations, weingarten, haar_moments, exact_moments):
                for value in vars(module).values():
                    if hasattr(value, "cache_clear"):
                        value.cache_clear()

        built = []
        real = permutations._cycle_type_table.__wrapped__

        @functools.lru_cache(maxsize=None)
        def recorded(k):
            built.append(k)
            return real(k)

        clear()
        monkeypatch.setattr(permutations, "_cycle_type_table", recorded)
        try:
            exact_moments._certify("uu", 6, 6)
            exact_moments._certify("sq", 5, 6)
        finally:
            clear()
        assert 5 in built and max(built) <= 5, built

    def test_unknown_statistic(self):
        with pytest.raises(ValueError):
            route_censuses("xx", (1, 2))

    def test_paths_are_census_dot_table(self):
        from ringmoments.weingarten import wg_class_table

        for indices, n in (((2, 7, 2, 4), 8), ((3, 3, 1), 3)):
            census_a, _ = route_censuses("uu", exact_moments._index_pattern(indices, n))
            expect = wg_class_table(len(indices) - 1, n).weigh(census_a.items())
            assert f_paths(indices, n) == (expect, expect)

    def test_relabelled_indices_share_the_pattern_value(self):
        assert f_paths((4, 9, 4), 9) == f_paths((1, 2, 1), 9)
        assert g_paths((6, 6, 2), 7) == g_paths((1, 1, 2), 7)


def brute_injective_weight(profile: SingularProfile, sizes) -> Fraction:
    """sum over ordered tuples of distinct positions (v_1, ..., v_p) of
    prod_j s_{v_j}^(2 sizes_j), by enumerating all n!/(n-p)! tuples."""
    total = Fraction(0)
    for combo in itertools.permutations(range(profile.n), len(sizes)):
        term = Fraction(1)
        for pos, size in zip(combo, sizes):
            term *= profile.values[pos] ** (2 * size)
        total += term
    return total


class TestInjectiveWeights:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_moebius_matches_enumeration(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 7)
        profile = SingularProfile.from_values(
            [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n)]
        )
        sums = power_sums(profile, 6)
        for k in range(1, 7):
            for pattern in equality_patterns(k):
                sizes = tuple(pattern.count(b) for b in range(1, max(pattern) + 1))
                expect = brute_injective_weight(profile, sizes)
                got = ordered_injective_weight(sums, sizes)
                assert got == expect, (seed, sizes)

    def test_more_blocks_than_values_weigh_zero(self):
        profile = SingularProfile.from_values([Fraction(1, 2), Fraction(3)])
        sums = power_sums(profile, 4)
        assert ordered_injective_weight(sums, (1, 2, 1)) == 0

    def test_bell_number_of_terms(self):
        bell = [1, 1, 2, 5, 15, 52, 203]
        for p, count in enumerate(bell):
            assert len(set_partition_terms(p)) == count


class TestTraceMomentsAgainstBrute:
    @pytest.mark.parametrize(
        "k,values,expect",
        [
            (2, (1, 1, 1), Fraction(3)),
            (2, (1, 2, 3), Fraction(196, 3)),
            (2, (Fraction(1, 2), 3), Fraction(1369, 32)),
            (3, (1, 2), Fraction(35)),
            (3, (1, 2, 3), Fraction(3935, 12)),
        ],
    )
    def test_uu_frozen_values(self, k, values, expect):
        profile = SingularProfile.from_values([Fraction(v) for v in values])
        assert trace_moment_uu(k, profile) == expect
        assert brute_uu(k, profile) == expect

    @pytest.mark.parametrize(
        "k,values,expect",
        [
            (1, (1, 1, 1), Fraction(1)),
            (1, (1, 2, 3), Fraction(14, 3)),
            (1, (Fraction(1, 2), 3), Fraction(37, 8)),
            (2, (1, 1, 1), Fraction(2)),
            (2, (1, 2, 3), Fraction(245, 6)),
            (3, (1, 2, 3), Fraction(5161, 20)),
        ],
    )
    def test_sq_frozen_values(self, k, values, expect):
        profile = SingularProfile.from_values([Fraction(v) for v in values])
        assert trace_moment_sq(k, profile) == expect
        assert brute_sq(k, profile) == expect

    def test_uu_brute_sweep(self):
        for n in (2, 3):
            profile = ramp(n)
            for k in (2, 3):
                assert trace_moment_uu(k, profile) == brute_uu(k, profile)

    def test_sq_brute_sweep(self):
        for n in (2, 3):
            profile = ramp(n)
            for k in (1, 2) + ((3,) if n >= 3 else ()):
                assert trace_moment_sq(k, profile) == brute_sq(k, profile)


class TestClosedFormIdentities:
    def test_order_one_uu_is_power_sum(self):
        for n in (1, 2, 5):
            profile = ramp(n)
            assert trace_moment_uu(1, profile) == sum(
                Fraction(v) ** 2 for v in profile.values
            )

    def test_order_two_uu_closed_form(self):
        # F is identically 1/n at k=2, so the moment collapses to n b^4
        for values in ((1, 1, 1), (1, 2, 3), (2, 5), (Fraction(1, 3), 1, 4, 7)):
            profile = SingularProfile.from_values([Fraction(v) for v in values])
            assert trace_moment_uu(2, profile) == profile.n * profile.b2 ** 2

    def test_order_one_sq_is_mean_square(self):
        for n in (1, 3, 4):
            profile = ramp(n)
            assert trace_moment_sq(1, profile) == profile.b2

    def test_scalar_matrix(self):
        profile = SingularProfile.from_values([Fraction(3, 2)])
        for k in (1, 2, 3, 4):
            assert trace_moment_uu(k, profile) == Fraction(3, 2) ** (2 * k)
            assert trace_moment_sq(k, profile) == Fraction(3, 2) ** (2 * k)

    def test_zero_profile(self):
        profile = SingularProfile.constant(Fraction(0), 3)
        assert trace_moment_uu(2, profile) == 0
        assert trace_moment_sq(2, profile) == 0


class TestStructuralProperties:
    def test_scaling_covariance(self):
        profile = ramp(3)
        c = Fraction(5, 3)
        scaled = SingularProfile(tuple(c * v for v in profile.values))
        for k in (1, 2, 3):
            assert trace_moment_uu(k, scaled) == c ** (2 * k) * trace_moment_uu(k, profile)
            assert trace_moment_sq(k, scaled) == c ** (2 * k) * trace_moment_sq(k, profile)

    def test_permutation_invariance(self):
        base = SingularProfile.from_values([Fraction(1), Fraction(4), Fraction(2)])
        shuffled = SingularProfile.from_values([Fraction(4), Fraction(2), Fraction(1)])
        for k in (1, 2, 3):
            assert trace_moment_uu(k, base) == trace_moment_uu(k, shuffled)
            assert trace_moment_sq(k, base) == trace_moment_sq(k, shuffled)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=0, max_value=4, max_denominator=8),
            min_size=2,
            max_size=4,
        )
    )
    def test_positivity(self, values):
        profile = SingularProfile.from_values(values)
        assert trace_moment_uu(2, profile) >= 0
        assert trace_moment_sq(2, profile) >= 0

    # A = c W with W = U V Haar: tr(A^k (A^k)^*) = n c^(2k) surely, and
    # E |tr W^k|^2 = min(k, n); n = 60 is far beyond any n^k enumeration
    def test_constant_profile_uu_oracle(self):
        assert trace_moment_uu(5, SingularProfile.constant(Fraction(1), 60)) == 60
        c = Fraction(3, 2)
        for k in (2, 3, 4):
            assert trace_moment_uu(k, SingularProfile.constant(c, 7)) == 7 * c ** (2 * k)

    def test_constant_profile_sq_oracle(self):
        assert trace_moment_sq(5, SingularProfile.constant(Fraction(1), 60)) == 5
        c = Fraction(2, 3)
        for k in (1, 2, 3, 4, 5):
            assert trace_moment_sq(k, SingularProfile.constant(c, 6)) == min(k, 6) * c ** (2 * k)

    def test_float_profile_is_its_exact_rational(self):
        floats = SingularProfile((0.5, 2.0))
        exact = SingularProfile((Fraction(1, 2), 2))
        assert floats == exact
        for moment in (trace_moment_uu, trace_moment_sq):
            value = moment(2, floats)
            assert type(value) is Fraction and value == moment(2, exact)


class TestHookSums:
    """The hook-sum closed forms against the census, the constant-profile
    oracles, brute force below the census domain, and the certification."""

    @pytest.mark.parametrize(
        "statistic,k",
        [("uu", k) for k in range(2, 7)] + [("sq", k) for k in range(1, 6)],
    )
    def test_bit_equal_to_census_oracle(self, statistic, k):
        import random

        rng = random.Random(1000 * k + len(statistic))
        low = k - 1 if statistic == "uu" else k
        moment = trace_moment_uu if statistic == "uu" else trace_moment_sq
        for n in range(max(low, 1), k + 4):
            inner = (
                (lambda pattern: f_i(pattern, n))
                if statistic == "uu"
                else (lambda pattern: g_i(pattern, n))
            )
            for _ in range(2):
                profile = seeded_profile(rng, n)
                assert moment(k, profile) == census_oracle(k, profile, inner), (
                    statistic, k, n, profile.values,
                )

    def test_constant_profile_oracles_to_order_forty(self):
        # A = c W with W Haar: n c^(2k) (uu) and min(k, n) c^(2k) (sq),
        # n < k included
        for c in (Fraction(1), Fraction(3, 2)):
            for k in (1, 2, 7, 13, 24, 40):
                for n in (1, 2, 5, 9, 24, 41):
                    profile = SingularProfile.constant(c, n)
                    assert trace_moment_uu(k, profile) == n * c ** (2 * k), (k, n)
                    assert trace_moment_sq(k, profile) == min(k, n) * c ** (2 * k), (k, n)

    @pytest.mark.parametrize(
        "k,n,values",
        [(3, 1, (3,)), (3, 2, (1, 2)), (4, 2, (Fraction(1, 2), 3)), (4, 3, (1, 2, 3))],
    )
    def test_below_the_census_domain_matches_brute(self, k, n, values):
        # the brute double sums reach the Weingarten table below the degree
        profile = SingularProfile.from_values([Fraction(v) for v in values])
        assert trace_moment_sq(k, profile) == brute_sq(k, profile)
        if n < k - 1:
            assert trace_moment_uu(k, profile) == brute_uu(k, profile)

    def test_census_identity_below_the_degree(self):
        # aut(lam) S_lam(n) == sum_r a_r(n) C(l(lam) - 1, r) also holds when
        # the census is weighed by the Weingarten table at n below the
        # degree; written out here independently of _certify
        import math

        checked = 0
        for statistic, orders in (("uu", range(2, 7)), ("sq", range(1, 6))):
            for k in orders:
                degree = k - 1 if statistic == "uu" else k
                for n in range(1, degree):
                    table = wg_class_table(degree, n)
                    groups = {}
                    for pattern in equality_patterns(k):
                        if max(pattern) > n:
                            continue
                        sizes = [pattern.count(b) for b in range(1, max(pattern) + 1)]
                        lam = tuple(sorted(sizes, reverse=True))
                        census, _ = route_censuses(statistic, pattern)
                        groups[lam] = groups.get(lam, 0) + table.weigh(census.items())
                    nums, den = exact_moments._hook_coefficients(statistic, k, n)
                    for lam, total in groups.items():
                        aut = math.prod(math.factorial(m) for m in Counter(lam).values())
                        hook_side = sum(
                            Fraction(a, den) * math.comb(len(lam) - 1, r)
                            for r, a in enumerate(nums)
                        )
                        assert aut * total == hook_side, (statistic, k, n, lam)
                        checked += 1
        assert checked > 0

    def test_hook_kostka_numbers_from_jacobi_trudi(self):
        import math

        for k in range(1, 9):
            for length in range(1, k + 1):
                e = [math.comb(length, b) for b in range(k + 1)]
                kostka = exact_moments._hook_schurs(e, [1] * (k + 1), k, k)
                assert kostka == [math.comb(length - 1, r) for r in range(k)]

    def test_hook_coefficients_at_order_three(self):
        import math

        # k = 3, n = 2: H_0 = 6, H_1 = 3, C_0 = 2 * 3 * 4, C_1 = 2 * 3 * 1
        nums, den = exact_moments._hook_coefficients("sq", 3, 2)
        assert [Fraction(a, den) for a in nums] == [Fraction(6, 24), Fraction(3, 6)]
        assert math.gcd(den, *nums) == 1
        # (H_r / k) (n + k - 1 - 2r) / C_r: 2 * 4 / 24 and 1 * 2 / 6
        nums, den = exact_moments._hook_coefficients("uu", 3, 2)
        assert [Fraction(a, den) for a in nums] == [Fraction(8, 24), Fraction(2, 6)]

    def test_hook_coefficients_are_positive(self):
        # every hook with at most n rows gets a positive weight: uu's factor
        # n + k - 1 - 2r stays positive for r < min(k, n)
        for statistic in ("uu", "sq"):
            for k in range(1, 41):
                for n in range(1, 42):
                    nums, den = exact_moments._hook_coefficients(statistic, k, n)
                    assert len(nums) == min(k, n) and den > 0
                    assert all(a > 0 for a in nums), (statistic, k, n)

    def test_raising_one_value_never_lowers_a_moment(self):
        # nonnegative coefficients in x_i = s_i^2; the x_i^k term alone has
        # coefficient a_0 > 0, so the moment even rises strictly
        import random

        rng = random.Random(20261019)
        for k in range(1, 13):
            for n in range(1, 7):
                profile = seeded_profile(rng, n)
                base = (trace_moment_uu(k, profile), trace_moment_sq(k, profile))
                for i in range(n):
                    values = list(profile.values)
                    values[i] += Fraction(rng.randint(1, 9), rng.randint(1, 5))
                    raised = SingularProfile.from_values(values)
                    assert trace_moment_uu(k, raised) > base[0], (k, profile.values, i)
                    assert trace_moment_sq(k, raised) > base[1], (k, profile.values, i)

    def test_certified_once_per_statistic_order_and_dimension(self, monkeypatch):
        calls = []
        real = exact_moments.f_paths

        def counted(indices, n):
            calls.append(indices)
            return real(indices, n)

        exact_moments._certify.cache_clear()
        monkeypatch.setattr(exact_moments, "f_paths", counted)
        profile = ramp(5)
        trace_moment_uu(4, profile)
        assert len(calls) == 15  # Bell(4) patterns, all with at most 5 blocks
        trace_moment_uu(4, SingularProfile(tuple(v / 3 for v in profile.values)))
        assert len(calls) == 15
        trace_moment_uu(9, ramp(3))  # beyond the census orders: no census
        assert len(calls) == 15

    def test_certified_below_the_degree(self, monkeypatch):
        # uu at k = 6 weighs degree-5 tables; n = 3 lies below that degree
        calls = []
        real = exact_moments.f_paths

        def counted(indices, n):
            calls.append(indices)
            return real(indices, n)

        exact_moments._certify.cache_clear()
        monkeypatch.setattr(exact_moments, "f_paths", counted)
        try:
            trace_moment_uu(6, ramp(3))
            # the patterns of 6 positions with at most 3 blocks:
            # S(6, 1) + S(6, 2) + S(6, 3) = 1 + 31 + 90
            assert len(calls) == 122
            assert all(max(pattern) <= 3 for pattern in calls)
        finally:
            exact_moments._certify.cache_clear()

    def test_mutated_coefficient_raises_below_the_degree(self, monkeypatch):
        real = exact_moments._hook_coefficients

        def skewed(statistic, k, n):
            nums, den = real(statistic, k, n)
            return (nums[0] + 1,) + nums[1:], den

        exact_moments._certify.cache_clear()
        monkeypatch.setattr(exact_moments, "_hook_coefficients", skewed)
        try:
            with pytest.raises(CrossCheckError, match=r"uu .*k=6, n=3"):
                trace_moment_uu(6, ramp(3))
            with pytest.raises(CrossCheckError, match=r"sq .*k=5, n=2"):
                trace_moment_sq(5, ramp(2))
        finally:
            exact_moments._certify.cache_clear()

    def test_mutated_coefficient_raises(self, monkeypatch):
        real = exact_moments._hook_coefficients

        def skewed(statistic, k, n):
            nums, den = real(statistic, k, n)
            return (nums[0] + 1,) + nums[1:], den

        exact_moments._certify.cache_clear()
        monkeypatch.setattr(exact_moments, "_hook_coefficients", skewed)
        try:
            with pytest.raises(CrossCheckError, match=r"uu .*k=3, n=4"):
                trace_moment_uu(3, ramp(4))
            with pytest.raises(CrossCheckError, match=r"sq .*k=5, n=6"):
                trace_moment_sq(5, ramp(6))
        finally:
            exact_moments._certify.cache_clear()

    def test_uu_factor_mutation_raises(self, monkeypatch):
        # (n + k - 1 - 2r) replaced by (n + k - 2r): the census rejects it
        real = exact_moments._hook_coefficients

        def shifted(statistic, k, n):
            import math

            # uu a_r = (sq a_r / k) (n + k - 1 - 2r); mutate the last factor
            nums, den = real("sq", k, n)
            coeffs = [Fraction(a, den) / k * (n + k - 2 * r) for r, a in enumerate(nums)]
            common = math.lcm(*(c.denominator for c in coeffs))
            return tuple(int(c * common) for c in coeffs), common

        exact_moments._certify.cache_clear()
        monkeypatch.setattr(exact_moments, "_hook_coefficients", shifted)
        try:
            with pytest.raises(CrossCheckError, match=r"k=6, n=5"):
                trace_moment_uu(6, ramp(5))
        finally:
            exact_moments._certify.cache_clear()
        assert real("uu", 6, 5) != shifted("uu", 6, 5)

    def test_flipped_jacobi_trudi_sign_raises(self, monkeypatch):
        def flipped(e, h, k, hooks):
            return [
                sum(h[k - r + j] * e[r - j] for j in range(r + 1)) for r in range(hooks)
            ]

        exact_moments._certify.cache_clear()
        monkeypatch.setattr(exact_moments, "_hook_schurs", flipped)
        try:
            with pytest.raises(CrossCheckError, match=r"sq .*k=4, n=4"):
                trace_moment_sq(4, ramp(4))
        finally:
            exact_moments._certify.cache_clear()

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            trace_moment_uu(0, ramp(2))
        with pytest.raises(ValueError):
            trace_moment_sq(0, ramp(2))


def jacobi_trudi_hook_schurs(e, h, k: int, hooks: int) -> list[int]:
    """s_(k-r, 1^r) = sum_{j<=r} (-1)^j h_{k-r+j} e_{r-j}, the hook case of
    the Jacobi-Trudi identity, term by term: the oracle of the Pieri
    recursion in ``_hook_schurs``."""
    return [
        sum((-1) ** j * h[k - r + j] * e[r - j] for j in range(r + 1))
        for r in range(hooks)
    ]


def row_symmetric_sums(profile: SingularProfile, e_max: int, h_max: int):
    """e_j and h_j of the scaled squares, one variable at a time, with the
    common denominator: the row form of ``_scaled_symmetric_sums``."""
    root = math.lcm(*(v.denominator for v in profile.values))
    xs = [(v.numerator * (root // v.denominator)) ** 2 for v in profile.values]
    e = [1] + [0] * e_max
    h = [1] + [0] * h_max
    for x in xs:
        for j in range(e_max, 0, -1):
            e[j] += x * e[j - 1]
        for j in range(1, h_max + 1):
            h[j] += x * h[j - 1]
    return e, h, root * root


def row_jacobi_trudi_moment(statistic: str, k: int, profile: SingularProfile) -> Fraction:
    """The hook sum evaluated by the row recursion and the Jacobi-Trudi sum,
    times the production coefficients."""
    numerators, denominator = exact_moments._hook_coefficients(statistic, k, profile.n)
    hooks = len(numerators)
    e, h, scale = row_symmetric_sums(profile, hooks - 1, k)
    schurs = jacobi_trudi_hook_schurs(e, h, k, hooks)
    return Fraction(sum(a * s for a, s in zip(numerators, schurs)), denominator * scale**k)


class TestHookSumKernel:
    """The e/h running sums against their definitions, the Pieri recursion
    against Jacobi-Trudi, and the whole kernel against the row recursion
    with Jacobi-Trudi, bit for bit."""

    def test_symmetric_sums_match_their_definitions(self):
        import random

        rng = random.Random(20261020)
        for n in (1, 1, 2, 3, 4, 5, 6):
            values = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n)]
            x = [v * v for v in values]
            for e_max, h_max in ((0, 0), (n - 1, 0), (n, 3), (n + 2, n + 3), (2, 6)):
                e, h, scale = exact_moments._scaled_symmetric_sums(
                    SingularProfile.from_values(values), e_max, h_max
                )
                assert len(e) == e_max + 1 and len(h) == h_max + 1
                for j in range(e_max + 1):
                    brute = sum(
                        (math.prod(c) for c in itertools.combinations(x, j)), Fraction(0)
                    )
                    assert Fraction(e[j], scale**j) == brute, (values, j)
                    if j > n:
                        assert e[j] == 0
                for j in range(h_max + 1):
                    brute = sum(
                        (math.prod(c) for c in itertools.combinations_with_replacement(x, j)),
                        Fraction(0),
                    )
                    assert Fraction(h[j], scale**j) == brute, (values, j)

    def test_pieri_recursion_matches_jacobi_trudi(self):
        import random

        rng = random.Random(20261021)
        for k in range(1, 13):
            for hooks in range(k + 1):
                for _ in range(5):
                    e = [1] + [rng.randint(-50, 50) for _ in range(k)]
                    h = [rng.randint(-50, 50) for _ in range(k + 1)]
                    assert exact_moments._hook_schurs(e, h, k, hooks) == (
                        jacobi_trudi_hook_schurs(e, h, k, hooks)
                    ), (k, hooks, e, h)

    def test_bit_equal_to_row_jacobi_trudi_evaluation(self):
        import random

        rng = random.Random(20261022)
        for k in range(1, 41):
            for n in range(1, 13):
                profile = seeded_profile(rng, n)
                assert trace_moment_uu(k, profile) == row_jacobi_trudi_moment("uu", k, profile)
                assert trace_moment_sq(k, profile) == row_jacobi_trudi_moment("sq", k, profile)
        profile = seeded_profile(rng, 64)
        assert trace_moment_uu(40, profile) == row_jacobi_trudi_moment("uu", 40, profile)
        assert trace_moment_sq(40, profile) == row_jacobi_trudi_moment("sq", 40, profile)

    def test_benchmark_references(self):
        refs = json.loads(REFERENCES.read_text())
        pools = {
            key: [SingularProfile.from_values(list(map(Fraction, values))) for values in refs[key]]
            for key in ("p6", "p40")
        }
        cases = (
            ("uu6", trace_moment_uu, 6, "p6"),
            ("sq5", trace_moment_sq, 5, "p6"),
            ("uu3", trace_moment_uu, 3, "p40"),
            ("sq3", trace_moment_sq, 3, "p40"),
        )
        for name, moment, k, pool in cases:
            assert len(refs[name]) == len(pools[pool]) == 24
            for profile, value in zip(pools[pool], refs[name]):
                assert moment(k, profile) == Fraction(value), (name, profile.values)


class TestHookSumsAgainstMonteCarlo:
    """k = 8 at n <= 4: beyond the census orders and below the degree, where
    only the hook sums reach.  Seed, sample count and the 4-SE window were
    fixed before the first run."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mode", ["uu", "sq"])
    def test_order_eight(self, n, mode):
        profile = SingularProfile.uniform_grid(Fraction(1, 2), Fraction(3, 2), n)
        exact = (trace_moment_uu if mode == "uu" else trace_moment_sq)(8, profile)
        est = estimate_trace_moment(8, profile, 100000, 8128, mode)
        tol = 4 * est.std_error + 1e-9 * abs(float(exact))
        assert abs(est.mean - float(exact)) <= tol, (n, mode, est.mean, float(exact), tol)


class TestTheoremBound:
    def test_order_one_ratio_below_one(self):
        for values in ((1, 1, 1), (1, 2, 3), (2, 7)):
            profile = SingularProfile.from_values([Fraction(v) for v in values])
            report = theorem_bound(1, profile, mode="uu")
            assert report.exact_moment == profile.n * profile.b2
            assert report.bound_core == profile.n * (
                profile.b2 + Fraction(profile.M) ** 2 / profile.n
            )
            assert report.ratio is not None and report.ratio <= 1

    def test_recorded_ratio_example(self):
        profile = SingularProfile.from_values(
            [Fraction(1), Fraction(2), Fraction(2), Fraction(3)]
        )
        report = theorem_bound(2, profile, mode="uu")
        assert report.ratio is not None
        assert report.ratio > 0
        assert report.exact_moment == trace_moment_uu(2, profile)

    def test_applicability_flag(self):
        profile = SingularProfile.constant(Fraction(1), 10)
        report = theorem_bound(2, profile, epsilon=Fraction(1, 2))
        assert report.applicable is False  # 64 >= 1.5 * 10
        big = SingularProfile.constant(Fraction(1), 50)
        assert theorem_bound(1, big).applicable is True  # 1 < 1.5 * 50

    def test_exact_below_the_degree(self):
        profile = SingularProfile.from_values([Fraction(1), Fraction(2)])
        report = theorem_bound(3, profile, mode="sq")  # degree 3 at n=2
        assert report.exact_moment == Fraction(125, 4)
        assert report.exact_moment == brute_sq(3, profile)
        assert report.ratio == report.exact_moment / report.bound_core

    def test_epsilon_validation(self):
        profile = SingularProfile.constant(Fraction(1), 4)
        with pytest.raises(ValueError):
            theorem_bound(2, profile, epsilon=Fraction(2))
        with pytest.raises(ValueError):
            theorem_bound(2, profile, mode="other")


class TestCountingLemma:
    def test_q_zero_at_most_one(self):
        for k in (2, 3, 4, 5):
            for alpha in enumerate_sk0(k):
                for l1 in range(1, k):
                    for l2 in range(1, k):
                        check = verify_counting_lemma(k, l1, l2, alpha, 0)
                        assert check.count <= 1
                        assert check.ok

    def test_bound_holds_exhaustively_small(self):
        for k in (3, 4, 5):
            for alpha in enumerate_sk0(k):
                for l1 in range(1, k):
                    for l2 in range(1, k):
                        for q in range(0, k - 1):
                            check = verify_counting_lemma(k, l1, l2, alpha, q)
                            assert check.ok, (k, l1, l2, alpha, q)
                            assert check.bound == Fraction(
                                k ** (4 * q),
                                __import__("math").factorial(2 * q),
                            )

    def test_counts_partition_the_subgroup(self):
        import math

        for k in (4, 5):
            for alpha in (Permutation.identity(k), next(iter(enumerate_sk0(k)))):
                total = sum(
                    verify_counting_lemma(k, 1, 1, alpha, q).count
                    for q in range(0, k - 1)
                )
                assert total == math.factorial(k - 2)

    def test_counts_match_the_word_by_word_oracle(self):
        for k in range(2, 7):
            for alpha in enumerate_sk0(k):
                for l1 in range(1, k):
                    for l2 in range(1, k):
                        expect = counting_lemma_distances(k, l1, l2, alpha)
                        for q in range(0, k + 1):
                            check = verify_counting_lemma(k, l1, l2, alpha, q)
                            assert check.count == expect[q], (k, l1, l2, alpha, q)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            verify_counting_lemma(4, 1, 1, full_cycle(4), 1)
        with pytest.raises(ValueError):
            verify_counting_lemma(4, 0, 1, Permutation.identity(4), 1)
        with pytest.raises(ValueError):
            verify_counting_lemma(4, 1, 1, Permutation.identity(4), 9)

    def test_rejects_orders_outside_the_counting_range(self):
        with pytest.raises(ValueError, match="degree k >= 2"):
            verify_counting_lemma(1, 1, 1, Permutation.identity(1), 0)
        with pytest.raises(ValueError, match="k <= 7"):
            verify_counting_lemma(8, 1, 1, Permutation.identity(8), 1)


class TestCompositionCensus:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_chain_holds_on_sample_profiles(self, k):
        for values in ((1, 1, 1), (1, 2, 3), (Fraction(1, 2), 2, 3, 4)):
            profile = SingularProfile.from_values([Fraction(v) for v in values])
            report = composition_census(k, profile)
            links = report.links
            assert len(links) == 6
            assert all(
                links[a] <= links[a + 1] for a in range(len(links) - 1)
            ), links
            assert report.chain_ok

    def test_envelope_matches_theorem_core(self):
        for k in (2, 3):
            profile = ramp(3)
            report = composition_census(k, profile)
            bound = theorem_bound(k, profile, mode="uu")
            assert report.value == bound.bound_core

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_first_links_match_the_index_sums(self, seed):
        # L0 = sum_i x^i #S0(i) and L1 = sum_i x^i prod_v m_v(i)! over all of
        # [n]^k, on profiles with zeros and with n < k
        import math
        import random

        rng = random.Random(seed)
        for k in range(2, 6):
            for n in range(1, 4):
                profile = seeded_profile(rng, n)
                x = [v * v for v in profile.values]
                l0 = l1 = Fraction(0)
                for i in itertools.product(range(1, n + 1), repeat=k):
                    weight = math.prod(x[v - 1] for v in i)
                    l0 += weight * len(young_subgroup_images((0,) + i[1:-1] + (-1,)))
                    l1 += weight * math.prod(math.factorial(i.count(v)) for v in set(i))
                links = composition_census(k, profile).links
                assert links[:2] == (l0, l1), (seed, k, profile.values)

    @pytest.mark.parametrize("k", [9, 12, 24])
    def test_chain_beyond_the_pattern_orders(self, k):
        with_zero = SingularProfile.from_values([Fraction(0), Fraction(3, 2), Fraction(7, 3)])
        for profile in (ramp(4), with_zero):
            report = composition_census(k, profile)
            assert report.chain_ok
            assert report.value == theorem_bound(k, profile, mode="uu").bound_core

    def test_binomial_closing_step(self):
        # L5 is the binomial closing of L4's summands
        profile = ramp(4)
        k = 3
        report = composition_census(k, profile)
        n = profile.n
        b2 = profile.b2
        m2 = Fraction(profile.M) ** 2
        import math

        closing = sum(
            (Fraction(k) * m2) ** (k - p)
            * (n * b2) ** p
            * math.comb(k, p)
            for p in range(0, k + 1)
        )
        assert report.links[5] == closing == (n * b2 + k * m2) ** k

    def test_stabilizer_size_bound(self):
        # #S0(i) is at most the product of the block factorials of the pattern
        import math

        k, n = 4, 3
        for i in itertools.product(range(1, n + 1), repeat=k):
            sizes = {}
            for v in i:
                sizes[v] = sizes.get(v, 0) + 1
            cap = 1
            for c in sizes.values():
                cap *= math.factorial(c)
            assert len(young_subgroup_images((0,) + i[1:-1] + (-1,))) <= cap
