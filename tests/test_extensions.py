"""Middle-term classification versus the brute-force subgroup oracle."""

import random
import time
from itertools import product
from math import gcd

import pytest

from cpsums import extensions
from cpsums.extensions import (
    AmbiguousResult,
    EmptyAfterFiltering,
    ExtensionSizeError,
    OracleBudgetError,
    ShortExactSequence,
    SplittingFilter,
    all_abelian_groups_of_order,
    brute_force_middle_terms,
    dominance_interval,
    lr_positive,
    middle_candidates,
    middle_candidates_between,
    outer_candidates_between,
    partitions,
    resolve,
)
from cpsums.fgab import FgAbGroup, Homomorphism, IntegerMatrix, hom_cokernel, hom_kernel

Z2 = FgAbGroup.cyclic(2)
Z3 = FgAbGroup.cyclic(3)
Z4 = FgAbGroup.cyclic(4)
Z5 = FgAbGroup.cyclic(5)


def elementary(p, k):
    return FgAbGroup.from_primary({p: [1] * k})


class TestPartitions:
    def test_small(self):
        assert sorted(partitions(4)) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]

    def test_zero(self):
        assert list(partitions(0)) == [()]

    def test_counts_and_order_up_to_22(self):
        # the partition numbers p(0..22), OEIS A000041, each list in
        # descending lexicographic order
        counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
                  231, 297, 385, 490, 627, 792, 1002]
        for n, count in enumerate(counts):
            got = list(partitions(n))
            assert len(got) == count == len(set(got)), n
            assert got == sorted(got, reverse=True), n
            assert all(sum(lam) == n and list(lam) == sorted(lam, reverse=True) for lam in got)


class TestSubPartitions:
    def test_against_filtered_partitions(self):
        for total in range(9):
            for lam in partitions(total):
                for size in range(-1, total + 2):
                    expected = [
                        x
                        for x in (partitions(size) if size >= 0 else ())
                        if len(x) <= len(lam) and all(a <= b for a, b in zip(x, lam))
                    ]
                    assert list(extensions._sub_partitions(lam, size)) == expected

    def test_long_column_is_not_recursed_per_part(self):
        # 1^(k+2) is the 2-part of N^t_Diff(#_k CP^7) at k = 142857
        lam = (1,) * 142_859
        start = time.perf_counter()
        assert list(extensions._sub_partitions(lam, len(lam) - 1)) == [lam[1:]]
        assert time.perf_counter() - start < 1.0


def _pairs(max_total):
    """Every pair of partitions (mu, nu) with |mu| + |nu| <= max_total."""
    for a in range(max_total + 1):
        for b in range(max_total - a + 1):
            for mu in partitions(a):
                for nu in partitions(b):
                    yield mu, nu


def _dominated(lam, kappa):
    """lam <= kappa in dominance order (partitions of the same size)."""
    return all(
        sum(lam[:i]) <= sum(kappa[:i]) for i in range(1, max(len(lam), len(kappa)) + 1)
    )


class TestDominanceInterval:
    def test_is_the_interval(self):
        for mu, nu in _pairs(9):
            union = tuple(sorted(mu + nu, reverse=True))
            summed = tuple(
                (mu[i] if i < len(mu) else 0) + (nu[i] if i < len(nu) else 0)
                for i in range(max(len(mu), len(nu)))
            )
            expected = [
                lam
                for lam in partitions(sum(mu) + sum(nu))
                if _dominated(union, lam) and _dominated(lam, summed)
            ]
            assert list(dominance_interval(mu, nu)) == expected, (mu, nu)

    def test_lr_positive_shapes_agree_with_full_scan(self):
        pairs = 0
        for mu, nu in _pairs(12):
            total = sum(mu) + sum(nu)
            reference = [lam for lam in partitions(total) if lr_positive(lam, mu, nu)]
            got = middle_candidates_between(
                FgAbGroup.from_primary({2: mu}), FgAbGroup.from_primary({2: nu})
            )
            expected = sorted(FgAbGroup.from_primary({2: lam}) for lam in reference)
            assert got == expected, (mu, nu)
            pairs += 1
        assert pairs == 3132


class TestGroupsOfOrder:
    def test_order_eight(self):
        assert [str(g) for g in all_abelian_groups_of_order(8)] == [
            "Z_2^3",
            "Z_2 + Z_4",
            "Z_8",
        ]

    def test_order_one(self):
        assert all_abelian_groups_of_order(1) == [FgAbGroup.zero()]

    def test_order_36(self):
        assert len(all_abelian_groups_of_order(36)) == 4


class TestTableauPositivity:
    def test_known_small_values(self):
        # Z_p^2 contains Z_p with quotient Z_p, and so does Z_{p^2}
        assert lr_positive((1, 1), (1,), (1,))
        assert lr_positive((2,), (1,), (1,))
        # Z_4 + Z_2 contains Z_2^2 with quotient Z_2
        assert lr_positive((2, 1), (1, 1), (1,))
        # Z_8 has no Z_2^2 subgroup
        assert not lr_positive((3,), (1, 1), (1,))
        # symmetric in subgroup and quotient
        assert lr_positive((2, 1), (1,), (1, 1))
        assert not lr_positive((3,), (1,), (1, 1))

    def test_weight_mismatch(self):
        assert not lr_positive((2,), (1,), (1, 1))

    def test_long_columns(self):
        # thousands of cells: the search must not depend on recursion depth
        ones = (1,) * 2000
        assert lr_positive((2, 2) + ones[:1998], (1, 1), ones)
        assert lr_positive((1,) * 2002, (1, 1), ones)
        assert not lr_positive((3,) + ones[:1999], (1, 1), ones)


class TestBruteForceOracle:
    def test_z2_by_z2(self):
        got = brute_force_middle_terms(Z2, Z2)
        assert got == [FgAbGroup(0, (2, 2)), Z4]

    def test_z4_by_z2_excludes_elementary(self):
        got = brute_force_middle_terms(Z4, Z2)
        assert got == [FgAbGroup(0, (2, 4)), FgAbGroup.cyclic(8)]
        assert elementary(2, 3) not in got

    def test_coprime(self):
        assert brute_force_middle_terms(Z3, Z5) == [FgAbGroup.cyclic(15)]

    def test_trivial_sides(self):
        assert brute_force_middle_terms(FgAbGroup.zero(), Z4) == [Z4]
        assert brute_force_middle_terms(Z4, FgAbGroup.zero()) == [Z4]

    def test_size_limit(self):
        with pytest.raises(ExtensionSizeError):
            brute_force_middle_terms(
                FgAbGroup.cyclic(128), FgAbGroup.cyclic(64)
            )
        with pytest.raises(ExtensionSizeError):
            brute_force_middle_terms(FgAbGroup.free(1), Z2)


class TestMiddleCandidates:
    def test_z2_by_z2(self):
        assert middle_candidates_between(Z2, Z2) == [FgAbGroup(0, (2, 2)), Z4]

    def test_z2_by_z2_squared(self):
        got = middle_candidates_between(Z2, elementary(2, 2))
        assert got == [elementary(2, 3), FgAbGroup(0, (2, 4))]

    def test_free_quotient_splits(self):
        for a in (Z2, FgAbGroup.from_cyclic_orders(2, 3), FgAbGroup(1, (4,))):
            for r in (1, 2):
                assert middle_candidates_between(a, FgAbGroup.free(r)) == [
                    a.direct_sum(FgAbGroup.free(r))
                ]

    def test_split_member_always_present(self):
        rng = random.Random(11)
        for _ in range(80):
            a = FgAbGroup.from_cyclic_orders(
                *[rng.choice([2, 3, 4]) for _ in range(rng.randint(0, 2))]
            )
            b = FgAbGroup.from_cyclic_orders(
                *[rng.choice([2, 3, 4]) for _ in range(rng.randint(0, 2))]
            )
            assert a.direct_sum(b) in middle_candidates_between(a, b)

    def test_rank_and_order_invariants(self):
        rng = random.Random(13)
        for _ in range(60):
            a = FgAbGroup.from_cyclic_orders(
                rng.randint(0, 6), rng.randint(2, 6)
            )
            b = FgAbGroup.from_cyclic_orders(
                rng.randint(0, 6), rng.randint(2, 6)
            )
            for g in middle_candidates_between(a, b):
                assert g.free_rank == a.free_rank + b.free_rank
                # with a free sub, tors(G)/tors(A) is only a subgroup of
                # tors(B): Z --x2--> Z has quotient Z_2 and G = Z
                if a.is_finite:
                    assert (
                        g.torsion_order()
                        == a.torsion_order() * b.torsion_order()
                    )


class TestOuterSolver:
    def test_agrees_with_census_in_both_positions(self):
        # every p-group of type lam with p^|lam| <= 64 and every known type
        # nu with |nu| <= |lam|: X runs over the quotients by a subgroup of
        # type nu, and equally over the subgroups of cotype nu
        cases = 0
        for p in (2, 3, 5, 7):
            size = 0
            while p**size <= 64:
                for lam in partitions(size):
                    census = extensions._subgroup_census(p, lam)
                    depth = lam[0] if lam else 0
                    counts = {
                        x: extensions._type_counts(p, x, depth)
                        for m in range(size + 1)
                        for x in partitions(m)
                    }
                    group = FgAbGroup.from_primary({p: lam})
                    for m in range(size + 1):
                        for nu in partitions(m):
                            got = outer_candidates_between(
                                group, FgAbGroup.from_primary({p: nu})
                            )
                            rest = list(partitions(size - m))
                            quotients = [x for x in rest if (counts[nu], counts[x]) in census]
                            subgroups = [x for x in rest if (counts[x], counts[nu]) in census]
                            for expected in (quotients, subgroups):
                                assert got == sorted(
                                    FgAbGroup.from_primary({p: x}) for x in expected
                                ), (p, lam, nu)
                            cases += 1
                size += 1
        assert cases == 609

    def test_mixed_primes_and_trivial_known(self):
        g = FgAbGroup.from_cyclic_orders(2, 4, 3)
        assert outer_candidates_between(g, FgAbGroup.zero()) == [g]
        assert outer_candidates_between(g, FgAbGroup.cyclic(6)) == [
            FgAbGroup(0, (2, 2)),
            Z4,
        ]
        assert outer_candidates_between(g, Z5) == []
        assert outer_candidates_between(Z2, Z4) == []

    def test_free_groups_refused(self):
        with pytest.raises(ValueError):
            outer_candidates_between(FgAbGroup.free(1), Z2)


class TestFreeParts:
    def test_free_sub_by_finite_quotient(self):
        # Z --x2--> Z gives G = Z, besides the split Z + Z_2
        assert middle_candidates_between(FgAbGroup.free(1), Z2) == [
            FgAbGroup.free(1),
            FgAbGroup(1, (2,)),
        ]

    def test_against_integer_maps(self):
        """Realize each candidate by an integer map A -> G, and find no G
        outside the list, on every pair with free ranks <= 1 and torsion
        orders <= 4: 100 pairs.

        G has rank rk A + rk B and torsion order |T| * c for a divisor c
        of |tors B|, T = tors A.  Automorphisms of G (GL on the free part,
        and (v, t) -> (v, t + phi(v))) bring the image of a free generator
        of A to (m, 0, ..., 0, t) with t taken modulo m * tors G, and
        counting orders in G/A gives m = |tors B| * |T| / |tors G|.  A
        torsion generator of order d maps to any element killed by d.
        """
        small = [g for n in range(1, 5) for g in all_abelian_groups_of_order(n)]
        groups = [FgAbGroup(r, g.invariant_factors) for r in (0, 1) for g in small]

        def maps(a, b, g):
            orders = g.invariant_factors
            zeros = (0,) * g.free_rank
            m = b.torsion_order() * a.torsion_order() // g.torsion_order()
            free = [(m, *zeros[1:], *t) for t in product(*(range(gcd(m, e)) for e in orders))]
            torsion = [
                [(*zeros, *t) for t in product(*(range(0, e, e // gcd(d, e)) for e in orders))]
                for d in a.invariant_factors
            ]
            for cols in product(*[free] * a.free_rank, *torsion):
                rows = [list(row) for row in zip(*cols)] or [[]] * g.ngens
                yield Homomorphism(a, g, IntegerMatrix(rows, cols=a.ngens))

        def realized(a, b, g):
            return any(
                hom_cokernel(f) == b and hom_kernel(f).is_trivial for f in maps(a, b, g)
            )

        start = time.perf_counter()
        pairs = 0
        for a, b in product(groups, repeat=2):
            tb = b.torsion_order()
            universe = [
                FgAbGroup(a.free_rank + b.free_rank, g.invariant_factors)
                for c in range(1, tb + 1)
                if tb % c == 0
                for g in all_abelian_groups_of_order(a.torsion_order() * c)
            ]
            found = [g for g in universe if realized(a, b, g)]
            assert middle_candidates_between(a, b) == sorted(found), (str(a), str(b))
            pairs += 1
        assert pairs == 100
        assert time.perf_counter() - start < 2.0


class TestWorkBound:
    def test_free_sub_lists_only_reachable_cotypes(self):
        # the cotype of C in Z_2^2000 has at most one part, so C is
        # Z_2^1999 or Z_2^2000 and no smaller shape is listed
        wide = FgAbGroup(0, (2,) * 2000)
        assert middle_candidates_between(FgAbGroup.free(1), wide) == [
            FgAbGroup(1, (2,) * 1999),
            FgAbGroup(1, (2,) * 2000),
        ]

    def test_library_raises_before_testing_shapes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(extensions, "lr_positive", lambda *args: calls.append(args))
        wide = FgAbGroup(0, (2,) * 2000)
        with pytest.raises(ExtensionSizeError):
            middle_candidates_between(wide, wide)
        with pytest.raises(ExtensionSizeError):
            middle_candidates_between(FgAbGroup.free(2000), wide)
        assert calls == []


class TestOracleEquivalence:
    def test_exhaustive_small(self):
        for na in range(1, 49):
            for nb in range(1, 48 // na + 1):
                for a in all_abelian_groups_of_order(na):
                    for b in all_abelian_groups_of_order(nb):
                        assert middle_candidates_between(
                            a, b
                        ) == brute_force_middle_terms(a, b), (str(a), str(b))

    def test_sampled_larger(self):
        # shapes chosen so the subgroup census stays tractable
        samples = [
            (FgAbGroup.from_cyclic_orders(4, 8), FgAbGroup.from_cyclic_orders(3, 9)),
            (FgAbGroup.from_cyclic_orders(8, 9), FgAbGroup.from_cyclic_orders(8, 7)),
            (FgAbGroup.from_cyclic_orders(8, 8), FgAbGroup.cyclic(27)),
            (FgAbGroup.from_cyclic_orders(2, 4), FgAbGroup.from_cyclic_orders(25, 5)),
            (FgAbGroup.cyclic(2048), FgAbGroup.cyclic(2)),
            (FgAbGroup.cyclic(16), FgAbGroup.cyclic(8)),
            (FgAbGroup.cyclic(49), FgAbGroup.cyclic(7)),
            (FgAbGroup.from_cyclic_orders(2, 4), FgAbGroup.from_cyclic_orders(2, 2, 4)),
            (elementary(3, 2), elementary(3, 3)),
        ]
        for a, b in samples:
            assert a.torsion_order() * b.torsion_order() <= 4096
            assert middle_candidates_between(a, b) == brute_force_middle_terms(a, b)


class TestOracleBudget:
    def test_exhausted_budget_raises_and_caches_nothing(self, monkeypatch):
        # at the default budget this census runs for about a minute
        a, b = elementary(2, 3), elementary(2, 5)
        extensions._subgroup_census.cache_clear()
        monkeypatch.setattr(extensions, "ORACLE_BUDGET", 10_000)
        # the second call must fail the same way, not find a partial census
        for _ in range(2):
            start = time.perf_counter()
            with pytest.raises(OracleBudgetError):
                brute_force_middle_terms(a, b)
            assert time.perf_counter() - start < 1.0
        monkeypatch.undo()
        small = elementary(2, 2)
        assert brute_force_middle_terms(Z2, small) == middle_candidates_between(Z2, small)

    def test_translation_rows_are_charged(self, monkeypatch):
        # the census of Z_2 walks one coset of size 1 and builds one row of 2
        extensions._subgroup_census.cache_clear()
        monkeypatch.setattr(extensions, "ORACLE_BUDGET", 2)
        with pytest.raises(OracleBudgetError):
            extensions._subgroup_census(2, (1,))
        monkeypatch.setattr(extensions, "ORACLE_BUDGET", 3)
        assert extensions._subgroup_census(2, (1,)) == {((1,), (2,)), ((2,), (1,))}


class TestResolve:
    def test_no_order_four_filter(self):
        seq = ShortExactSequence(Z2, elementary(2, 2))
        got = resolve(seq, [SplittingFilter.no_element_of_order(4)])
        assert got == elementary(2, 3)

    def test_localization_and_order_filters(self):
        # CP^7-type instance at k = 2
        sub = FgAbGroup.from_cyclic_orders(2, 2)
        quot = FgAbGroup.from_cyclic_orders(2, 2, 3)
        seq = ShortExactSequence(sub, quot)
        got = resolve(
            seq,
            [
                SplittingFilter.localization_at(3, Z3),
                SplittingFilter.no_element_of_order(4),
            ],
        )
        assert got == FgAbGroup.from_primary({2: [1, 1, 1, 1], 3: [1]})

    def test_ambiguous_without_filters(self):
        seq = ShortExactSequence(Z2, Z2)
        got = resolve(seq, [])
        assert isinstance(got, AmbiguousResult)
        assert set(got) == {Z4, FgAbGroup(0, (2, 2))}

    def test_empty_after_filtering(self):
        seq = ShortExactSequence(Z2, Z2)
        with pytest.raises(EmptyAfterFiltering):
            resolve(seq, [SplittingFilter.free_rank_equals(5)])

    def test_filter_kinds(self):
        g = FgAbGroup(1, (2, 6))
        assert SplittingFilter.no_element_of_order(4).matches(g)
        assert not SplittingFilter.no_element_of_order(3).matches(g)
        assert SplittingFilter.localization_at(3, FgAbGroup(1, (3,))).matches(g)
        assert SplittingFilter.torsion_equals(FgAbGroup(0, (2, 6))).matches(g)
        assert SplittingFilter.free_rank_equals(1).matches(g)


class TestShortExactSequence:
    def test_middle_candidates_of_sequence(self):
        seq = ShortExactSequence(Z2, Z2, provenance="test")
        assert middle_candidates(seq) == [FgAbGroup(0, (2, 2)), Z4]
