"""Middle-term classification versus the brute-force subgroup oracle."""

import random
import time

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
    partitions,
    resolve,
)
from cpsums.fgab import FgAbGroup

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
                assert (
                    g.torsion_order()
                    == a.torsion_order() * b.torsion_order()
                )


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
    def test_asserted_middle_validated_by_oracle(self):
        ShortExactSequence(Z2, Z2, middle=Z4)
        ShortExactSequence(Z2, Z2, middle=FgAbGroup(0, (2, 2)))
        with pytest.raises(ValueError):
            ShortExactSequence(Z4, Z2, middle=elementary(2, 3))

    def test_wrong_orders_rejected(self):
        with pytest.raises(ValueError):
            ShortExactSequence(Z2, Z2, middle=FgAbGroup.cyclic(8))
        with pytest.raises(ValueError):
            ShortExactSequence(FgAbGroup.free(1), Z2, middle=Z2)

    def test_accounting_for_large_orders(self):
        # beyond the oracle limit only rank/order bookkeeping applies
        big = FgAbGroup.from_primary({2: [1] * 7, 3: [1] * 7})
        ShortExactSequence(Z2, big, middle=Z2.direct_sum(big))

    def test_large_asserted_middle_needs_no_census(self):
        # order 2^8: the subgroup census of Z_2^8 exhausts the oracle budget
        start = time.perf_counter()
        ShortExactSequence(elementary(2, 3), elementary(2, 5), middle=elementary(2, 8))
        assert time.perf_counter() - start < 1.0

    def test_right_order_non_middle_rejected_quickly(self):
        # G/A elementary forces 2G <= A, but 2(Z_8) = Z_4 is not in Z_2^3
        wrong = FgAbGroup.from_cyclic_orders(8, 2, 2, 2, 2, 2)
        start = time.perf_counter()
        with pytest.raises(ValueError):
            ShortExactSequence(elementary(2, 3), elementary(2, 5), middle=wrong)
        assert time.perf_counter() - start < 1.0

    def test_middle_candidates_of_sequence(self):
        seq = ShortExactSequence(Z2, Z2, provenance="test")
        assert middle_candidates(seq) == [FgAbGroup(0, (2, 2)), Z4]
