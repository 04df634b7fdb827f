"""K- and KO-groups of connected sums: formulas, bases, sandwich checks."""

import pytest

from cpsums import ktheory, tables
from cpsums.fgab import FgAbGroup
from cpsums.ktheory import (
    complex_k0,
    complex_k_minus1,
    ko_group,
    verify_sandwich,
)
from cpsums.tables import GeneratorLabel

Z2 = FgAbGroup.cyclic(2)


class TestComplexK:
    def test_minimal_case(self):
        res = complex_k0(1, 2)
        assert res.group == FgAbGroup.free(2)
        assert [str(b) for b in res.basis] == ["d*(omega)", "eta_1^1"]

    def test_rank_formula(self):
        assert complex_k0(2, 3).group == FgAbGroup.free(5)
        assert complex_k0(3, 7).group == FgAbGroup.free(19)

    def test_rank_counts_even_cells(self):
        for k in range(1, 6):
            for n in range(1, 9):
                # even-dimensional cells: k per dimension 2..2n-2, one top cell
                cells = k * (n - 1) + 1
                assert complex_k0(k, n).group.free_rank == cells

    def test_k_minus_one_trivial(self):
        for k, n in ((1, 1), (5, 4), (2, 8)):
            assert complex_k_minus1(k, n).group == FgAbGroup.zero()

    def test_basis_size(self):
        res = complex_k0(4, 6)
        assert len(res.basis) == res.group.free_rank


EXPECTED_SPOT_VALUES = [
    # (s, k, n, rank, torsion_exponents)
    (3, 4, 8, 0, 3),   # Z_2^(k-1) at n = 0 mod 4
    (3, 2, 7, 0, 1),   # Z_2 at n = 3 mod 4
    (3, 2, 5, 0, 0),
    (0, 2, 6, 5, 1),   # Z^(2km+1) + Z_2^(k-1)
    (0, 3, 5, 6, 1),   # Z^(2km) + Z_2
    (5, 3, 9, 0, 0),
    (7, 3, 6, 0, 2),   # Z_2^(k-1) at n = 2 mod 4
    (7, 2, 9, 0, 1),   # Z_2 at n = 1 mod 4
    (4, 3, 8, 10, 2),  # Z^(2km-k+1) + Z_2^(k-1)
    (2, 2, 7, 7, 0),   # Z^(2km+k+1)
]


class TestKoCaseTable:
    @pytest.mark.parametrize("s,k,n,rank,torsion", EXPECTED_SPOT_VALUES)
    def test_spot_values(self, s, k, n, rank, torsion):
        got = ko_group(s, k, n).group
        assert got == FgAbGroup(rank, tuple([2] * torsion))

    def test_rank_additivity(self):
        """free rank = single-copy rank at n plus (k-1) single-copy ranks at n-1."""
        for s in range(8):
            for k in range(2, 7):
                for n in range(2, 13):
                    expected = (
                        tables.ko_single_cp(s, n).group.free_rank
                        + (k - 1) * tables.ko_single_cp(s, n - 1).group.free_rank
                    )
                    assert ko_group(s, k, n).group.free_rank == expected, (s, k, n)

    def test_torsion_additivity(self):
        for s in range(8):
            for k in range(2, 7):
                for n in range(2, 13):
                    expected = len(
                        tables.ko_single_cp(s, n).group.invariant_factors
                    ) + (k - 1) * len(
                        tables.ko_single_cp(s, n - 1).group.invariant_factors
                    )
                    got = len(ko_group(s, k, n).group.invariant_factors)
                    assert got == expected, (s, k, n)

    def test_degrees_three_and_seven_killed_by_two(self):
        for s in (3, 7):
            for k in (2, 4):
                for n in range(2, 12):
                    g = ko_group(s, k, n).group
                    assert g.free_rank == 0
                    assert all(d == 2 for d in g.invariant_factors)

    def test_degrees_one_and_five_vanish(self):
        for s in (1, 5):
            for k in (2, 3):
                for n in range(2, 12):
                    assert ko_group(s, k, n).group.is_trivial

    def test_window_is_exhaustive(self):
        # degrees repeat with period 8; outside 0..7 the library refuses
        with pytest.raises(ValueError):
            ko_group(8, 2, 4)
        with pytest.raises(ValueError):
            ko_group(-1, 2, 4)

    def test_range_guards(self):
        with pytest.raises(ValueError):
            ko_group(0, 1, 4)
        with pytest.raises(ValueError):
            ko_group(0, 2, 1)


class TestKoBases:
    def test_basis_count_matches_group(self):
        for s in range(8):
            for k in (2, 3, 5):
                for n in range(2, 12):
                    res = ko_group(s, k, n)
                    if res.basis:
                        assert len(res.basis) == res.group.ngens, (s, k, n)

    def test_distinguished_copy_is_decorated(self):
        res = ko_group(0, 3, 6)
        decorated = [b for b in res.basis if b.decoration == "q*"]
        plain = [b for b in res.basis if not b.decoration]
        assert all(b.copy_index == 3 for b in decorated)
        assert all(b.copy_index in (1, 2) for b in plain)

    def test_torsion_relations_printed(self):
        res = ko_group(0, 2, 5)  # Z^(2km) + Z_2 with 2 q*(eta_k^(2m+1)) = 0
        relations = [b.relation for b in res.basis if b.relation]
        assert "2*q*(eta_2^3) = 0" in relations
        res = ko_group(2, 2, 7)  # sigma on the distinguished copy
        relations = [b.relation for b in res.basis if b.relation]
        assert "2*sigma_2 = alpha*eta_2^3" in relations
        res = ko_group(6, 2, 6)  # tau on the plain copies
        relations = [b.relation for b in res.basis if b.relation]
        assert "2*tau_1 = gamma*eta_1^2" in relations


class TestSandwich:
    def test_trivial_degree_passes(self):
        for n in range(2, 12):
            assert verify_sandwich(1, 3, n).passed

    def test_all_table_entries_pass(self):
        for s in range(8):
            for k in (2, 3, 4):
                for n in range(4, 12):
                    rep = verify_sandwich(s, k, n)
                    assert rep.passed, (s, k, n, rep.violated, rep.detail)

    def test_specific_case(self):
        rep = verify_sandwich(3, 2, 8)
        assert rep.passed

    def test_corrupted_value_fails_with_named_constraint(self):
        rep = verify_sandwich(3, 3, 8, group=FgAbGroup(0, (2,) * 5))
        assert not rep.passed
        assert rep.violated == "p-socle-bound"
        rep = verify_sandwich(0, 2, 6, group=FgAbGroup(40, (2,)))
        assert not rep.passed
        assert rep.violated == "rank-bound"
        rep = verify_sandwich(3, 2, 7, group=FgAbGroup(0, (4,)))
        assert not rep.passed
        assert rep.violated == "torsion-order-divides"


# Every (s, n mod 4) case with a printed basis, at k = 3: the exact labels in
# canonical order (free classes first) and the relations they carry.
FULL_BASES = {
    (0, 4): (
        [
            "q*(eta_3^1)", "q*(eta_3^2)", "eta_1^1", "eta_2^1",
        ],
        [],
    ),
    (0, 5): (
        [
            "q*(eta_3^1)", "q*(eta_3^2)", "eta_1^1", "eta_1^2", "eta_2^1", "eta_2^2",
            "q*(eta_3^3)",
        ],
        [
            "2*q*(eta_3^3) = 0",
        ],
    ),
    (0, 6): (
        [
            "q*(eta_3^1)", "q*(eta_3^2)", "q*(eta_3^3)", "eta_1^1", "eta_1^2",
            "eta_2^1", "eta_2^2", "eta_1^3", "eta_2^3",
        ],
        [
            "2*eta_1^3 = 0", "2*eta_2^3 = 0",
        ],
    ),
    (0, 7): (
        [
            "q*(eta_3^1)", "q*(eta_3^2)", "q*(eta_3^3)", "eta_1^1", "eta_1^2",
            "eta_1^3", "eta_2^1", "eta_2^2", "eta_2^3",
        ],
        [],
    ),
    (2, 4): (
        [
            "q*(alpha*eta_3^0)", "q*(alpha*eta_3^1)", "alpha*eta_1^0", "sigma_1",
            "alpha*eta_2^0", "sigma_2",
        ],
        [
            "2*sigma_1 = alpha*eta_1^1", "2*sigma_2 = alpha*eta_2^1",
        ],
    ),
    (2, 5): (
        [
            "q*(alpha*eta_3^0)", "q*(alpha*eta_3^1)", "q*(alpha*eta_3^2)",
            "alpha*eta_1^0", "alpha*eta_1^1", "alpha*eta_2^0", "alpha*eta_2^1",
        ],
        [],
    ),
    (2, 6): (
        [
            "q*(alpha*eta_3^0)", "q*(alpha*eta_3^1)", "q*(alpha*eta_3^2)",
            "alpha*eta_1^0", "alpha*eta_1^1", "alpha*eta_1^2", "alpha*eta_2^0",
            "alpha*eta_2^1", "alpha*eta_2^2",
        ],
        [],
    ),
    (2, 7): (
        [
            "q*(alpha*eta_3^0)", "q*(alpha*eta_3^1)", "q*(alpha*eta_3^2)",
            "q*(sigma_3)", "alpha*eta_1^0", "alpha*eta_1^1", "alpha*eta_1^2",
            "alpha*eta_2^0", "alpha*eta_2^1", "alpha*eta_2^2",
        ],
        [
            "2*sigma_3 = alpha*eta_3^3",
        ],
    ),
    (4, 4): (
        [
            "q*(beta*eta_3^0)", "q*(beta*eta_3^1)", "beta*eta_1^0", "beta*eta_2^0",
            "beta*eta_1^1", "beta*eta_2^1",
        ],
        [
            "2*beta*eta_1^1 = 0", "2*beta*eta_2^1 = 0",
        ],
    ),
    (4, 5): (
        [
            "q*(beta*eta_3^0)", "q*(beta*eta_3^1)", "beta*eta_1^0", "beta*eta_1^1",
            "beta*eta_2^0", "beta*eta_2^1",
        ],
        [],
    ),
    (4, 6): (
        [
            "q*(beta*eta_3^0)", "q*(beta*eta_3^1)", "q*(beta*eta_3^2)", "beta*eta_1^0",
            "beta*eta_1^1", "beta*eta_2^0", "beta*eta_2^1",
        ],
        [],
    ),
    (4, 7): (
        [
            "q*(beta*eta_3^0)", "q*(beta*eta_3^1)", "q*(beta*eta_3^2)", "beta*eta_1^0",
            "beta*eta_1^1", "beta*eta_1^2", "beta*eta_2^0", "beta*eta_2^1",
            "beta*eta_2^2", "q*(beta*eta_3^3)",
        ],
        [
            "2*beta*eta_3^3 = 0",
        ],
    ),
    (6, 4): (
        [
            "q*(gamma*eta_3^0)", "q*(gamma*eta_3^1)", "gamma*eta_1^0", "gamma*eta_1^1",
            "gamma*eta_2^0", "gamma*eta_2^1",
        ],
        [],
    ),
    (6, 5): (
        [
            "q*(gamma*eta_3^0)", "q*(gamma*eta_3^1)", "q*(tau_3)", "gamma*eta_1^0",
            "gamma*eta_1^1", "gamma*eta_2^0", "gamma*eta_2^1",
        ],
        [
            "2*tau_3 = gamma*eta_3^2",
        ],
    ),
    (6, 6): (
        [
            "q*(gamma*eta_3^0)", "q*(gamma*eta_3^1)", "q*(gamma*eta_3^2)",
            "gamma*eta_1^0", "gamma*eta_1^1", "tau_1", "gamma*eta_2^0",
            "gamma*eta_2^1", "tau_2",
        ],
        [
            "2*tau_1 = gamma*eta_1^2", "2*tau_2 = gamma*eta_2^2",
        ],
    ),
    (6, 7): (
        [
            "q*(gamma*eta_3^0)", "q*(gamma*eta_3^1)", "q*(gamma*eta_3^2)",
            "q*(gamma*eta_3^3)", "gamma*eta_1^0", "gamma*eta_1^1", "gamma*eta_1^2",
            "gamma*eta_2^0", "gamma*eta_2^1", "gamma*eta_2^2",
        ],
        [],
    ),
}


class TestKoFullBases:
    @pytest.mark.parametrize("s,n", sorted(FULL_BASES))
    def test_basis_and_relations(self, s, n):
        basis, relations = FULL_BASES[(s, n)]
        res = ko_group(s, 3, n)
        assert [str(b) for b in res.basis] == basis
        assert [b.relation for b in res.basis if b.relation] == relations


def _is_torsion(label):
    return (label.relation or "").endswith("= 0")


class TestKoBasisCost:
    def test_repeat_lookups_skip_the_data_file(self, monkeypatch):
        calls = {"_record": 0, "_load": 0}

        def counted(name):
            fn = getattr(tables, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(tables, name, counted(name))
        tables._ko_single_cp.cache_clear()
        for s, k, n in ((0, 3, 5), (4, 40, 12), (2, 7, 31), (7, 2, 2)):
            first = ko_group(s, k, n)
            assert calls["_record"] > 0 and calls["_load"] > 0
            calls.update(_record=0, _load=0)
            again = ko_group(s, k, n)
            rep = verify_sandwich(s, k, n, group=again.group)
            assert calls == {"_record": 0, "_load": 0}, (s, k, n)
            assert again == first and rep.passed
            tables._ko_single_cp.cache_clear()

    def test_repeat_calls_reuse_the_moved_labels(self, monkeypatch):
        built = []
        real = GeneratorLabel.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(GeneratorLabel, "__new__", counting)
        for s, k, n in ((0, 13, 33), (0, 5, 9), (2, 7, 31), (4, 40, 12), (6, 64, 5)):
            first = ko_group(s, k, n)
            built.clear()
            assert ko_group(s, k, n) == first
            # only the s = 0 relabel of the distinguished order-2 class
            assert len(built) <= (s == 0), (s, k, n, built)
        for k, n in ((13, 33), (64, 2), (1, 1)):
            first = complex_k0(k, n)
            built.clear()
            assert complex_k0(k, n) == first
            # the single-copy basis eta^1..eta^(n-1) and d*(omega)
            assert len(built) <= n, (k, n)

    def test_refusals_are_not_memoised(self):
        label = GeneratorLabel("eta", 1)
        for _ in range(2):
            with pytest.raises(ValueError, match="copy index starts at 1"):
                ktheory._on_copy(label, 0)
        assert ktheory._on_copy(label, 1) == label
        with pytest.raises(ValueError, match="copy index starts at 1"):
            ktheory._on_copy(label, 0)

    def test_calls_past_the_gate_skip_the_memo(self, monkeypatch):
        within = ko_group(0, 3, 10), complex_k0(3, 10)
        monkeypatch.setattr(ktheory, "_LABEL_MEMO", 10)  # both move more labels
        info = ktheory._on_copy.cache_info()
        assert (ko_group(0, 3, 10), complex_k0(3, 10)) == within
        assert ktheory._on_copy.cache_info() == info

    def test_block_order_at_k40(self):
        k = 40

        # copy k first, then copies 1..k-1: free classes, then torsion
        def block(g):
            return (_is_torsion(g), 0 if g.copy_index == k else g.copy_index)

        top_torsion = rest_torsion = False
        for s in (0, 4):
            for n in (8, 9, 10, 11, 12, 13):
                res = ko_group(s, k, n)
                free_rank, ngens = res.group.free_rank, res.group.ngens
                assert [_is_torsion(g) for g in res.basis] == (
                    [False] * free_rank + [True] * (ngens - free_rank)
                ), (s, n)
                keys = [block(g) for g in res.basis]
                assert keys == sorted(keys), (s, n)
                for torsion in (False, True):
                    for copy in range(1, k + 1):
                        entry = tables.ko_single_cp(s, n if copy == k else n - 1)
                        want = [
                            (g.symbol, g.power) for g in entry.basis
                            if _is_torsion(g) == torsion
                        ]
                        got = [
                            g for g in res.basis
                            if block(g) == (torsion, 0 if copy == k else copy)
                        ]
                        assert [(g.symbol, g.power) for g in got] == want, (s, n, copy)
                        assert all(
                            g.decoration == ("q*" if copy == k else "") for g in got
                        )
                        assert all(f"_{copy}^" in g.relation for g in got if torsion)
                        if torsion and got:
                            top_torsion |= copy == k
                            rest_torsion |= copy != k
        assert top_torsion and rest_torsion
