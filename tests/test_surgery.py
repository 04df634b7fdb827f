"""Normal invariants, structure sets, and exotic counts."""

import pytest

from cpsums import cohomotopy, surgery, tables, verify
from cpsums.cohomotopy import pi_s0_connected_sum
from cpsums.fgab import FgAbGroup
from cpsums.surgery import (
    AmbiguousUpstream,
    f_over_o,
    f_over_pl,
    kernel_f_star_rank,
    pl_over_o,
    structure_set,
)

Z2 = FgAbGroup.cyclic(2)


def two_group(k):
    return FgAbGroup.from_primary({2: [1] * k})


class TestFOverO:
    def test_k2_n5(self):
        res = f_over_o(2, 5)
        assert res.group == FgAbGroup.from_primary({2: [1] * 4, 3: [1]}, free_rank=4)
        assert res.free_rank == 4
        assert res.torsion == pi_s0_connected_sum(2, 5).group

    def test_k1_n4(self):
        res = f_over_o(1, 4)
        assert res.group == FgAbGroup(2, (2, 2))
        assert res.free_rank == 2

    def test_k3_n3(self):
        assert f_over_o(3, 3).group == FgAbGroup(3, (2,))

    def test_parity_rank_formulas(self):
        for k in range(1, 11):
            for n in range(3, 8):
                res = f_over_o(k, n)
                expected = k * (n // 2) if n % 2 else k * ((n - 1) // 2) + 1
                assert res.free_rank == expected

    def test_free_rank_matches_ko_kernel(self):
        for k in range(2, 7):
            for n in range(3, 8):
                assert f_over_o(k, n).free_rank == kernel_f_star_rank(k, n)

    def test_ambiguous_upstream_at_n8(self):
        with pytest.raises(AmbiguousUpstream) as info:
            f_over_o(2, 8)
        assert len(info.value.candidates) == 2

    def test_range(self):
        with pytest.raises(ValueError):
            f_over_o(1, 9)
        with pytest.raises(ValueError):
            f_over_o(0, 5)


class TestKernelRank:
    def test_spot_values(self):
        assert kernel_f_star_rank(2, 5) == 4
        assert kernel_f_star_rank(2, 6) == 5
        # consistency forced by the parity formula k*floor((n-1)/2)+1 at n=4
        assert kernel_f_star_rank(3, 4) == 4

    def test_range(self):
        with pytest.raises(ValueError):
            kernel_f_star_rank(1, 5)


class TestFOverPL:
    def test_n5_family(self):
        for k in (1, 2, 5):
            res = f_over_pl(k, 5)
            assert res.group == FgAbGroup(2 * k, tuple([2] * (k + 1)))

    def test_k1_n4(self):
        assert f_over_pl(1, 4).group == FgAbGroup(2, (2,))

    def test_k3_n7(self):
        assert f_over_pl(3, 7).group == FgAbGroup(9, tuple([2] * 7))

    def test_no_odd_torsion(self):
        for k in range(1, 8):
            for n in range(2, 9):
                g = f_over_pl(k, n).group
                assert all(d & (d - 1) == 0 for d in g.invariant_factors)

    def test_floor_arithmetic_independent(self):
        for k in range(1, 8):
            for n in range(2, 9):
                res = f_over_pl(k, n)
                if n % 2 == 0:
                    assert res.free_rank == k * ((n - 1) // 2) + 1
                    assert len(res.group.invariant_factors) == k * ((n - 1) // 2)
                else:
                    assert res.free_rank == k * (n // 2)
                    assert len(res.group.invariant_factors) == k * (n // 2 - 1) + 1

    def test_degenerate_corner(self):
        # at n = 1 the space is the 2-sphere and the closed form is out of
        # its domain
        with pytest.raises(ValueError):
            f_over_pl(1, 1)
        with pytest.raises(ValueError):
            f_over_pl(2, 1)


class TestPlOverO:
    def test_n5(self):
        for k in (1, 3):
            assert pl_over_o(k, 5) == FgAbGroup.from_primary(
                {2: [1] * (k + 1), 3: [1]}
            )

    def test_n6_equals_cohomotopy(self):
        for k in (1, 2, 4):
            assert pl_over_o(k, 6) == pi_s0_connected_sum(k, 6).group

    def test_injectivity_order_chain(self):
        for k in range(1, 7):
            for n in range(3, 8):
                pi = pi_s0_connected_sum(k, n).group
                assert pi.torsion_order() % pl_over_o(k, n).torsion_order() == 0


class TestStructureSet:
    def test_k2_n4(self):
        res = structure_set(2, 4)
        assert res.image_of_eta == two_group(3)
        assert res.image_of_eta.torsion_order() == 8
        assert res.exotic_count == 4

    def test_k3_n5(self):
        res = structure_set(3, 5)
        assert res.image_of_eta == two_group(5)
        assert res.exotic_count == 2

    def test_k5_n6(self):
        assert structure_set(5, 6).exotic_count == 0

    def test_counts_grid(self):
        for k in range(2, 11):
            assert structure_set(k, 3).exotic_count == 0
            assert structure_set(k, 4).exotic_count == 2**k
            assert structure_set(k, 5).exotic_count == 2 ** (k - 2)
            assert structure_set(k, 6).exotic_count == 0
            assert structure_set(k, 7).exotic_count == 0

    def test_n4_count_is_half_the_smooth_set(self):
        for k in range(1, 11):
            res = structure_set(k, 4)
            assert res.exotic_count == res.image_of_eta.torsion_order() // 2

    def test_k1_n5_out_of_domain(self):
        res = structure_set(1, 5)
        assert res.exotic_count is None
        assert res.note

    def test_n7_image_is_pl_set(self):
        for k in (1, 2, 4):
            res = structure_set(k, 7)
            assert res.image_of_eta == res.pl_group
            assert res.pl_group == pl_over_o(k, 7)

    def test_pl_order_mismatch_raises(self, monkeypatch):
        # an explicit raise, so the check also holds under python -O; at
        # n = 6 the image of eta is pi_s^0, to which the PL/O row must be
        # isomorphic
        real = tables.pl_over_o_entry

        def wrong_entry(k, n):
            entry = real(k, n)
            return tables.TableEntry(
                kind=entry.kind,
                params=entry.params,
                group=entry.group.direct_sum(Z2),
                citation=entry.citation,
            )

        monkeypatch.setattr(tables, "pl_over_o_entry", wrong_entry)
        with pytest.raises(
            ValueError, match=r"PL/O\] = Z_2\^2 \+ Z_6\^2; it is \{Z_2 \+ Z_6\^2\}"
        ):
            structure_set(2, 6)

    def test_n7_image_order_must_divide_normal_invariants(self, monkeypatch):
        # at n = 7 the PL/O row must be isomorphic to im(eta) = ker(theta),
        # the index-2 subgroup Z_2^2 + Z_6 of pi_s^0 = Z_2^3 + Z_6
        real = tables.pl_over_o_entry

        def wrong_entry(k, n):
            entry = real(k, n)
            return tables.TableEntry(
                kind=entry.kind,
                params=entry.params,
                group=entry.group.direct_sum(FgAbGroup.cyclic(5)),
                citation=entry.citation,
            )

        monkeypatch.setattr(tables, "pl_over_o_entry", wrong_entry)
        with pytest.raises(ValueError, match=r"= Z_2\^2 \+ Z_30; it is \{Z_2\^2 \+ Z_6\}"):
            structure_set(2, 7)

    def test_n7_index_one_pl_table_raises(self, monkeypatch):
        # a PL/O row equal to pi_s^0 leaves no room for the nonzero
        # obstruction at n = 7: im(eta) = ker(theta) has index 2
        real = tables.pl_over_o_entry

        def index_one_entry(k, n):
            entry = real(k, n)
            if n != 7:
                return entry
            return tables.TableEntry(
                kind=entry.kind,
                params=entry.params,
                group=pi_s0_connected_sum(k, n).group,
                citation=entry.citation,
            )

        monkeypatch.setattr(tables, "pl_over_o_entry", index_one_entry)
        with pytest.raises(ValueError, match=r"= Z_2\^3 \+ Z_6; it is \{Z_2\^2 \+ Z_6\}"):
            structure_set(2, 7)
        report = verify.surgery_suite()
        assert [f.prop for f in report.failures] == ["surgery-exactness"] * 5  # k = 2..6
        assert all("n=7" in f.detail for f in report.failures)

    def test_suite_resolves_cohomotopy_twice_per_case(self, monkeypatch):
        # once in f_over_o and once in structure_set, whose normal
        # invariants the suite reads; no third, direct resolution
        calls = []

        def counting(k, n):
            calls.append((k, n))
            return pi_s0_connected_sum(k, n)

        monkeypatch.setattr(cohomotopy, "pi_s0_connected_sum", counting)
        monkeypatch.setattr(surgery, "pi_s0_connected_sum", counting)
        report = verify.surgery_suite()
        assert report.ok and report.cases == 25
        assert len(calls) == 50

    @pytest.mark.parametrize("n", [3, 4, 6, 7])
    def test_exactness_grid(self, n):
        for k in range(1, 13):
            res = structure_set(k, n)
            assert res.normal_invariants.torsion_order() == (
                res.image_of_eta.torsion_order() * res.obstruction_image_order
            )

    def test_n4_half_count_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(
            surgery, "_resolved_cohomotopy", lambda k, n: (two_group(k), ())
        )
        with pytest.raises(ValueError, match="not half"):
            structure_set(3, 4)


class TestSurgerySequenceReport:
    def test_obstruction_statuses(self):
        assert structure_set(2, 3).obstruction_status == "zero"
        assert structure_set(2, 4).obstruction_status == "zero"
        rep5 = structure_set(2, 5)
        assert rep5.obstruction_status == "nonzero"
        assert rep5.obstruction_image_order == 2
        assert structure_set(2, 7).obstruction_status == "nonzero-homomorphism"

    def test_eta_always_injective(self):
        for n in range(3, 8):
            rep = structure_set(3, n)
            assert rep.eta_injective
            assert rep.odd_wall.is_trivial

    def test_wall_groups_filled(self):
        rep = structure_set(2, 5)
        assert rep.even_wall == Z2  # L_10
        rep = structure_set(2, 4)
        assert rep.even_wall == FgAbGroup.free(1)  # L_8

    def test_render_mentions_sequence(self):
        text = structure_set(2, 5).render()
        assert "L_11" in text and "L_10" in text and "S^t_Diff" in text

    @pytest.mark.parametrize("n", range(3, 8))
    def test_cohomotopy_resolved_once(self, monkeypatch, n):
        calls = []

        def counting(k, n):
            calls.append((k, n))
            return pi_s0_connected_sum(k, n)

        monkeypatch.setattr(surgery, "pi_s0_connected_sum", counting)
        rep = structure_set(3, n)
        assert calls == [(3, n)]
        assert rep.normal_invariants == pi_s0_connected_sum(3, n).group
        assert rep.image_of_eta == structure_set(3, n).image_of_eta
