"""Stable cohomotopy of connected sums: sequences, splittings, regressions."""

import pytest

from cpsums import tables
from cpsums.cohomotopy import expected_closed_form, pi_s0_connected_sum
from cpsums.extensions import (
    AmbiguousResult,
    brute_force_middle_terms,
    dominance_interval,
    middle_candidates,
)
from cpsums.fgab import FgAbGroup

Z2 = FgAbGroup.cyclic(2)


class TestSequence:
    def test_k2_n4(self):
        seq = pi_s0_connected_sum(2, 4).sequence
        assert seq.sub == Z2  # pi_8^s / Z_2
        assert seq.quot == FgAbGroup(0, (2, 2))  # k copies of pi_s^0(CP^3)

    def test_k1_n6_degenerates(self):
        seq = pi_s0_connected_sum(1, 6).sequence
        assert seq.sub == FgAbGroup.zero()
        assert seq.quot == FgAbGroup.from_cyclic_orders(2, 3)

    def test_k3_n7(self):
        seq = pi_s0_connected_sum(3, 7).sequence
        assert seq.sub == FgAbGroup(0, (2, 2))
        assert seq.quot == FgAbGroup.from_cyclic_orders(2, 3, 2, 3, 2)
        total = seq.sub.torsion_order() * seq.quot.torsion_order()
        assert total == 2**5 * 3**2

    def test_stem_quotient_with_several_types_raises(self, monkeypatch):
        # Z_2 + Z_4 has two subgroups Z_2 with different quotients; the
        # sequence must name both rather than pick one
        stems = {8: FgAbGroup(0, (2, 4))}
        real = tables.stable_stem
        monkeypatch.setattr(tables, "stable_stem", lambda n: stems.get(n) or real(n))
        with pytest.raises(ValueError) as info:
            pi_s0_connected_sum(2, 4)
        assert "Z_4" in str(info.value) and "Z_2^2" in str(info.value)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            pi_s0_connected_sum(0, 5)
        with pytest.raises(ValueError):
            pi_s0_connected_sum(1, 9)
        with pytest.raises(ValueError):
            pi_s0_connected_sum(1, 2)


class TestResolvedFamilies:
    def test_k1_n4(self):
        assert pi_s0_connected_sum(1, 4).group == FgAbGroup(0, (2, 2))

    def test_k2_n5(self):
        assert pi_s0_connected_sum(2, 5).group == FgAbGroup.from_primary(
            {2: [1] * 4, 3: [1]}
        )

    def test_k4_n6(self):
        assert pi_s0_connected_sum(4, 6).group == FgAbGroup.from_primary(
            {2: [1] * 7, 3: [1] * 4}
        )

    def test_closed_forms_k_one_to_eight(self):
        for n in range(3, 8):
            for k in range(1, 9):
                assert pi_s0_connected_sum(k, n).group == expected_closed_form(k, n)

    def test_result_is_a_middle_term(self):
        for n in range(3, 8):
            for k in (1, 2, 3):
                res = pi_s0_connected_sum(k, n)
                assert res.group in middle_candidates(res.sequence)
                assert (
                    res.group.torsion_order()
                    == res.sequence.sub.torsion_order()
                    * res.sequence.quot.torsion_order()
                )

    def test_no_order_four_where_filtered(self):
        for n in (4, 5, 7):
            for k in (1, 2, 5):
                assert not pi_s0_connected_sum(k, n).group.has_element_of_order(4)

    def test_three_localizations(self):
        for k in (1, 2, 4):
            seven = pi_s0_connected_sum(k, 7).group
            assert seven.localized_at(3) == FgAbGroup.from_primary(
                {3: [1] * (k - 1)}
            )
            five = pi_s0_connected_sum(k, 5).group
            assert five.localized_at(3) == FgAbGroup.cyclic(3)


class TestAmbiguousCaseN8:
    def test_returns_both_candidates(self):
        for k in (1, 2):
            res = pi_s0_connected_sum(k, 8)
            assert isinstance(res.group, AmbiguousResult)
            assert len(res.group) == 2

    def test_candidates_match_oracle(self):
        for k in (1, 2):
            res = pi_s0_connected_sum(k, 8)
            oracle = brute_force_middle_terms(res.sequence.sub, res.sequence.quot)
            assert sorted(res.group) == oracle


def _shapes_per_prime(k, n):
    """Shapes the dominance-interval generator yields, per prime, for the
    sequence of #_k CP^n."""
    seq = pi_s0_connected_sum(k, n).sequence
    mu, nu = seq.sub.primary_exponents(), seq.quot.primary_exponents()
    return {
        p: sum(1 for _ in dominance_interval(mu.get(p, ()), nu.get(p, ())))
        for p in sorted(set(mu) | set(nu))
    }


class TestLargeK:
    def test_shape_count_stays_flat(self):
        # a full scan would visit p(3k) partitions for n = 8: 147,273 at k = 16
        for k in (16, 100):
            assert _shapes_per_prime(k, 8) == {2: 2}
            for n in range(3, 9):
                assert all(c <= 3 for c in _shapes_per_prime(k, n).values())

    def test_closed_forms_at_k_100(self):
        for n in range(3, 8):
            assert pi_s0_connected_sum(100, n).group == expected_closed_form(100, n)

    def test_n8_at_k_100(self):
        res = pi_s0_connected_sum(100, 8)
        assert isinstance(res.group, AmbiguousResult)
        assert set(res.group) == {
            FgAbGroup(0, (2,) * 300),
            FgAbGroup(0, (2,) * 298 + (4,)),
        }


class TestSingleCopyRegression:
    def test_k1_matches_tables(self):
        for n in range(3, 8):
            assert pi_s0_connected_sum(1, n).group == tables.pi_s0_single_cp(n)

    def test_k1_n8_candidates_include_table_value(self):
        res = pi_s0_connected_sum(1, 8)
        assert tables.pi_s0_single_cp(8) in res.group


# per n: the sub term, the provenance and, per k, the quotient and each
# filter's description, as strings
PINNED_SEQUENCES = {
    3: (
        "Z_2",
        "0 -> pi_6^s -> pi_s^0(#_k CP^3) -> 0",
        {
            1: ("0", ()),
            2: ("0", ()),
            3: ("0", ()),
            4: ("0", ()),
            5: ("0", ()),
            6: ("0", ()),
            7: ("0", ()),
            8: ("0", ()),
            100: ("0", ()),
            1000: ("0", ()),
        },
    ),
    4: (
        "Z_2",
        "0 -> pi_8^s/Z_2 -> pi_s^0(#_k CP^4) -> sum_k pi_s^0(CP^3) -> 0",
        {
            1: ("Z_2", ("no element of order 4",)),
            2: ("Z_2^2", ("no element of order 4",)),
            3: ("Z_2^3", ("no element of order 4",)),
            4: ("Z_2^4", ("no element of order 4",)),
            5: ("Z_2^5", ("no element of order 4",)),
            6: ("Z_2^6", ("no element of order 4",)),
            7: ("Z_2^7", ("no element of order 4",)),
            8: ("Z_2^8", ("no element of order 4",)),
            100: ("Z_2^100", ("no element of order 4",)),
            1000: ("Z_2^1000", ("no element of order 4",)),
        },
    ),
    5: (
        "Z_6",
        "0 -> pi_10^s/im((Sigma h)^*) -> pi_s^0(#_k CP^5) -> "
        "sum_(k-1) pi_s^0(CP^4) + ker(h^*) -> 0",
        {
            1: ("Z_2", ("no element of order 4",)),
            2: ("Z_2^3", ("no element of order 4",)),
            3: ("Z_2^5", ("no element of order 4",)),
            4: ("Z_2^7", ("no element of order 4",)),
            5: ("Z_2^9", ("no element of order 4",)),
            6: ("Z_2^11", ("no element of order 4",)),
            7: ("Z_2^13", ("no element of order 4",)),
            8: ("Z_2^15", ("no element of order 4",)),
            100: ("Z_2^199", ("no element of order 4",)),
            1000: ("Z_2^1999", ("no element of order 4",)),
        },
    ),
    6: (
        "0",
        "0 -> pi_12^s/im((Sigma h)^*) -> pi_s^0(#_k CP^6) -> "
        "sum_(k-1) pi_s^0(CP^5) + ker(h^*) -> 0",
        {
            1: ("Z_6", ()),
            2: ("Z_2 + Z_6^2", ()),
            3: ("Z_2^2 + Z_6^3", ()),
            4: ("Z_2^3 + Z_6^4", ()),
            5: ("Z_2^4 + Z_6^5", ()),
            6: ("Z_2^5 + Z_6^6", ()),
            7: ("Z_2^6 + Z_6^7", ()),
            8: ("Z_2^7 + Z_6^8", ()),
            100: ("Z_2^99 + Z_6^100", ()),
            1000: ("Z_2^999 + Z_6^1000", ()),
        },
    ),
    7: (
        "Z_2^2",
        "0 -> pi_14^s/im((Sigma h)^*) -> pi_s^0(#_k CP^7) -> "
        "sum_(k-1) pi_s^0(CP^6) + ker(h^*) -> 0",
        {
            1: ("Z_2", ("no element of order 4",)),
            2: ("Z_2 + Z_6", ("no element of order 4",)),
            3: ("Z_2 + Z_6^2", ("no element of order 4",)),
            4: ("Z_2 + Z_6^3", ("no element of order 4",)),
            5: ("Z_2 + Z_6^4", ("no element of order 4",)),
            6: ("Z_2 + Z_6^5", ("no element of order 4",)),
            7: ("Z_2 + Z_6^6", ("no element of order 4",)),
            8: ("Z_2 + Z_6^7", ("no element of order 4",)),
            100: ("Z_2 + Z_6^99", ("no element of order 4",)),
            1000: ("Z_2 + Z_6^999", ("no element of order 4",)),
        },
    ),
    8: (
        "Z_2",
        "0 -> pi_16^s/im((Sigma h)^*) -> pi_s^0(#_k CP^8) -> "
        "sum_(k-1) pi_s^0(CP^7) + ker(h^*) -> 0",
        {
            1: ("Z_2^2", ()),
            2: ("Z_2^5", ()),
            3: ("Z_2^8", ()),
            4: ("Z_2^11", ()),
            5: ("Z_2^14", ()),
            6: ("Z_2^17", ()),
            7: ("Z_2^20", ()),
            8: ("Z_2^23", ()),
            100: ("Z_2^299", ()),
            1000: ("Z_2^2999", ()),
        },
    ),
}


class TestPinnedSequences:
    @pytest.mark.parametrize("n", sorted(PINNED_SEQUENCES))
    def test_sequence_and_filters(self, n):
        sub, provenance, by_k = PINNED_SEQUENCES[n]
        for k, (quot, filters) in by_k.items():
            res = pi_s0_connected_sum(k, n)
            seq = res.sequence
            assert (str(seq.sub), seq.provenance, str(seq.quot)) == (sub, provenance, quot), k
            assert tuple(f.description for f in res.filters) == filters, k
