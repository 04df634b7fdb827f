"""Acceptance criteria, one test per criterion, each printing a
pass/fail line with its timing.  Time limits are part of the contract
and are asserted.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from contextlib import contextmanager

import pytest

from cpsums import tables
from cpsums.cohomotopy import pi_s0_connected_sum
from cpsums.extensions import (
    AmbiguousResult,
    all_abelian_groups_of_order,
    brute_force_middle_terms,
    middle_candidates_between,
)
from cpsums.fgab import FgAbGroup, IntegerMatrix, smith_normal_form
from cpsums.ktheory import ko_group
from cpsums.surgery import f_over_o, f_over_pl, kernel_f_star_rank, structure_set


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if failed is None and elapsed < limit_seconds else "FAIL"
        print(
            f"ACCEPTANCE {number}: {status} ({elapsed:.2f}s / limit {limit_seconds}s)"
            f" - {description}"
        )
        if failed is None:
            assert elapsed < limit_seconds, (
                f"criterion {number} exceeded its {limit_seconds}s budget"
            )


def two_three_group(twos, threes):
    return FgAbGroup.from_primary({2: [1] * twos, 3: [1] * threes})


def test_criterion_1_cohomotopy_table():
    with criterion(1, "pi_s^0(#_k CP^n) closed forms for k = 1..8, n = 3..7", 1.0):
        for k in range(1, 9):
            expected = {
                3: two_three_group(1, 0),
                4: two_three_group(k + 1, 0),
                5: two_three_group(2 * k, 1),
                6: two_three_group(2 * k - 1, k),
                7: two_three_group(k + 2, k - 1),
            }
            for n, want in expected.items():
                got = pi_s0_connected_sum(k, n).group
                assert got == want, (k, n, str(got), str(want))


def test_criterion_2_n8_honesty():
    with criterion(2, "n = 8 stays ambiguous, candidates match the oracle", 10.0):
        for k in (1, 2):
            res = pi_s0_connected_sum(k, 8)
            assert isinstance(res.group, AmbiguousResult)
            seq = res.sequence
            oracle = brute_force_middle_terms(seq.sub, seq.quot)
            assert sorted(res.group.candidates) == oracle


def test_criterion_3_ko_spot_grid():
    def expected_ko(s, k, n):
        """Independent encoding of the 32-case table, written directly."""
        m, q = divmod(n, 4)
        if s in (1, 5):
            return FgAbGroup.zero()
        if s == 3:
            return {0: FgAbGroup(0, (2,) * (k - 1)), 3: FgAbGroup.cyclic(2)}.get(
                q, FgAbGroup.zero()
            )
        if s == 7:
            return {2: FgAbGroup(0, (2,) * (k - 1)), 1: FgAbGroup.cyclic(2)}.get(
                q, FgAbGroup.zero()
            )
        if s == 0:
            rank = [2 * k * m - k + 1, 2 * k * m, 2 * k * m + 1, 2 * k * m + k][q]
            torsion = [0, 1, k - 1, 0][q]
        elif s == 2:
            rank = [2 * k * m, 2 * k * m + 1, 2 * k * m + k, 2 * k * m + k + 1][q]
            torsion = 0
        elif s == 4:
            rank = [2 * k * m - k + 1, 2 * k * m, 2 * k * m + 1, 2 * k * m + k][q]
            torsion = [k - 1, 0, 0, 1][q]
        else:  # s == 6
            rank = [2 * k * m, 2 * k * m + 1, 2 * k * m + k, 2 * k * m + k + 1][q]
            torsion = 0
        return FgAbGroup(rank, (2,) * torsion)

    with criterion(3, "KO^-s grid for s in 0..7, k in 2..4, n in 4..11", 1.0):
        for s in range(8):
            for k in (2, 3, 4):
                for n in range(4, 12):
                    got = ko_group(s, k, n).group
                    want = expected_ko(s, k, n)
                    assert got == want, (s, k, n, str(got), str(want))


def test_criterion_4_extension_oracle_equivalence():
    with criterion(4, "candidate enumeration = subgroup oracle, |A||B| <= 64", 60.0):
        for na in range(1, 65):
            for nb in range(1, 64 // na + 1):
                for a in all_abelian_groups_of_order(na):
                    for b in all_abelian_groups_of_order(nb):
                        assert middle_candidates_between(
                            a, b
                        ) == brute_force_middle_terms(a, b), (str(a), str(b))


def test_criterion_5_snf_property_suite():
    with criterion(5, "1000 seeded SNF matrices up to 8x8, entries in [-20, 20]", 30.0):
        rng = random.Random(20230915)
        for _ in range(1000):
            rows = rng.randint(0, 8)
            cols = rng.randint(0, 8)
            m = IntegerMatrix(
                [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            u, d, v = smith_normal_form(m)
            assert (u @ m) @ v == d
            assert abs(u.determinant()) == 1
            assert abs(v.determinant()) == 1
            diag = d.diagonal()
            assert all(x >= 0 for x in diag)
            chain = [x for x in diag if x]
            assert all(y % x == 0 for x, y in zip(chain, chain[1:]))
            assert all(x == 0 for x in diag[len(chain):])


def test_criterion_6_f_over_o_splitting():
    with criterion(6, "F/O torsion/free split matches ranks and KO^0", 1.0):
        for k in range(2, 7):
            for n in range(3, 8):
                res = f_over_o(k, n)
                parity_rank = k * (n // 2) if n % 2 else k * ((n - 1) // 2) + 1
                assert res.free_rank == parity_rank
                assert res.free_rank == kernel_f_star_rank(k, n)
                assert res.free_rank == ko_group(0, k, n).group.free_rank
                assert res.torsion == pi_s0_connected_sum(k, n).group
                assert res.group == res.torsion.direct_sum(
                    FgAbGroup.free(res.free_rank)
                )


def test_criterion_7_f_over_pl():
    with criterion(7, "F/PL closed form; n = 5 family; no odd torsion", 5.0):
        for k in range(1, 11):
            for n in range(2, 9):
                res = f_over_pl(k, n)
                if n % 2 == 0:
                    want = FgAbGroup(
                        k * ((n - 1) // 2) + 1, (2,) * (k * ((n - 1) // 2))
                    )
                else:
                    want = FgAbGroup(k * (n // 2), (2,) * (k * (n // 2 - 1) + 1))
                assert res.group == want
                assert all(
                    d & (d - 1) == 0 for d in res.group.invariant_factors
                ), "odd torsion appeared"
            five = f_over_pl(k, 5).group
            assert five == FgAbGroup(2 * k, (2,) * (k + 1))


def test_criterion_8_exotic_counts():
    with criterion(8, "tangential-but-not-homeomorphic counts for k = 2..10", 5.0):
        for k in range(2, 11):
            assert structure_set(k, 3).exotic_count == 0
            assert structure_set(k, 6).exotic_count == 0
            assert structure_set(k, 7).exotic_count == 0
            four = structure_set(k, 4)
            assert four.exotic_count == 2**k
            assert four.exotic_count == pi_s0_connected_sum(k, 4).group.torsion_order() // 2
            assert structure_set(k, 5).exotic_count == 2 ** (k - 2)


def test_criterion_9_single_copy_regressions():
    with criterion(9, "k = 1 degenerations match the single-copy tables", 5.0):
        for n in range(3, 8):
            single = tables.pi_s0_single_cp(n)
            assert pi_s0_connected_sum(1, n).group == single
            res = f_over_o(1, n)
            assert res.torsion == single
        # n = 8 has no unique value; the single-copy group must appear
        # among the reported candidates
        res = pi_s0_connected_sum(1, 8)
        assert tables.pi_s0_single_cp(8) in res.group
