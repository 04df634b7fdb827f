"""Stable cohomotopy pi_s^0 of k-fold connected sums of CP^n, 3 <= n <= 8.

Each n has its own sequence shape (the n = 4 case takes k copies of
pi_s^0(CP^3) on the quotient side, every other case takes k-1 copies of
the next space down plus a Hopf kernel; n = 3 and n = 6 degenerate to
isomorphisms).  The middle term is then pinned down by the splitting
filters the case analysis supports: no element of order 4 for n = 4, 5,
7, plus the 3-localization value for n = 7.  The n = 8 sequence admits
two middle terms and no filter is available, so the result is reported
as ambiguous rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tables
from .extensions import (
    AmbiguousResult,
    ShortExactSequence,
    SplittingFilter,
    resolve,
)
from .fgab import FgAbGroup

N_RANGE = range(3, 9)


@dataclass(frozen=True)
class CohomotopyResult:
    k: int
    n: int
    group: FgAbGroup | AmbiguousResult
    sequence: ShortExactSequence
    filters_applied: tuple[SplittingFilter, ...]
    citations: tuple[str, ...]

    @property
    def is_ambiguous(self) -> bool:
        return isinstance(self.group, AmbiguousResult)


def _check_range(k: int, n: int):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n not in N_RANGE:
        raise ValueError(f"n must lie in 3..8, got {n}")


def _quotient_by_image(stem: FgAbGroup, image: FgAbGroup) -> FgAbGroup:
    """pi_{2n}^s / im((Sigma h)^*), by torsion-order bookkeeping.

    The tabulated images here are 0 or a single Z_2 inside Z_2^2, so the
    quotient is determined by orders; assert as much rather than assume.
    """
    if image.is_trivial:
        return stem
    if image != FgAbGroup.cyclic(2) or stem != FgAbGroup(0, (2, 2)):
        raise ValueError(
            f"untabulated quotient shape: {stem} / {image}"
        )
    return FgAbGroup.cyclic(2)


def _sum_of(copies: int, g: FgAbGroup) -> FgAbGroup:
    return FgAbGroup.from_cyclic_orders(
        *([0] * (g.free_rank * copies)), *(g.invariant_factors * copies)
    )


def build_sequence(k: int, n: int) -> ShortExactSequence:
    """The short exact sequence computing pi_s^0 of the k-fold sum of CP^n."""
    _check_range(k, n)
    if n == 6:
        # iota^* is an isomorphism onto the skeletal side; no stem term
        sub = FgAbGroup.zero()
    else:
        stem = tables.stable_stem(2 * n)
        sub = _quotient_by_image(stem, tables.hopf_image_suspension(n))
    if n == 3:
        # degree-one map is an isomorphism; the skeletal side vanishes
        quot = FgAbGroup.zero()
        shape = "0 -> pi_6^s -> pi_s^0(#_k CP^3) -> 0"
    elif n == 4:
        quot = _sum_of(k, tables.pi_s0_single_cp(3))
        shape = "0 -> pi_8^s/Z_2 -> pi_s^0(#_k CP^4) -> sum_k pi_s^0(CP^3) -> 0"
    else:
        quot = _sum_of(k - 1, tables.pi_s0_single_cp(n - 1)).direct_sum(
            tables.hopf_kernel(n - 1)
        )
        shape = (
            f"0 -> pi_{2 * n}^s/im((Sigma h)^*) -> pi_s^0(#_k CP^{n}) -> "
            f"sum_(k-1) pi_s^0(CP^{n - 1}) + ker(h^*) -> 0"
        )
    return ShortExactSequence(sub=sub, quot=quot, provenance=shape)


def _filters_for(k: int, n: int) -> tuple[SplittingFilter, ...]:
    no4 = SplittingFilter.no_element_of_order(4)
    if n in (4, 5):
        return (no4,)
    if n == 7:
        loc3 = SplittingFilter.localization_at(
            3, FgAbGroup.from_cyclic_orders(*([3] * (k - 1)))
        )
        return (loc3, no4)
    return ()


_FILTER_CITATIONS = {
    4: "splits: the group is covered by k copies of pi_s^0(CP^4) = Z_2^2, so it has no element of order 4",
    5: "splits: the PL-normal-invariant comparison shows the torsion contains no Z_4",
    7: "splits: 3-localization is Z_3^(k-1), and surjectivity from k copies of Z_2^3 rules out order-4 elements",
}


def pi_s0_connected_sum(k: int, n: int) -> CohomotopyResult:
    """pi_s^0(#_k CP^n): the resolved group, or both candidates for n = 8."""
    _check_range(k, n)
    seq = build_sequence(k, n)
    filters = _filters_for(k, n)
    group = resolve(seq, list(filters))
    citations = [seq.provenance]
    if n in _FILTER_CITATIONS:
        citations.append(_FILTER_CITATIONS[n])
    if n == 8:
        citations.append(
            "the n = 8 sequence is not known to split; both middle terms are reported"
        )
    return CohomotopyResult(
        k=k,
        n=n,
        group=group,
        sequence=seq,
        filters_applied=filters,
        citations=tuple(citations),
    )


def expected_closed_form(k: int, n: int) -> FgAbGroup:
    """Closed forms of the resolved families, for cross-checking.

    n=3: Z_2; n=4: Z_2^(k+1); n=5: Z_2^(2k) + Z_3; n=6: Z_2^(2k-1) + Z_3^k;
    n=7: Z_2^(k+2) + Z_3^(k-1).  Raises for n = 8 (no closed form).
    """
    _check_range(k, n)
    if n == 3:
        return FgAbGroup.cyclic(2)
    if n == 4:
        return FgAbGroup.from_primary({2: [1] * (k + 1)})
    if n == 5:
        return FgAbGroup.from_primary({2: [1] * (2 * k), 3: [1]})
    if n == 6:
        return FgAbGroup.from_primary({2: [1] * (2 * k - 1), 3: [1] * k})
    if n == 7:
        return FgAbGroup.from_primary({2: [1] * (k + 2), 3: [1] * (k - 1)})
    raise ValueError("no closed form is known for n = 8")
