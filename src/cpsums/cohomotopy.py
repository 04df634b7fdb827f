"""Stable cohomotopy pi_s^0 of k-fold connected sums of CP^n, 3 <= n <= 8.

Every n has one cited ``pi_s0_sequence`` record (`tables.pi_s0_sequence`),
read here by one code path.  Its sub term pi_{2n}^s / im((Sigma h)^*) is
the one quotient type that `outer_candidates_between` finds (n = 6 lists
no stem term).  Its quotient is an affine-in-k number of copies of
tabulated groups: k copies of pi_s^0(CP^3) for n = 4, k-1 copies of
pi_s^0(CP^(n-1)) plus the Hopf kernel for n >= 5, nothing for n = 3.
The middle term is then pinned down by the record's splitting filters:
no element of order 4 for n = 4, 5, 7, plus the 3-localization
Z_3^(k-1) for n = 7.  The n = 8 record has no filter and its sequence
admits two middle terms, so the result is reported as ambiguous rather
than guessed.
"""

from __future__ import annotations

from functools import lru_cache

from . import extensions, tables
from .extensions import InexactSequence, ShortExactSequence, SplittingFilter, resolve
from .fgab import FgAbGroup
from .tables import Result

N_RANGE = range(3, 9)


def _check_range(k: int, n: int):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n not in N_RANGE:
        raise ValueError(f"n must lie in 3..8, got {n}")


@lru_cache(maxsize=None)  # a few table pairs, asked again for every k
def _quotient_by_image(stem: FgAbGroup, image: FgAbGroup) -> FgAbGroup:
    """pi_{2n}^s / im((Sigma h)^*), the one quotient type the LR solver
    allows; several types, or none, raise rather than pick (rule 2)."""
    quotients = extensions.outer_candidates_between(stem, image)
    if len(quotients) != 1:
        raise InexactSequence(
            f"({stem}) / ({image}): {len(quotients)} quotient types fit, not one: "
            "{" + ", ".join(map(str, quotients)) + "}"
        )
    return quotients[0]


def _sequence(rec: dict, k: int) -> ShortExactSequence:
    sub = FgAbGroup.zero()
    if rec["sub"]:
        stem, image = rec["sub"]
        sub = _quotient_by_image(tables.stable_stem(stem), tables.hopf_image_suspension(image))
    runs = []
    for kind, m, copies in rec["quot"]:
        g = tables.entry(kind, n=m)
        runs += [[d, copies] for d in (0,) * g.free_rank + g.invariant_factors]
    return ShortExactSequence(sub, tables.affine_group(runs, k), rec["citation"])


def _filter(spec: dict, k: int) -> SplittingFilter:
    if "localization_at" in spec:
        target = tables.affine_group(spec["equals"], k)
        return SplittingFilter.localization_at(spec["localization_at"], target)
    return SplittingFilter.no_element_of_order(spec["no_element_of_order"])


def build_sequence(k: int, n: int) -> ShortExactSequence:
    """The short exact sequence computing pi_s^0 of the k-fold sum of CP^n."""
    _check_range(k, n)
    return _sequence(tables.pi_s0_sequence(n), k)


def pi_s0_connected_sum(k: int, n: int) -> Result:
    """pi_s^0(#_k CP^n): the resolved group, or both candidates for n = 8."""
    _check_range(k, n)
    rec = tables.pi_s0_sequence(n)
    seq = _sequence(rec, k)
    filters = tuple(_filter(spec, k) for spec in rec["filters"])
    citations = (seq.provenance, *rec["splitting"])
    return Result(k, n, resolve(seq, filters), citations, sequence=seq, filters=filters)


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
