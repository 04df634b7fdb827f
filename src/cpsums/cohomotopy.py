"""Stable cohomotopy pi_s^0 of k-fold connected sums of CP^n, 3 <= n <= 8.

Every n has one cited ``pi_s0_sequence`` record, which `tables` checks
and types when it loads the data file (`tables.pi_s0_sequence`); it is
read here by one code path.  Its sub term pi_{2n}^s / im((Sigma h)^*) is
the one quotient type that `outer_candidates_between` finds (n = 6 lists
no stem term).  Its quotient is an affine-in-k number of copies of
tabulated groups: k copies of pi_s^0(CP^3) for n = 4, k-1 copies of
pi_s^0(CP^(n-1)) plus the Hopf kernel for n >= 5, nothing for n = 3.
The middle term is then pinned down by the record's splitting filters:
no element of order 4 for n = 4, 5, 7.  At n = 7 that filter alone
suffices: the sub term pi_14^s = Z_2^2 has no 3-torsion, so every middle
term has the 3-part Z_3^(k-1) of the quotient.  The n = 8 record has no
filter and its sequence admits two middle terms, so the result is
reported as ambiguous rather than guessed.
"""

from __future__ import annotations

from functools import lru_cache

from . import extensions, tables
from .extensions import InexactSequence, ShortExactSequence, resolve
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


def pi_s0_connected_sum(k: int, n: int) -> Result:
    """pi_s^0(#_k CP^n): the resolved group, or both candidates for n = 8."""
    _check_range(k, n)
    degrees, quot, filters, citation, splitting = tables.pi_s0_sequence(n)
    sub = FgAbGroup.zero()
    if degrees:
        stem, image = degrees
        sub = _quotient_by_image(tables.stable_stem(stem), tables.hopf_image_suspension(image))
    seq = ShortExactSequence(sub, tables.affine_group(quot, k), citation)
    return Result(k, n, resolve(seq, filters), (citation, *splitting), sequence=seq,
                  filters=filters)


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
