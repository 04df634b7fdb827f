"""Normal invariants and tangential structure sets of #_k CP^n.

The homotopy-smoothing data assembles as follows: the smooth normal
invariant group [X, F/O] splits as the stable cohomotopy torsion plus a
free part of rank equal to the free rank of KO^0(X); the PL normal
invariant group [X, F/PL] has a closed form with only 2-torsion; the
concordance-smoothing group [X, PL/O] is tabulated; and the tangential
surgery sequence L_{2n+1} -> S^t_Diff -> N^t_Diff -> L_{2n} pins down
the structure sets and the exotic-manifold counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tables
from .cohomotopy import pi_s0_connected_sum
from .extensions import AmbiguousResult
from .fgab import FgAbGroup
from .ktheory import ko_group_formula_any_k
from .tables import GeneratorLabel, Result


class AmbiguousUpstream(ValueError):
    """The cohomotopy input is ambiguous (n = 8), so the target group is too."""

    def __init__(self, message: str, candidates: tuple[FgAbGroup, ...] = ()):
        super().__init__(message)
        self.candidates = candidates


@dataclass(frozen=True)
class StructureSetResult:
    k: int
    n: int
    smooth: FgAbGroup  # carrier of S^t_Diff via the injective eta
    pl_group: FgAbGroup  # [X, PL/O], the carrier of S^t_PL
    image_of_eta: FgAbGroup
    exotic_count: int | None  # tangentially equivalent, non-homeomorphic manifolds
    derivation: str
    citations: tuple[str, ...]
    note: str = ""


@dataclass(frozen=True)
class SurgerySequenceReport:
    k: int
    n: int
    odd_wall: FgAbGroup  # L_{2n+1}
    even_wall: FgAbGroup  # L_{2n}
    normal_invariants: FgAbGroup  # N^t_Diff = [X, SF]
    eta_injective: bool
    obstruction_status: str  # "zero" | "nonzero" | "nonzero-homomorphism"
    obstruction_image_order: int
    image_of_eta: FgAbGroup
    citations: tuple[str, ...]

    def render(self) -> str:
        lines = [
            f"tangential surgery sequence for #_{self.k} CP^{self.n} "
            f"(dimension {2 * self.n}):",
            f"  L_{2 * self.n + 1} = {self.odd_wall}  ->  S^t_Diff  ->  "
            f"N^t_Diff = {self.normal_invariants}  ->  L_{2 * self.n} = {self.even_wall}",
            f"  eta injective: {'yes' if self.eta_injective else 'no'} "
            "(the odd Wall group vanishes)",
            f"  surgery obstruction map: {self.obstruction_status} "
            f"(image order {self.obstruction_image_order})",
            f"  image of eta: {self.image_of_eta}",
        ]
        return "\n".join(lines)


def _resolved_cohomotopy(k: int, n: int) -> tuple[FgAbGroup, tuple[str, ...]]:
    result = pi_s0_connected_sum(k, n)
    if isinstance(result.group, AmbiguousResult):
        raise AmbiguousUpstream(
            f"pi_s^0(#_{k} CP^{n}) is ambiguous; no unique torsion part",
            candidates=result.group.candidates,
        )
    return result.group, result.citations


def f_over_o(k: int, n: int) -> Result:
    """[#_k CP^n, F/O]: cohomotopy torsion plus a free part.

    Free rank: k*floor(n/2) for n odd, k*floor((n-1)/2) + 1 for n even;
    the free part is the kernel of the fibration-induced map out of
    KO^0, i.e. the free part of KO^0(#_k CP^n).
    """
    if k < 1 or not 3 <= n <= 8:
        raise ValueError(f"needs k >= 1 and 3 <= n <= 8, got k={k}, n={n}")
    torsion, cites = _resolved_cohomotopy(k, n)
    rank = k * (n // 2) if n % 2 else k * ((n - 1) // 2) + 1
    return Result(
        k,
        n,
        torsion.direct_sum(FgAbGroup.free(rank)),
        cites
        + (
            "[X, F/O] = pi_s^0(X) + Z^(k*floor(n/2)) for n odd, "
            "pi_s^0(X) + Z^(k*floor((n-1)/2)+1) for n even",
        ),
    )


def kernel_f_star_rank(k: int, n: int) -> int:
    """Rank of ker(KO^0(#_k CP^n) -> [#_k CP^n, BSF]).

    The kernel is torsion free and is the whole free part of KO^0.
    """
    if k < 2 or n < 2:
        raise ValueError(f"needs k, n >= 2, got k={k}, n={n}")
    return ko_group_formula_any_k(0, k, n).free_rank


def f_over_pl(k: int, n: int) -> Result:
    """[#_k CP^n, F/PL], closed form; only 2-torsion ever occurs.

    Z^(k*floor((n-1)/2)+1) + Z_2^(k*floor((n-1)/2)) for n even,
    Z^(k*floor(n/2)) + Z_2^(k*(floor(n/2)-1)+1) for n odd.
    """
    if k < 1 or n < 2:
        # at n = 1 the space is the 2-sphere and the cell-product closed
        # form is out of its domain (its torsion exponent goes negative)
        raise ValueError(f"needs k >= 1 and n >= 2, got k={k}, n={n}")
    if n % 2 == 0:
        rank = k * ((n - 1) // 2) + 1
        two_torsion = k * ((n - 1) // 2)
    else:
        rank = k * (n // 2)
        two_torsion = k * (n // 2 - 1) + 1
    return Result(
        k,
        n,
        FgAbGroup(rank, (2,) * two_torsion),
        (
            "[X, F/PL] = prod of L_{2j} over the even cells of X: "
            "Z per 4j-cell, Z_2 per (4j+2)-cell",
        ),
    )


def pl_over_o(k: int, n: int) -> FgAbGroup:
    """[#_k CP^n, PL/O] for tabulated n in 3..7."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return tables.pl_over_o_entry(k, n).group


def xi_coefficients(i: int) -> dict[int, int]:
    """Coefficients of xi_i on powers of the realified bundle class.

    xi_1 = 24 etabar + 98 etabar^2 + 111 etabar^3,
    xi_2 = 240 etabar^2 + 380 etabar^3, xi_3 = 504 etabar^3.
    """
    table = {1: {1: 24, 2: 98, 3: 111}, 2: {2: 240, 3: 380}, 3: {3: 504}}
    if i not in table:
        raise ValueError(f"xi index must be 1..3, got {i}")
    return dict(table[i])


def _xi_relation(i: int) -> str:
    terms = [
        f"{c}*etabar^{j}" if j > 1 else f"{c}*etabar"
        for j, c in sorted(xi_coefficients(i).items())
    ]
    return f"xi_{i} = " + " + ".join(terms)


def image_c_star_generators(k: int, n: int) -> tuple[GeneratorLabel, ...]:
    """Generators of im([X, F/O] -> KO^0(X)) for n <= 7: the xi_i, plus
    their pullbacks q^*(xi_i) along the collapse to a single copy when
    k >= 2."""
    if n > 7:
        raise ValueError(f"the xi generators are only available for n <= 7, got {n}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    labels = [
        GeneratorLabel(symbol="xi", power=i, relation=_xi_relation(i))
        for i in (1, 2, 3)
    ]
    if k >= 2:
        labels.extend(
            GeneratorLabel(
                symbol="xi", power=i, decoration="q*", relation=_xi_relation(i)
            )
            for i in (1, 2, 3)
        )
    return tuple(labels)


def structure_set(k: int, n: int) -> StructureSetResult:
    """Tangential structure-set data and the exotic-manifold count.

    eta: S^t_Diff -> N^t_Diff is injective (odd Wall group vanishes), so
    the smooth set is carried by its image inside pi_s^0.  Exotic counts:
    0 for n = 3, 6, 7; 2^k for n = 4 (half the smooth set); 2^(k-2) for
    n = 5 and k >= 2 (out of domain at k = 1).
    """
    if k < 1 or not 3 <= n <= 7:
        raise ValueError(f"needs k >= 1 and 3 <= n <= 7, got k={k}, n={n}")
    normal, cites = _resolved_cohomotopy(k, n)
    pl_entry = tables.pl_over_o_entry(k, n)
    pl = pl_entry.group
    citations = list(cites) + [pl_entry.citation]
    note = ""
    if n in (3, 4, 6):
        smooth = normal
        image = normal
        if n == 4:
            exotic = 2**k
            derivation = "half of the smooth structure set: |S^t_Diff| / 2 = 2^k"
            if exotic != normal.torsion_order() // 2:
                raise ValueError(
                    f"exotic count 2^{k} is not half of |S^t_Diff| = "
                    f"{normal.torsion_order()} for k={k}, n=4"
                )
        else:
            exotic = 0
            derivation = (
                "eta is an isomorphism and every tangential homotopy equivalence "
                "is realized by a homeomorphism: count 0"
            )
        citations.append(
            "eta: S^t_Diff -> N^t_Diff is an isomorphism for n = 3, 4, 6"
        )
    elif n == 5:
        image = FgAbGroup.from_primary({2: [1] * (2 * k - 1)})
        smooth = image
        if k >= 2:
            exotic = 2 ** (k - 2)
            derivation = "stored count 2^(k-2); the passage from structure-set "
            derivation += "elements to homeomorphism classes is not re-derived here"
        else:
            exotic = None
            note = (
                "the 2^(k-2) count applies for k >= 2 only; "
                "no count is asserted at k = 1"
            )
            derivation = "out of domain at k = 1"
        citations.append(
            "im(eta: S^t_Diff(#_k CP^5) -> N^t_Diff) = Z_2^(2k-1); "
            "the obstruction map to L_10 is nonzero"
        )
    else:  # n == 7
        image = pl
        smooth = image
        exotic = 0
        derivation = (
            "im(eta) is isomorphic to the PL tangential smoothing set, "
            "so every smooth class is PL-realized: count 0"
        )
        citations.append(
            "im(eta: S^t_Diff(#_k CP^7) -> N^t_Diff) is isomorphic to "
            "S^t_PL(#_k CP^7)"
        )
    if n == 6 and image.torsion_order() != pl.torsion_order():
        raise ValueError(
            f"|im(eta)| = {image.torsion_order()} differs from "
            f"|[#_k CP^n, PL/O]| = {pl.torsion_order()} for k={k}, n={n}"
        )
    # eta embeds the smooth set in the normal invariants, so by Lagrange its
    # image order divides |pi_s^0|; the shipped data give index 2 at n = 7
    if n == 7 and normal.torsion_order() % image.torsion_order():
        raise ValueError(
            f"|im(eta)| = {image.torsion_order()} does not divide "
            f"|pi_s^0(#_k CP^n)| = {normal.torsion_order()} for k={k}, n={n}"
        )
    return StructureSetResult(
        k=k,
        n=n,
        smooth=smooth,
        pl_group=pl,
        image_of_eta=image,
        exotic_count=exotic,
        derivation=derivation,
        citations=tuple(citations),
        note=note,
    )


_OBSTRUCTION_STATUS = {
    3: ("zero", "the obstruction map out of k copies of pi_s^0(CP^3) vanishes"),
    4: ("zero", "the obstruction map out of k copies of pi_s^0(CP^4) vanishes"),
    5: ("nonzero", "the PL comparison over S^10 shows the obstruction is nonzero"),
    6: ("zero", "eta is an isomorphism, so every normal invariant has zero obstruction"),
    7: (
        "nonzero-homomorphism",
        "the single-copy obstruction map to L_14 is a nonzero homomorphism "
        "and the wedge-quotient map is surjective",
    ),
}


def surgery_sequence_report(k: int, n: int) -> SurgerySequenceReport:
    """The four-term tangential surgery sequence with groups filled in."""
    if k < 1 or not 3 <= n <= 7:
        raise ValueError(f"needs k >= 1 and 3 <= n <= 7, got k={k}, n={n}")
    normal, cites = _resolved_cohomotopy(k, n)
    odd = tables.wall_group(2 * n + 1)
    even = tables.wall_group(2 * n)
    status, why = _OBSTRUCTION_STATUS[n]
    image_order = 1 if status == "zero" else 2
    sset = structure_set(k, n)
    return SurgerySequenceReport(
        k=k,
        n=n,
        odd_wall=odd,
        even_wall=even,
        normal_invariants=normal,
        eta_injective=odd.is_trivial,
        obstruction_status=status,
        obstruction_image_order=image_order,
        image_of_eta=sset.image_of_eta,
        citations=cites + (why, "the odd Wall group vanishes, so eta is injective"),
    )
