"""Normal invariants and tangential structure sets of #_k CP^n.

The homotopy-smoothing data assembles as follows: the smooth normal
invariant group [X, F/O] splits as the stable cohomotopy torsion plus a
free part of rank equal to the free rank of KO^0(X); the PL normal
invariant group [X, F/PL] has a closed form with only 2-torsion; the
concordance-smoothing group [X, PL/O] is tabulated; and the tangential
surgery sequence L_{2n+1} -> S^t_Diff -> N^t_Diff -> L_{2n} pins down
the structure sets and the exotic-manifold counts.

`structure_set` returns that sequence as one `StructureSetResult`, which
both `compute --invariant structure-set` and `report --sequence surgery`
print.  Where the obstruction map theta is a homomorphism (n = 3, 4, 6, 7),
im(eta) = ker(theta) is derived: it is the one subgroup type of N^t_Diff
with cotype im(theta) that `outer_candidates_between` finds.  At n = 6, 7
the PL/O row must be isomorphic to it.  At n = 5, where theta is only
known to be nonzero, the image is stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tables
from .cohomotopy import pi_s0_connected_sum
from .extensions import AmbiguousResult, outer_candidates_between
from .fgab import FgAbGroup
from .ktheory import ko_group_formula_any_k
from .tables import Result


class InexactSequence(ValueError):
    """The data contradict the surgery sequence (im(eta), PL/O, the count)."""


class AmbiguousUpstream(ValueError):
    """The cohomotopy input is ambiguous (n = 8), so the target group is too."""

    def __init__(self, message: str, candidates: tuple[FgAbGroup, ...] = ()):
        super().__init__(message)
        self.candidates = candidates


@dataclass(frozen=True)
class StructureSetResult:
    """L_{2n+1} -> S^t_Diff -> N^t_Diff -> L_{2n} for #_k CP^n with its
    groups filled in, and the exotic count it yields."""

    k: int
    n: int
    normal_invariants: FgAbGroup  # N^t_Diff = [X, SF] = pi_s^0(X)
    pl_group: FgAbGroup  # [X, PL/O], the carrier of S^t_PL
    image_of_eta: FgAbGroup  # carrier of S^t_Diff via the injective eta
    exotic_count: int | None  # tangentially equivalent, non-homeomorphic manifolds
    derivation: str
    normal_citations: tuple[str, ...]  # of pi_s^0(X)
    pl_citation: str
    eta_citation: str
    note: str = ""

    @property
    def odd_wall(self) -> FgAbGroup:  # L_{2n+1}
        return tables.wall_group(2 * self.n + 1)

    @property
    def even_wall(self) -> FgAbGroup:  # L_{2n}
        return tables.wall_group(2 * self.n)

    @property
    def eta_injective(self) -> bool:
        return self.odd_wall.is_trivial

    @property
    def obstruction_status(self) -> str:  # "zero" | "nonzero" | "nonzero-homomorphism"
        return _OBSTRUCTION_STATUS[self.n][0]

    @property
    def obstruction_image_order(self) -> int:
        return 1 if self.obstruction_status == "zero" else 2

    @property
    def citations(self) -> tuple[str, ...]:
        """Sources of the structure set: pi_s^0, the PL/O row, eta."""
        return self.normal_citations + (self.pl_citation, self.eta_citation)

    @property
    def sequence_citations(self) -> tuple[str, ...]:
        """Sources of the sequence: pi_s^0, the obstruction map, eta injective."""
        return self.normal_citations + (
            _OBSTRUCTION_STATUS[self.n][1],
            "the odd Wall group vanishes, so eta is injective",
        )

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
    return tables.pl_over_o_entry(k, n).group


def structure_set(k: int, n: int) -> StructureSetResult:
    """The tangential surgery sequence, the structure set and the exotic count.

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
    note = ""
    if n == 5:
        image = FgAbGroup.from_primary({2: [1] * (2 * k - 1)})
    else:
        # eta is injective and im(eta) = ker(theta), the subgroup of N^t_Diff
        # whose cotype is im(theta): 0, or L_{2n} = Z_2 where theta is nonzero
        theta = FgAbGroup.cyclic(1 if _OBSTRUCTION_STATUS[n][0] == "zero" else 2)
        images = outer_candidates_between(normal, theta)
        if len(images) != 1 or n in (6, 7) and images != [pl]:
            raise InexactSequence(
                f"im(eta) = ker(theta) in N^t_Diff = {normal} must be one type, at n = 6, 7"
                f" that of [#_k CP^n, PL/O] = {pl}; it is {{{', '.join(map(str, images))}}}"
                f" for k={k}, n={n}"
            )
        image = images[0]
    if n in (3, 4, 6):
        if n == 4:
            exotic = 2**k
            derivation = "half of the smooth structure set: |S^t_Diff| / 2 = 2^k"
            if exotic != normal.torsion_order() // 2:
                raise InexactSequence(
                    f"exotic count 2^{k} is not half of |S^t_Diff| = "
                    f"{normal.torsion_order()} for k={k}, n=4"
                )
        else:
            exotic = 0
            derivation = (
                "eta is an isomorphism and every tangential homotopy equivalence "
                "is realized by a homeomorphism: count 0"
            )
        eta_citation = "eta: S^t_Diff -> N^t_Diff is an isomorphism for n = 3, 4, 6"
    elif n == 5:
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
        eta_citation = (
            "im(eta: S^t_Diff(#_k CP^5) -> N^t_Diff) = Z_2^(2k-1); "
            "the obstruction map to L_10 is nonzero"
        )
    else:  # n == 7
        exotic = 0
        derivation = (
            "im(eta) is isomorphic to the PL tangential smoothing set, "
            "so every smooth class is PL-realized: count 0"
        )
        eta_citation = (
            "im(eta: S^t_Diff(#_k CP^7) -> N^t_Diff) is isomorphic to "
            "S^t_PL(#_k CP^7)"
        )
    return StructureSetResult(
        k=k,
        n=n,
        normal_invariants=normal,
        pl_group=pl,
        image_of_eta=image,
        exotic_count=exotic,
        derivation=derivation,
        normal_citations=cites,
        pl_citation=pl_entry.citation,
        eta_citation=eta_citation,
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
