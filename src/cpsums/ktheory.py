"""Complex and real K-groups of k-fold connected sums of CP^n.

The reduced complex groups are free of rank k(n-1)+1 in degree 0 and
vanish in degree -1.  The real groups KO^{-s}, 0 <= s <= 7, come from
the skeletal exact sequence
  sum_{k-1} KO^{-s-1}(CP^{n-1}) -> KO^{-s}(CP^n)
      -> KO^{-s}(#_k CP^n) -> sum_{k-1} KO^{-s}(CP^{n-1}),
which in every degree gives KO^{-s}(CP^n) + (k-1) KO^{-s}(CP^{n-1}).
Groups and bases are derived from Fujii's cited single-copy records
(`tables.ko_single_cp`), not stored a second time: the CP^n classes
move to the distinguished k-th summand with the q^* decoration, and
each of the other k-1 summands takes one copy of the CP^(n-1) basis.

Acceptance criterion 3 encodes the 32 (s, n mod 4) cases independently
and is the cross-check of this derivation; `verify_sandwich` remains
the check of a candidate passed as `group=` against the order and rank
constraints of the sequence above.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import tables
from .fgab import FgAbGroup, factorint
from .tables import GeneratorLabel, Result


@dataclass(frozen=True)
class SandwichReport:
    s: int
    k: int
    n: int
    group: FgAbGroup
    passed: bool
    violated: str | None
    detail: str
    citation: str


def complex_k0(k: int, n: int) -> Result:
    """Reduced K^0 of #_k CP^n: free of rank k(n-1)+1.

    Basis: the degree-one pullback d^*(omega) of the top sphere class and
    the bundle classes eta_i^j, i = 1..k, j = 1..n-1, one set per summand.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    labels = [GeneratorLabel(symbol="omega", decoration="d*")]
    for i in range(1, k + 1):
        for j in range(1, n):
            labels.append(GeneratorLabel(symbol="eta", power=j, copy_index=i))
    return Result(
        k,
        n,
        FgAbGroup.free(k * (n - 1) + 1),
        ("K^0 of the connected sum is free on one class per even cell: rank k(n-1)+1",),
        basis=tuple(labels),
    )


def complex_k_minus1(k: int, n: int) -> Result:
    """Reduced K^-1 of #_k CP^n is trivial (both sphere and skeleton terms vanish)."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    return Result(
        k,
        n,
        FgAbGroup.zero(),
        (
            "K^-1 of the connected sum vanishes: K^-1 of spheres of even "
            "dimension and of CP^(n-1) both vanish",
        ),
    )


# -- KO of the connected sum -------------------------------------------------

_CITATIONS: dict[int, str] = {
    0: "KO^0 of the connected sum: free classes eta^j from each summand plus "
    "an order-2 class per summand of dimension 4m+1 (on the distinguished copy) "
    "or 4m+2 (on each of the other k-1 copies)",
    1: "KO^-1 of the connected sum vanishes: the single-copy groups vanish",
    2: "KO^-2 of the connected sum is free: alpha*eta^j classes, with sigma "
    "halving the top class in dimensions 3 mod 4",
    3: "KO^-3 of the connected sum: Z_2^(k-1) for n = 0 mod 4, Z_2 for "
    "n = 3 mod 4, zero otherwise",
    4: "KO^-4 of the connected sum: beta*eta^j classes with an order-2 class "
    "per summand of dimension 4m+3 (distinguished copy) or 4m (other copies)",
    5: "KO^-5 of the connected sum vanishes: the single-copy groups vanish",
    6: "KO^-6 of the connected sum is free: gamma*eta^j classes, with tau "
    "halving the top class in dimensions 1 and 2 mod 4",
    7: "KO^-7 of the connected sum: Z_2^(k-1) for n = 2 mod 4, Z_2 for "
    "n = 1 mod 4, zero otherwise",
}


def _single_copies(s: int, k: int, n: int):
    """Fujii's KO^{-s}(CP^n), and KO^{-s}(CP^(n-1)) when other copies add to it.

    At k = 1 there are no other copies; at n = 1 they are copies of CP^0, a
    point, whose reduced groups vanish.  Neither case looks up CP^(n-1).
    """
    top = tables.ko_single_cp(s, n)
    return top, (tables.ko_single_cp(s, n - 1) if k > 1 and n > 1 else None)


def _sum_group(top, rest, k: int) -> FgAbGroup:
    """KO^{-s}(CP^n) + (k-1) KO^{-s}(CP^(n-1)): ranks add, invariant factors concatenate."""
    if rest is None:
        return top.group
    rank = top.group.free_rank + (k - 1) * rest.group.free_rank
    orders = top.group.invariant_factors + (k - 1) * rest.group.invariant_factors
    return FgAbGroup(rank, FgAbGroup.from_cyclic_orders(*orders).invariant_factors)


def _on_copy(label: GeneratorLabel, copy: int, decoration: str = "") -> GeneratorLabel:
    """A single-copy label moved to summand `copy`, its relation subscripted to match."""
    relation = label.relation
    if relation:
        relation = (
            relation.replace("eta^", f"eta_{copy}^")
            .replace("sigma", f"sigma_{copy}")
            .replace("tau", f"tau_{copy}")
        )
    return GeneratorLabel(label.symbol, label.power, copy, decoration, relation)


def _sum_basis(s: int, top, rest, k: int) -> tuple[GeneratorLabel, ...]:
    """The CP^n classes on copy k, decorated q*, then the CP^(n-1) classes on
    copies 1..k-1; free classes first, then those whose relation ends in "= 0"."""
    labels = [_on_copy(g, k, "q*") for g in top.generators]
    if s == 0:
        # the published KO^0 basis names the order-2 class of the distinguished
        # copy by its decorated label: 2*q*(eta_k^(2m+1)) = 0
        labels = [
            GeneratorLabel(g.symbol, g.power, k, "q*", f"2*{g} = 0") if g.relation else g
            for g in labels
        ]
    for i in range(1, k):
        labels.extend(_on_copy(g, i) for g in rest.generators)
    free = [g for g in labels if not (g.relation or "").endswith("= 0")]
    torsion = [g for g in labels if (g.relation or "").endswith("= 0")]
    return tuple(free + torsion)


def ko_group(s: int, k: int, n: int) -> Result:
    """KO^{-s}(#_k CP^n) with its printed basis, for 0 <= s <= 7, k, n >= 2."""
    if not 0 <= s <= 7:
        raise ValueError(f"KO degree s must lie in 0..7, got {s}")
    if k < 2 or n < 2:
        raise ValueError(f"the connected-sum table needs k, n >= 2, got k={k}, n={n}")
    top, rest = _single_copies(s, k, n)
    return Result(
        k, n, _sum_group(top, rest, k), (_CITATIONS[s],), basis=_sum_basis(s, top, rest, k)
    )


def ko_group_formula_any_k(s: int, k: int, n: int) -> FgAbGroup:
    """The connected-sum group without the k >= 2 guard (k = 1 degenerations)."""
    if not 0 <= s <= 7:
        raise ValueError(f"KO degree s must lie in 0..7, got {s}")
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    return _sum_group(*_single_copies(s, k, n), k)


def verify_sandwich(s: int, k: int, n: int, group: FgAbGroup | None = None) -> SandwichReport:
    """Exactness constraints on KO^{-s}(#_k CP^n) from the skeletal sequence.

    The group must surject onto a subgroup of sum_{k-1} KO^{-s}(CP^{n-1})
    with kernel a quotient of KO^{-s}(CP^n); checked as rank inequalities,
    p-socle bounds, and order divisibility when everything is finite.
    Pass `group` to test a candidate other than the table value.
    """
    if not 0 <= s <= 7:
        raise ValueError(f"KO degree s must lie in 0..7, got {s}")
    if k < 2 or n < 2:
        raise ValueError(f"needs k, n >= 2, got k={k}, n={n}")
    g = group if group is not None else ko_group(s, k, n).group
    single_n = tables.ko_single_cp(s, n).group
    single_prev = tables.ko_single_cp(s, n - 1).group
    citation = (
        f"skeletal sequence: sum_{{k-1}} KO^-{s}(CP^{n - 1}) -> KO^-{s}(CP^{n}) "
        f"-> KO^-{s}(#_k CP^{n}) -> sum_{{k-1}} KO^-{s}(CP^{n - 1})"
    )

    def report(violated: str | None, detail: str) -> SandwichReport:
        return SandwichReport(
            s=s, k=k, n=n, group=g, passed=violated is None,
            violated=violated, detail=detail, citation=citation,
        )

    rank_bound = single_n.free_rank + (k - 1) * single_prev.free_rank
    if g.free_rank > rank_bound:
        return report(
            "rank-bound",
            f"free rank {g.free_rank} exceeds rank(KO^-{s}(CP^{n})) + "
            f"(k-1)*rank(KO^-{s}(CP^{n - 1})) = {rank_bound}",
        )
    primes = set()
    for grp in (g, single_n, single_prev):
        for d in grp.invariant_factors:
            primes.update(factorint(d))
    for p in sorted(primes):
        bound = (
            single_n.free_rank
            + single_n.p_socle_rank(p)
            + (k - 1) * single_prev.p_socle_rank(p)
        )
        if g.p_socle_rank(p) > bound:
            return report(
                "p-socle-bound",
                f"{p}-socle rank {g.p_socle_rank(p)} exceeds the bound {bound} "
                "allowed by a quotient-of-single-copy kernel and a "
                "subgroup-of-skeletal-sum image",
            )
    if single_n.is_finite and single_prev.is_finite:
        if not g.is_finite:
            return report(
                "torsion-order-divides",
                "the group is infinite but both sequence neighbors are finite",
            )
        total = single_n.torsion_order() * single_prev.torsion_order() ** (k - 1)
        if total % g.torsion_order():
            return report(
                "torsion-order-divides",
                f"|group| = {g.torsion_order()} does not divide "
                f"|KO^-{s}(CP^{n})| * |sum KO^-{s}(CP^{n - 1})| = {total}",
            )
    return report(None, "all constraints satisfied")
