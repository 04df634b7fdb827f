"""Verification suites behind the `verify` CLI verb.

Each suite re-checks a family of invariants and reports every violation
together with the citation of the fact it contradicts.  Only the snf
suite is randomized; it takes the explicit seed (`--seed`) so runs are
reproducible, and the other suites run fixed case lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import cohomotopy, ktheory, surgery, tables
from .extensions import (
    ORACLE_ORDER_LIMIT,
    AmbiguousResult,
    EmptyAfterFiltering,
    InexactSequence,
    all_abelian_groups_of_order,
    brute_force_middle_terms,
    middle_candidates_between,
    outer_candidates_between,
)
from .fgab import FgAbGroup, IntegerMatrix, smith_normal_form

DEFAULT_SEED = 271828


@dataclass
class Failure:
    prop: str
    citation: str
    detail: str


@dataclass
class SuiteReport:
    name: str
    cases: int = 0
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, prop: str, citation: str, detail: str):
        self.failures.append(Failure(prop, citation, detail))


def snf_suite(seed: int = DEFAULT_SEED, cases: int = 1000, max_dim: int = 8) -> SuiteReport:
    """u*m*v = d exactly, u and v unimodular, diagonal divisibility chain,
    on random matrices with entries in -20..20."""
    rng = random.Random(seed)
    report = SuiteReport("snf")
    citation = "Smith normal form: u*m*v diagonal with d1 | d2 | ..., u, v unimodular"
    for _ in range(cases):
        r = rng.randint(0, max_dim)
        c = rng.randint(0, max_dim)
        m = IntegerMatrix(
            [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)],
            cols=c,
        )
        report.cases += 1
        u, d, v = smith_normal_form(m)
        if (u @ m) @ v != d:
            report.fail("snf-identity", citation, f"u*m*v != d for {m!r}")
            continue
        if abs(u.determinant()) != 1 or abs(v.determinant()) != 1:
            report.fail("snf-unimodular", citation, f"non-unimodular transform for {m!r}")
            continue
        diag = d.diagonal()
        if any(x < 0 for x in diag):
            report.fail("snf-nonnegative", citation, f"negative diagonal for {m!r}")
            continue
        chain = [x for x in diag if x]
        if any(b % a for a, b in zip(chain, chain[1:])) or any(
            x != 0 for x in diag[len(chain) :]
        ):
            report.fail("snf-divisibility", citation, f"broken chain {diag} for {m!r}")
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j and d.entries[i][j]:
                    report.fail("snf-diagonal", citation, f"off-diagonal junk for {m!r}")
                    break
    return report


def oracle_suite(max_order: int = 64) -> SuiteReport:
    """Candidate enumeration agrees with the brute-force subgroup oracle."""
    report = SuiteReport("oracle")
    citation = (
        "middle terms of 0 -> A -> G -> B -> 0: partition enumeration with "
        "tableau checks equals exhaustive subgroup search"
    )
    pairs = []
    for na in range(1, max_order + 1):
        for nb in range(1, max_order // na + 1):
            for a in all_abelian_groups_of_order(na):
                for b in all_abelian_groups_of_order(nb):
                    pairs.append((a, b))
    for a, b in pairs:
        report.cases += 1
        smart = middle_candidates_between(a, b)
        brute = brute_force_middle_terms(a, b)
        if smart != brute:
            report.fail(
                "oracle-equivalence",
                citation,
                f"A={a}, B={b}: candidates {list(map(str, smart))} vs "
                f"oracle {list(map(str, brute))}",
            )
            continue
        if a.direct_sum(b) not in smart:
            report.fail(
                "split-member", citation, f"A={a}, B={b}: split extension missing"
            )
    return report


def tables_suite() -> SuiteReport:
    """Internal consistency of the tabulated data."""
    report = SuiteReport("tables")
    # suspension image sits inside the stable stem
    for n in range(3, 9):
        report.cases += 1
        image = tables.hopf_image_suspension(n)
        if image.is_trivial:
            continue
        stem = tables.stable_stem(2 * n)
        if not outer_candidates_between(stem, image):
            report.fail(
                "image-in-stem",
                f"im((Sigma h)^*) is a subgroup of pi_{2 * n}^s",
                f"n={n}: {image} does not embed in {stem}",
            )
    # ker(h^*) is a subgroup of pi_s^0(CP^n) with one quotient type, the
    # image of h^*, and that image embeds in pi_{2n+1}^s
    for n in range(4, 8):
        report.cases += 1
        single, kernel = tables.pi_s0_single_cp(n), tables.hopf_kernel(n)
        images, stem = outer_candidates_between(single, kernel), tables.stable_stem(2 * n + 1)
        if len(images) != 1 or not outer_candidates_between(stem, images[0]):
            report.fail(
                "hopf-kernel",
                f"ker(h^*: pi_s^0(CP^{n}) -> pi_{2 * n + 1}^s) is a subgroup whose "
                "one quotient type, the image of h^*, embeds in the stem",
                f"n={n}: ({single}) / ({kernel}) has quotient types "
                f"{{{', '.join(map(str, images))}}}, the stem is {stem}",
            )
    # the k = 1 sequence resolves to the single-copy group: the one middle
    # term for n <= 7, one of the candidates for n = 8
    single_citation = "at k = 1 the sequence reproduces pi_s^0(CP^n)"
    for n in range(3, 9):
        report.cases += 1
        try:
            resolved = cohomotopy.pi_s0_connected_sum(1, n)
        except InexactSequence as exc:
            report.fail("stem-quotient", "pi_{2n}^s / im((Sigma h)^*) is one quotient type",
                        f"n={n}: {exc}")
            continue
        except EmptyAfterFiltering as exc:
            report.fail("single-copy-order", single_citation, f"n={n}: {exc}")
            continue
        seq, group = resolved.sequence, resolved.group
        single = tables.pi_s0_single_cp(n)
        candidates = group.candidates if n == 8 and isinstance(group, AmbiguousResult) else (group,)
        if single not in candidates:
            order = seq.sub.torsion_order() * seq.quot.torsion_order()
            detail = (
                f"sequence forces order {order}, table says {single.torsion_order()}"
                if order != single.torsion_order()
                else f"sequence resolves to {group}, table says {single}"
            )
            report.fail("single-copy-order", single_citation, f"n={n}: {detail}")
    # every full record's group round-trips through the CLI's group JSON
    for rec in tables.all_raw_records():
        if "group" not in rec:
            continue
        report.cases += 1
        group = FgAbGroup.from_json(rec["group"])
        if FgAbGroup.from_json(group.to_json()) != group:
            report.fail(
                "round-trip",
                "table groups round-trip through the CLI's group JSON exactly",
                f"{rec['kind']} {rec['params']}",
            )
    return report


def sandwich_suite() -> SuiteReport:
    """Every connected-sum KO group, s = 0..7, k = 2..4, n = 4..11, passes
    its exactness constraints."""
    report = SuiteReport("sandwich")
    for s in range(8):
        for k in (2, 3, 4):
            for n in range(4, 12):
                report.cases += 1
                result = ktheory.verify_sandwich(s, k, n)
                if not result.passed:
                    report.fail(
                        f"sandwich-{result.violated}", result.citation, result.detail
                    )
    return report


def surgery_suite() -> SuiteReport:
    """Normal-invariant and structure-set consistency, k = 2..6, n = 3..7."""
    report = SuiteReport("surgery")
    for k in range(2, 7):
        for n in range(3, 8):
            report.cases += 1
            # f_over_o resolves pi_s^0 first, so a failure there is filed
            # under pi_s^0 and one in structure_set is the im(eta) solve's
            try:
                fo = surgery.f_over_o(k, n)
            except (InexactSequence, EmptyAfterFiltering, surgery.AmbiguousUpstream) as exc:
                report.fail(
                    "pi-s0-resolution",
                    "pi_s^0(#_k CP^n) is the one middle term of its cited sequence "
                    "that the splitting filters keep",
                    f"k={k}, n={n}: {exc}",
                )
                continue
            try:
                sset = surgery.structure_set(k, n)
            except InexactSequence as exc:
                report.fail(
                    "surgery-exactness",
                    "exactness of L_{2n+1} = 0 -> S^t_Diff -> N^t_Diff -> L_{2n}: "
                    "im(eta) = ker(theta), the subgroup of cotype im(theta)",
                    str(exc),
                )
                continue
            pi = sset.normal_invariants
            if not sset.eta_injective:
                report.fail(
                    "eta-injective",
                    "the odd Wall group vanishes, so eta is injective",
                    f"k={k}, n={n}: L_{2 * n + 1} = {sset.odd_wall}",
                )
            if fo.torsion != pi:
                report.fail(
                    "f-o-torsion",
                    "[X, F/O] torsion equals pi_s^0(X)",
                    f"k={k}, n={n}: {fo.torsion} vs {pi}",
                )
            if fo.free_rank != surgery.kernel_f_star_rank(k, n):
                report.fail(
                    "f-o-free-rank",
                    "[X, F/O] free rank equals the free rank of KO^0(X)",
                    f"k={k}, n={n}: {fo.free_rank}",
                )
            fpl = surgery.f_over_pl(k, n)
            if any(d % 2 or d & (d - 1) for d in fpl.group.invariant_factors):
                report.fail(
                    "f-pl-odd-torsion",
                    "[X, F/PL] has no odd torsion",
                    f"k={k}, n={n}: {fpl.group}",
                )
            plo = surgery.pl_over_o(k, n)
            if pi.torsion_order() % plo.torsion_order():
                report.fail(
                    "pl-o-injects",
                    "[X, PL] -> [X, SF] is injective, so orders divide",
                    f"k={k}, n={n}: |{plo}| does not divide |{pi}|",
                )
    return report


SUITES = {
    "snf": snf_suite,
    "oracle": oracle_suite,
    "tables": tables_suite,
    "sandwich": sandwich_suite,
    "surgery": surgery_suite,
}


def run_suites(
    names: list[str],
    seed: int = DEFAULT_SEED,
    max_order: int = 64,
    cases: int = 1000,
) -> list[SuiteReport]:
    """Run the named suites; refuse out-of-range options before any work."""
    if not 1 <= max_order <= ORACLE_ORDER_LIMIT:
        raise ValueError(
            f"max order must be in 1..{ORACLE_ORDER_LIMIT}, got {max_order}"
        )
    if cases < 1:
        raise ValueError(f"case count must be at least 1, got {cases}")
    reports = []
    for name in names:
        if name == "snf":
            reports.append(snf_suite(seed=seed, cases=cases))
        elif name == "oracle":
            reports.append(oracle_suite(max_order=max_order))
        else:
            reports.append(SUITES[name]())
    return reports
