"""Command-line front end.

Verbs: `compute` (any invariant), `classify-extension`, `report`,
`verify` (the consistency suites), `tables` (dump the data file).
Exit codes: 0 success, 1 verification failure, 2 usage error, bad table
file or over-large extension, 3 ambiguous result under --require-unique.

The verbs raise a refusal (ValueError, LookupError or OracleBudgetError)
where they find it; `main` alone turns it into one ``error:`` line on
stderr and exit 2.  Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cohomotopy, ktheory, surgery, tables, verify
from .extensions import (
    AmbiguousResult,
    OracleBudgetError,
    ShortExactSequence,
    SplittingFilter,
    resolve,
)
from .fgab import FgAbGroup
from .surgery import AmbiguousUpstream
from .tables import Result

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_AMBIGUOUS = 3

# work and output grow linearly in k*n; at this size every verb finishes in
# seconds, while k = 10**9 could not finish at all
MAX_K_TIMES_N = 10**6

# classify-extension factors each invariant factor and tests each --localized
# prime by trial division, which past this size could run for hours
MAX_FACTOR = 10**12


def _emit(text: str):
    sys.stdout.write(text + "\n")


def _dumps(payload: dict) -> str:
    return json.dumps(payload, ensure_ascii=False, sort_keys=True)


def _group_payload(group: FgAbGroup | AmbiguousResult) -> dict:
    """Group content at the payload's top level, per the documented schema."""
    if isinstance(group, AmbiguousResult):
        return {"ambiguous": [g.to_json() for g in group]}
    return group.to_json()


def _parse_group(text: str) -> FgAbGroup:
    try:
        group = FgAbGroup.from_json(json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad group JSON {text!r}: {exc}") from exc
    if group.exponent() > MAX_FACTOR:
        raise ValueError(f"invariant factor {group.exponent()} exceeds the limit {MAX_FACTOR}")
    return group


def _check_size(k: int, n: int):
    """Refuse, before computing anything, a k*n above MAX_K_TIMES_N."""
    if k * n > MAX_K_TIMES_N:
        raise ValueError(f"k*n = {k * n} exceeds the limit {MAX_K_TIMES_N}")


def _ko(args):
    if args.s is None:
        raise ValueError("--invariant ko requires --s")
    s = args.s % 8  # Bott periodicity: reduce at the CLI only
    result = ktheory.ko_group(s, args.k, args.n)
    return result, {
        "s": s,
        "basis": [str(b) for b in result.basis],
        "relations": [b.relation for b in result.basis if b.relation],
    }


def _k0(args):
    result = ktheory.complex_k0(args.k, args.n)
    return result, {"basis": [str(b) for b in result.basis]}


def _f_o(args):
    result = surgery.f_over_o(args.k, args.n)
    return result, {
        "decomposition": {
            "torsion": result.torsion.to_json(),
            "torsion_source": "stable cohomotopy pi_s^0 of the connected sum",
            "free_rank": result.free_rank,
            "free_source": "free part of KO^0 (the kernel of the map to spherical fibrations)",
        }
    }


def _pl_o(args):
    entry = tables.pl_over_o_entry(args.k, args.n)
    return Result(args.k, args.n, entry.group, (entry.citation,)), {"external": entry.external}


def _structure_set(args):
    res = surgery.structure_set(args.k, args.n)
    extras = {
        "pl_group": res.pl_group.to_json(),
        "image_of_eta": res.image_of_eta.to_json(),
        "exotic_count": res.exotic_count,
        "derivation": res.derivation,
    }
    if res.note:
        extras["note"] = res.note
    return Result(res.k, res.n, res.image_of_eta, res.citations), extras


# invariant name -> args -> (Result, payload keys of that invariant only);
# the names are the --invariant choices
COMPUTE = {
    "pi-s0": lambda args: (cohomotopy.pi_s0_connected_sum(args.k, args.n), {}),
    "ko": _ko,
    "k0": _k0,
    "k-1": lambda args: (ktheory.complex_k_minus1(args.k, args.n), {}),
    "f-o": _f_o,
    "f-pl": lambda args: (surgery.f_over_pl(args.k, args.n), {}),
    "pl-o": _pl_o,
    "structure-set": _structure_set,
}


def _cmd_compute(args) -> int:
    _check_size(args.k, args.n)
    payload: dict = {"invariant": args.invariant, "k": args.k, "n": args.n}
    try:
        result, extras = COMPUTE[args.invariant](args)
    except AmbiguousUpstream as exc:
        payload["ambiguous_torsion"] = [g.to_json() for g in exc.candidates]
        payload["citations"] = [str(exc)]
    else:
        payload.update(_group_payload(result.group), citations=list(result.citations), **extras)
    try:
        # rendered whole before any write: an exotic count such as 2^20000
        # is past Python's int-to-str digit limit, so formatting can fail
        text = _dumps(payload) if args.json else _compute_text(payload)
    except ValueError as exc:
        raise ValueError(f"cannot print the result: {exc}") from exc
    _emit(text)
    if args.require_unique and ("ambiguous" in payload or "ambiguous_torsion" in payload):
        return EXIT_AMBIGUOUS
    return EXIT_OK


def _format_group_json(record: dict) -> str:
    return str(FgAbGroup.from_json(record))


def _compute_text(payload: dict) -> str:
    head = f"{payload['invariant']}(k={payload['k']}, n={payload['n']}"
    if "s" in payload:
        head += f", s={payload['s']}"
    head += ")"
    if "ambiguous" in payload:
        lines = [f"{head}: ambiguous between"]
        lines += [f"  {_format_group_json(r)}" for r in payload["ambiguous"]]
    elif "ambiguous_torsion" in payload:
        lines = [f"{head}: torsion part ambiguous between"]
        lines += [f"  {_format_group_json(r)}" for r in payload["ambiguous_torsion"]]
    else:
        group = {"rank": payload["rank"], "torsion": payload["torsion"]}
        lines = [f"{head} = {_format_group_json(group)}"]
    if payload.get("basis"):
        lines.append("  basis: " + ", ".join(payload["basis"]))
    if payload.get("relations"):
        lines.append("  relations: " + "; ".join(payload["relations"]))
    if "exotic_count" in payload:
        lines.append(f"  exotic count: {payload['exotic_count']}")
        lines.append(f"  derivation: {payload['derivation']}")
    if "decomposition" in payload:
        dec = payload["decomposition"]
        lines.append(
            f"  torsion {_format_group_json(dec['torsion'])} from {dec['torsion_source']}"
        )
        lines.append(f"  free rank {dec['free_rank']} from {dec['free_source']}")
    lines += [f"  [{cite}]" for cite in payload.get("citations", [])]
    return "\n".join(lines)


def _cmd_classify(args) -> int:
    sub = _parse_group(args.sub)
    quot = _parse_group(args.quot)
    filters = [SplittingFilter.no_element_of_order(order) for order in args.no_order or []]
    for prime, group_text in args.localized or []:
        p = int(prime)
        if p > MAX_FACTOR:
            raise ValueError(f"prime {p} exceeds the limit {MAX_FACTOR}")
        filters.append(SplittingFilter.localization_at(p, _parse_group(group_text)))
    if args.torsion is not None:
        filters.append(SplittingFilter.torsion_equals(_parse_group(args.torsion)))
    if args.free_rank is not None:
        filters.append(SplittingFilter.free_rank_equals(args.free_rank))
    outcome = resolve(ShortExactSequence(sub=sub, quot=quot), filters)
    payload = {
        "sub": sub.to_json(),
        "quot": quot.to_json(),
        "filters": [f.description for f in filters],
    }
    payload.update(_group_payload(outcome))
    if args.json:
        _emit(_dumps(payload))
    elif isinstance(outcome, AmbiguousResult):
        _emit(f"0 -> {sub} -> G -> {quot} -> 0: ambiguous between")
        for g in outcome:
            _emit(f"  {g}")
    else:
        _emit(f"0 -> {sub} -> G -> {quot} -> 0: G = {outcome}")
    if isinstance(outcome, AmbiguousResult) and args.require_unique:
        return EXIT_AMBIGUOUS
    return EXIT_OK


def _cmd_report(args) -> int:
    _check_size(args.k, args.n)
    rep = surgery.structure_set(args.k, args.n)
    if args.json:
        payload = {
            "k": rep.k,
            "n": rep.n,
            "odd_wall": rep.odd_wall.to_json(),
            "even_wall": rep.even_wall.to_json(),
            "normal_invariants": rep.normal_invariants.to_json(),
            "eta_injective": rep.eta_injective,
            "obstruction_status": rep.obstruction_status,
            "obstruction_image_order": rep.obstruction_image_order,
            "image_of_eta": rep.image_of_eta.to_json(),
            "citations": list(rep.sequence_citations),
        }
        _emit(_dumps(payload))
    else:
        _emit(rep.render())
        for cite in rep.sequence_citations:
            _emit(f"  [{cite}]")
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = verify.run_suites(names, seed=args.seed, max_order=args.max_order, cases=args.cases)
    failed = False
    for rep in reports:
        status = "ok" if rep.ok else "FAILED"
        _emit(f"suite {rep.name}: {rep.cases} cases, {len(rep.failures)} failures [{status}]")
        for failure in rep.failures:
            failed = True
            _emit(f"  violated: {failure.prop}")
            _emit(f"  citation: {failure.citation}")
            _emit(f"  detail:   {failure.detail}")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _cmd_tables(args) -> int:
    records = tables.all_raw_records()
    if args.kind:
        records = [r for r in records if r["kind"] == args.kind]
        if not records:
            raise LookupError(f"no table records of kind {args.kind!r}")
    if args.json:
        for rec in records:
            _emit(json.dumps(rec, ensure_ascii=False, sort_keys=True))
    else:
        for rec in records:
            params = ", ".join(f"{k}={v}" for k, v in sorted(rec["params"].items()))
            if "group" in rec:
                value = str(FgAbGroup.from_json(rec["group"]))
            else:
                value = "(parametric)"
            flag = " [external]" if rec.get("external") else ""
            _emit(f"{rec['kind']}({params}) = {value}{flag}")
            _emit(f"  [{rec['citation']}]")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpsums",
        description="Exact invariants of k-fold connected sums of complex projective spaces.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    compute = sub.add_parser("compute", help="compute a tabulated or derived invariant")
    compute.add_argument("--invariant", required=True, choices=tuple(COMPUTE))
    compute.add_argument("--k", type=int, required=True)
    compute.add_argument("--n", type=int, required=True)
    compute.add_argument("--s", type=int, default=None, help="KO degree (Bott-reduced mod 8)")
    compute.add_argument("--json", action="store_true")
    compute.add_argument(
        "--require-unique",
        action="store_true",
        help="exit 3 when the result is an ambiguous candidate list",
    )
    compute.set_defaults(func=_cmd_compute)

    classify = sub.add_parser(
        "classify-extension", help="middle terms of 0 -> A -> G -> B -> 0"
    )
    classify.add_argument("--sub", required=True, help='group JSON, e.g. {"rank":0,"torsion":[2]}')
    classify.add_argument("--quot", required=True, help="group JSON")
    classify.add_argument("--no-order", type=int, action="append", metavar="N",
                          help="filter: no element of order N")
    classify.add_argument("--localized", nargs=2, action="append",
                          metavar=("P", "GROUP"),
                          help="filter: localization at prime P equals GROUP")
    classify.add_argument("--torsion", help="filter: torsion subgroup equals GROUP")
    classify.add_argument("--free-rank", type=int, help="filter: free rank equals R")
    classify.add_argument("--json", action="store_true")
    classify.add_argument("--require-unique", action="store_true")
    classify.set_defaults(func=_cmd_classify)

    report = sub.add_parser("report", help="render an exact-sequence report")
    report.add_argument("--sequence", required=True, choices=("surgery",))
    report.add_argument("--k", type=int, required=True)
    report.add_argument("--n", type=int, required=True)
    report.add_argument("--json", action="store_true")
    report.set_defaults(func=_cmd_report)

    verify_cmd = sub.add_parser("verify", help="run the consistency suites")
    verify_cmd.add_argument(
        "--suite",
        default="all",
        choices=tuple(verify.SUITES) + ("all",),
    )
    verify_cmd.add_argument("--seed", type=int, default=verify.DEFAULT_SEED,
                            help="seed of the snf suite's random matrices; "
                            "no other suite reads it")
    verify_cmd.add_argument("--max-order", type=int, default=64)
    verify_cmd.add_argument("--cases", type=int, default=200,
                            help="random matrix count for the snf suite")
    verify_cmd.set_defaults(func=_cmd_verify)

    tables_cmd = sub.add_parser("tables", help="dump the citation-annotated tables")
    tables_cmd.add_argument("--kind", default=None)
    tables_cmd.add_argument("--json", action="store_true")
    tables_cmd.set_defaults(func=_cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)  # argparse exits 2 on its own
    try:
        return args.func(args)
    except (ValueError, LookupError, OracleBudgetError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
