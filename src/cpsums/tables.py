"""Citation-annotated tables of input groups.

Every value consumed by the higher modules (stable stems, single-copy
cohomotopy of CP^n, Hopf-induced kernels and images, Fujii's real
K-groups of CP^n, Wall groups, the pi_s^0 sequence of each n) lives in a
line-delimited JSON data file shipped with the package, one record per
entry with a citation string.  A multiplicity affine in k is a pair
[a, b] meaning a*k + b.
Records without a citation are refused at load time.  Entries sourced
from reference tables rather than pinned by the connected-sum analysis
carry ``external: true`` so the test suites can tell them apart.

``Result`` is the record in which pi_s^0, K, KO, [X, F/O] and [X, F/PL]
of ``#_k CP^n`` are returned: the group (or its candidates), the
citations it rests on and, where the computation has them, a basis, the
short exact sequence and the splitting filters.

The environment variable ``FGAB_TABLES`` overrides the data file path.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING, NamedTuple

from .fgab import FgAbGroup

if TYPE_CHECKING:
    from .extensions import AmbiguousResult, ShortExactSequence, SplittingFilter

DATA_ENV = "FGAB_TABLES"


class TableError(ValueError):
    """Malformed table data file."""


class UntabulatedDegree(LookupError):
    """The requested parameters are outside the tabulated range."""


class _LabelFields(NamedTuple):
    symbol: str
    power: int = 0
    copy_index: int = 1
    decoration: str = ""
    relation: str | None = None


class GeneratorLabel(_LabelFields):
    """Symbolic basis element attached to a group summand.

    ``power`` is the exponent on the bundle class, ``copy_index`` names
    which connected summand the class lives on, ``decoration`` is one of
    "", "q*", "d*", "c*".

    An immutable tuple record: a KO basis holds thousands of labels, and
    a tuple costs less than half a frozen dataclass to build.  Like any
    tuple, a label compares equal to the plain tuple of its five fields,
    ``(symbol, power, copy_index, decoration, relation)``.
    """

    __slots__ = ()

    def __new__(cls, symbol, power=0, copy_index=1, decoration="", relation=None):
        if power < 0:
            raise ValueError("power must be nonnegative")
        if copy_index < 1:
            raise ValueError("copy index starts at 1")
        if decoration not in ("", "q*", "d*", "c*"):
            raise ValueError(f"unknown decoration {decoration!r}")
        return tuple.__new__(cls, (symbol, power, copy_index, decoration, relation))

    @classmethod
    def _make(cls, iterable) -> "GeneratorLabel":
        # so that _replace validates too
        return cls(*iterable)

    def __str__(self) -> str:
        if self.symbol == "omega":
            core = "omega"
        elif self.symbol in ("sigma", "tau"):
            core = f"{self.symbol}_{self.copy_index}"
        else:
            core = f"{self.symbol}_{self.copy_index}^{self.power}"
        if self.decoration:
            return f"{self.decoration}({core})"
        return core


@dataclass(frozen=True)
class TableEntry:
    """One tabulated group with its provenance."""

    kind: str
    params: tuple[tuple[str, int], ...]
    group: FgAbGroup
    generators: tuple[GeneratorLabel, ...] = ()
    citation: str = ""
    external: bool = False

    def __post_init__(self):
        if not self.citation:
            raise TableError(f"entry {self.kind}{dict(self.params)} lacks a citation")
        if self.generators and len(self.generators) != self.group.ngens:
            raise TableError(
                f"entry {self.kind}{dict(self.params)}: {len(self.generators)} "
                f"generators for a group with {self.group.ngens} summands"
            )


@dataclass(frozen=True)
class Result:
    """A group-valued invariant of #_k CP^n with the citations it rests on.

    ``group`` is an ``AmbiguousResult`` when the sequence admits several
    middle terms (pi_s^0 at n = 8).  ``basis``, when given, labels each
    summand of ``group``; ``sequence`` and ``filters`` are the short exact
    sequence and splitting filters the group was resolved from.
    ``free_rank`` and ``torsion`` are read off ``group`` and need it to be
    a single group.
    """

    k: int
    n: int
    group: FgAbGroup | AmbiguousResult
    citations: tuple[str, ...]
    basis: tuple[GeneratorLabel, ...] = ()
    sequence: ShortExactSequence | None = None
    filters: tuple[SplittingFilter, ...] = ()

    def __post_init__(self):
        if self.basis and len(self.basis) != self.group.ngens:
            raise ValueError(
                f"basis lists {len(self.basis)} classes for a group "
                f"with {self.group.ngens} summands"
            )

    @property
    def free_rank(self) -> int:
        return self.group.free_rank

    @property
    def torsion(self) -> FgAbGroup:
        return self.group.torsion()


@lru_cache(maxsize=1)
def _default_path() -> str:
    # building the importlib.resources path costs about as much as a whole
    # cached lookup, and the shipped file never moves during a run
    return str(resources.files("cpsums").joinpath("data/tables.jsonl"))


def data_path() -> str:
    """``FGAB_TABLES`` if set, read afresh on every call; else the shipped file."""
    return os.environ.get(DATA_ENV) or _default_path()


def _record_key(rec, where: str) -> tuple:
    """Lookup key (kind, sorted params) of a raw record, validated."""
    kind, params = rec.get("kind"), rec.get("params")
    if not isinstance(kind, str) or not isinstance(params, dict):
        raise TableError(f"{where}: record needs a string 'kind' and an object 'params'")
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise TableError(f"{where}: param {name}={value!r} of {kind!r} is not an integer")
    return (kind, tuple(sorted(params.items())))


@lru_cache(maxsize=8)
def _load(path: str) -> dict[tuple, dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise TableError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    records: dict[tuple, dict] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TableError(f"{where}: not valid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise TableError(f"{where}: expected a JSON object, got {type(rec).__name__}")
        if not rec.get("citation"):
            raise TableError(f"{where}: record {rec.get('kind')!r} lacks a citation")
        key = _record_key(rec, where)
        if key in records:
            raise TableError(f"{where}: duplicate record {key}")
        records[key] = rec
    return records


def _record(kind: str, path: str | None = None, /, **params) -> dict:
    key = (kind, tuple(sorted((k, int(v)) for k, v in params.items())))
    table = _load(path or data_path())
    if key not in table:
        raise UntabulatedDegree(f"no table entry for {kind} {params}")
    return table[key]


def _group_of(rec: dict) -> FgAbGroup:
    return FgAbGroup.from_json(rec["group"])


def entry(kind: str, **params) -> TableEntry:
    """Generic accessor returning the full annotated entry."""
    rec = _record(kind, **params)
    if "group" in rec:
        return TableEntry(
            kind=kind,
            params=tuple(sorted(rec["params"].items())),
            group=_group_of(rec),
            citation=rec["citation"],
            external=bool(rec.get("external", False)),
        )
    raise TableError(f"record {kind} {params} is parametric; use its dedicated accessor")


def all_raw_records() -> list[dict]:
    """Every record in the active data file, in file order."""
    return list(_load(data_path()).values())


# -- concrete tables ---------------------------------------------------------


def stable_stem(n: int) -> FgAbGroup:
    """Stable n-stem pi_n^s, for the degrees the computations touch."""
    return _group_of(_record("stable_stem", n=n))


def stable_stem_localized(n: int, p: int) -> FgAbGroup:
    """Localized stem value tabulated separately (only the 2-local 13-stem)."""
    return _group_of(_record("stable_stem_localized", n=n, p=p))


def pi_s0_single_cp(n: int) -> FgAbGroup:
    """pi_s^0(CP^n) for 3 <= n <= 8."""
    if not 3 <= n <= 8:
        raise UntabulatedDegree(f"pi_s^0(CP^n) tabulated for 3 <= n <= 8, got {n}")
    return _group_of(_record("pi_s0_cp", n=n))


def hopf_kernel(n: int) -> FgAbGroup:
    """ker(h^*: pi_s^0(CP^n) -> pi_{2n+1}^s) for 3 <= n <= 7."""
    return _group_of(_record("hopf_kernel", n=n))


def hopf_image_suspension(n: int) -> FgAbGroup:
    """im((Sigma h)^*) inside pi_{2n}^s for 3 <= n <= 8."""
    return _group_of(_record("hopf_image_suspension", n=n))


def wall_group(i: int) -> FgAbGroup:
    """Simply-connected Wall group L_i: the 4-periodic table Z, 0, Z_2, 0."""
    return _group_of(_record("wall_group", i_mod_4=i % 4))


def _shape(value) -> list | None:
    """The types of a list's items; None for anything but a list."""
    return [type(v) for v in value] if isinstance(value, list) else None


def _affine(coeffs, m: int) -> int:
    """a*m + b for a record's multiplicity pair [a, b]."""
    if _shape(coeffs) != [int, int]:
        raise TableError(f"multiplicity {coeffs!r} is not a pair [a, b] of integers")
    a, b = coeffs
    return a * m + b


def affine_group(runs, k: int) -> FgAbGroup:
    """The sum of a*k + b copies of Z_d over a record's runs [d, [a, b]] (Z_0 = Z)."""
    if _shape(runs) is None or any(_shape(run) != [int, list] for run in runs):
        raise TableError(f"runs {runs!r} are not a list of [d, [a, b]] with integer d")
    orders: list[int] = []
    for d, coeffs in runs:
        copies = _affine(coeffs, k)
        if copies < 0:
            raise TableError(f"run [{d}, {coeffs}] asks for {copies} copies at k = {k}")
        orders.extend([d] * copies)
    return FgAbGroup.from_cyclic_orders(*orders)


def _format_relation(template: str, m: int) -> str:
    out = template
    for expr, value in (
        ("{2m+1}", 2 * m + 1),
        ("{2m-1}", 2 * m - 1),
        ("{2m}", 2 * m),
    ):
        out = out.replace(expr, str(value))
    return out


# an entry holds about n/2 labels: 512 entries with n <= 1024 keep at most
# about 21 MB, where 512 entries near n = 10^4 would keep about 330 MB
_KO_MEMO_MAX_N = 1024


def ko_single_cp(s: int, n: int) -> TableEntry:
    """Fujii's KO^{-s}(CP^n) with generator labels, closed form in n mod 4.

    Entries with n <= 1024 are memoised in an LRU cache of 512 entries
    keyed on ``(data_path(), s, n)``, so setting ``FGAB_TABLES`` switches
    files just as it does for ``_load``.  A connected-sum basis reads the
    same few single-copy entries for every k; an entry is frozen and its
    labels are immutable, so callers share it.  Larger n are rebuilt on
    each call, where building the connected-sum basis costs far more
    than its single-copy entry.
    """
    if not 0 <= s <= 7:
        raise ValueError(f"KO degree s must lie in 0..7, got {s}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    build = _ko_single_cp if n <= _KO_MEMO_MAX_N else _ko_single_cp.__wrapped__
    return build(data_path(), s, n)


@lru_cache(maxsize=512)
def _ko_single_cp(path: str, s: int, n: int) -> TableEntry:
    m, q = divmod(n, 4)
    rec = _record("ko_cp_case", path, s=s, q=q)
    rank = _affine(rec["rank"], m)
    torsion = tuple(int(d) for d in rec["torsion"])
    group = FgAbGroup(rank, torsion)
    labels: list[GeneratorLabel] = []
    for gen in rec["generators"]:
        relation = gen.get("relation")
        relation = _format_relation(relation, m) if relation else None
        if "j_from" not in gen:
            labels.append(
                GeneratorLabel(symbol=gen["symbol"], copy_index=1, relation=relation)
            )
            continue
        lo = _affine(gen["j_from"], m)
        hi = _affine(gen["j_to"], m)
        for j in range(lo, hi + 1):
            labels.append(
                GeneratorLabel(
                    symbol=gen["symbol"], power=j, copy_index=1, relation=relation
                )
            )
    return TableEntry(
        kind="ko_cp",
        params=(("n", n), ("s", s)),
        group=group,
        generators=tuple(labels),
        citation=rec["citation"],
        external=rec["external"],
    )


def pl_over_o_entry(k: int, n: int) -> TableEntry:
    """[#_k CP^n, PL/O] for tabulated n, parametric in k."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    rec = _record("pl_over_o", n=n)
    return TableEntry(
        kind="pl_over_o",
        params=(("k", k), ("n", n)),
        group=affine_group(rec["torsion"], k),
        citation=rec["citation"],
        external=rec["external"],
    )


# the two filter forms of a pi_s0_sequence record, as the type of each value
_FILTER_FORMS = ({"no_element_of_order": int}, {"localization_at": int, "equals": list})


def pi_s0_sequence(n: int) -> dict:
    """The cited record of the sequence computing pi_s^0(#_k CP^n), 3 <= n <= 8.

    ``sub`` is the stem term pi_{d}^s / im((Sigma h)^*) as the degree pair
    [d, n], null at n = 6; ``quot`` lists [kind, n', [a, b]]: a*k + b copies
    of a tabulated group; ``filters`` holds ``{"no_element_of_order": d}``
    or ``{"localization_at": p, "equals": runs}`` in ``affine_group`` runs;
    ``citation`` names the sequence and ``splitting`` the citations of its
    splitting argument.  A sub, quotient term or filter of any other shape,
    a bool among its integers included, raises TableError naming the record.
    """
    rec = _record("pi_s0_sequence", n=n)
    name = f"record pi_s0_sequence {{'n': {n}}}"
    missing = [key for key in ("sub", "quot", "filters", "splitting") if key not in rec]
    if missing:
        raise TableError(f"{name} lacks {', '.join(missing)}")
    if rec["sub"] is not None and _shape(rec["sub"]) != [int, int]:
        raise TableError(f"{name}: sub {rec['sub']!r} is neither null nor a pair [d, n]")
    if any(_shape(rec[key]) is None for key in ("quot", "filters", "splitting")):
        raise TableError(f"{name}: quot, filters and splitting must be lists")
    for term in rec["quot"]:
        if _shape(term) != [str, int, list]:
            raise TableError(f"{name}: quotient term {term!r} is not [kind, n, [a, b]]")
        _affine(term[2], 0)
    for spec in rec["filters"]:
        if not isinstance(spec, dict) or {k: type(v) for k, v in spec.items()} not in _FILTER_FORMS:
            raise TableError(f"{name}: filter {spec!r} has neither documented form")
    return rec
