"""Citation-annotated tables of input groups.

Every value consumed by the higher modules (stable stems, single-copy
cohomotopy of CP^n, Hopf-induced kernels and images, Fujii's real
K-groups of CP^n, Wall groups, the pi_s^0 sequence of each n) lives in a
line-delimited JSON data file shipped with the package, one record per
entry with a citation string.  A multiplicity affine in k is a pair
[a, b] meaning a*k + b.
Records without a citation, and ``group`` fields that are not a
canonical ``{"rank": r, "torsion": [d, ...]}``, are refused at load time.
Entries sourced from reference tables rather than pinned by the
connected-sum analysis carry ``external: true`` so the test suites can
tell them apart; a missing flag means false.

``Result`` is the one record of a cited group: pi_s^0, K, KO, [X, F/O]
and [X, F/PL] of ``#_k CP^n`` and the KO and PL/O table rows are
returned in it, with the group (or its candidates), the citations it
rests on and, where the computation has them, a basis, the short exact
sequence and the splitting filters.

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
class Result:
    """A cited group of #_k CP^n: an invariant, or a table row.

    ``group`` is an ``AmbiguousResult`` when the sequence admits several
    middle terms (pi_s^0 at n = 8).  ``basis``, when given, labels each
    summand of ``group``; ``sequence`` and ``filters`` are the short exact
    sequence and splitting filters the group was resolved from;
    ``external`` marks a row taken from a reference table (design rule 1).
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
    external: bool = False

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
        if "group" in rec:
            _group(rec["group"], f"{where}: {key[0]}")
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


def _group(value, name: str) -> FgAbGroup:
    """A ``{"rank": r, "torsion": [d, ...]}`` group field, read by the strict
    ``FgAbGroup.from_json`` that the CLI's group arguments share; refused
    under ``name`` unless canonical with integers that are not bools."""
    try:
        return FgAbGroup.from_json(value)
    except (KeyError, TypeError, ValueError):
        raise TableError(f"{name} group {value!r} is not {{'rank': r, 'torsion': [d, ...]}} "
                         "in canonical form") from None


def entry(kind: str, **params) -> FgAbGroup:
    """The group of a tabulated record, checked when its file was loaded."""
    rec = _record(kind, **params)
    if "group" not in rec:
        raise TableError(f"record {kind} {params} has no group (parametric records have none)")
    return FgAbGroup.from_json(rec["group"])


def all_raw_records() -> list[dict]:
    """Every record in the active data file, in file order."""
    return list(_load(data_path()).values())


# -- concrete tables ---------------------------------------------------------


def stable_stem(n: int) -> FgAbGroup:
    """Stable n-stem pi_n^s, for the degrees the computations touch."""
    return entry("stable_stem", n=n)


def stable_stem_localized(n: int, p: int) -> FgAbGroup:
    """Localized stem value tabulated separately (only the 2-local 13-stem)."""
    return entry("stable_stem_localized", n=n, p=p)


def pi_s0_single_cp(n: int) -> FgAbGroup:
    """pi_s^0(CP^n) for 3 <= n <= 8."""
    if not 3 <= n <= 8:
        raise UntabulatedDegree(f"pi_s^0(CP^n) tabulated for 3 <= n <= 8, got {n}")
    return entry("pi_s0_cp", n=n)


def hopf_kernel(n: int) -> FgAbGroup:
    """ker(h^*: pi_s^0(CP^n) -> pi_{2n+1}^s) for 3 <= n <= 7."""
    return entry("hopf_kernel", n=n)


def hopf_image_suspension(n: int) -> FgAbGroup:
    """im((Sigma h)^*) inside pi_{2n}^s for 3 <= n <= 8."""
    return entry("hopf_image_suspension", n=n)


def wall_group(i: int) -> FgAbGroup:
    """Simply-connected Wall group L_i: the 4-periodic table Z, 0, Z_2, 0."""
    return entry("wall_group", i_mod_4=i % 4)


def _shape(value) -> list | None:
    """The types of a list's items; None for anything but a list."""
    return [type(v) for v in value] if isinstance(value, list) else None


def _affine(coeffs, m: int) -> int:
    """a*m + b for a record's multiplicity pair [a, b]."""
    if _shape(coeffs) != [int, int]:
        raise TableError(f"multiplicity {coeffs!r} is not a pair [a, b] of integers")
    a, b = coeffs
    return a * m + b


def _runs(runs) -> list:
    """A record's runs [d, [a, b]]: integer d, and a*k + b >= 0 at every k >= 1."""
    if _shape(runs) is None or any(_shape(run) != [int, list] for run in runs):
        raise TableError(f"runs {runs!r} are not a list of [d, [a, b]] with integer d")
    for _, coeffs in runs:
        if _affine(coeffs, 1) < 0 or coeffs[0] < 0:
            raise TableError(f"multiplicity {coeffs!r} is negative at some k >= 1")
    return runs


def affine_group(runs, k: int) -> FgAbGroup:
    """The sum of a*k + b copies of Z_d over a record's runs [d, [a, b]] (Z_0 = Z).

    A run that is negative at some k >= 1 is refused at every k.
    """
    orders: list[int] = []
    for d, (a, b) in _runs(runs):
        orders.extend([d] * (a * k + b))
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


def ko_single_cp(s: int, n: int) -> Result:
    """Fujii's KO^{-s}(CP^n) with its basis labels, closed form in n mod 4.

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


# the two forms of a ko_cp_case generator, as the type of each value; either
# may also carry a string "relation"
_GENERATOR_FORMS = ({"symbol": str}, {"symbol": str, "j_from": list, "j_to": list})


def _labels(gen, m: int) -> list[GeneratorLabel]:
    """The labels of one ko_cp_case generator: one, or one per power j_from..j_to."""
    form = {key: type(value) for key, value in gen.items()} if isinstance(gen, dict) else None
    if form is None or form.pop("relation", str) is not str or form not in _GENERATOR_FORMS:
        raise TableError(f"generator {gen!r} has neither documented form")
    relation = _format_relation(gen["relation"], m) if gen.get("relation") else None
    powers = [0]
    if "j_from" in gen:
        powers = range(_affine(gen["j_from"], m), _affine(gen["j_to"], m) + 1)
    return [GeneratorLabel(gen["symbol"], j, relation=relation) for j in powers]


def _ko_rational_rank(s: int, n: int) -> int:
    """The free rank of KO^{-s}(CP^n): the rational Atiyah-Hirzebruch sequence
    collapses, and with H^{2i}(CP^n; Q) = Q for 1 <= i <= n it counts the
    cells of dimension 4j - s > 0: none for odd s, the 4j-cells for
    s = 0 mod 4 and the (4j-2)-cells for s = 2 mod 4."""
    if s % 2:
        return 0
    return n // 2 if s % 4 == 0 else (n + 1) // 2


@lru_cache(maxsize=512)
def _ko_single_cp(path: str, s: int, n: int) -> Result:
    m, q = divmod(n, 4)
    rec = _record("ko_cp_case", path, s=s, q=q)
    try:
        if _shape(rec.get("generators")) is None:
            raise TableError(f"generators {rec.get('generators')!r} are not a list")
        labels = tuple(label for gen in rec["generators"] for label in _labels(gen, m))
        rank, rational = _affine(rec.get("rank"), m), _ko_rational_rank(s, n)
        if rank != rational:
            raise TableError(f"free rank {rank} at n = {n}, but the rational "
                             f"Atiyah-Hirzebruch count is {rational}")
        group = _group({"rank": rank, "torsion": rec.get("torsion")}, "KO")
        return Result(1, n, group, (rec["citation"],), basis=labels,
                      external=rec.get("external", False))
    except ValueError as exc:
        # the record's refusals, the basis count of Result's included
        raise TableError(f"record ko_cp_case {{'s': {s}, 'q': {q}}}: {exc}") from None


def pl_over_o_entry(k: int, n: int) -> Result:
    """[#_k CP^n, PL/O] for tabulated n, parametric in k."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    rec = _record("pl_over_o", n=n)
    try:
        group = affine_group(rec.get("torsion"), k)
    except TableError as exc:
        raise TableError(f"record pl_over_o {{'n': {n}}}: {exc}") from None
    return Result(k, n, group, (rec["citation"],), external=rec.get("external", False))


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
    a bool among its integers included, or a multiplicity that is negative
    at some k >= 1, raises TableError naming the record.
    """
    rec = _record("pi_s0_sequence", n=n)
    name = f"record pi_s0_sequence {{'n': {n}}}"
    missing = [key for key in ("sub", "quot", "filters", "splitting") if key not in rec]
    if missing:
        raise TableError(f"{name} lacks {', '.join(missing)}")
    try:
        if rec["sub"] is not None and _shape(rec["sub"]) != [int, int]:
            raise TableError(f"sub {rec['sub']!r} is neither null nor a pair [d, n]")
        if any(_shape(rec[key]) is None for key in ("quot", "filters", "splitting")):
            raise TableError("quot, filters and splitting must be lists")
        for term in rec["quot"]:
            if _shape(term) != [str, int, list]:
                raise TableError(f"quotient term {term!r} is not [kind, n, [a, b]]")
        _runs([term[1:] for term in rec["quot"]])  # each [n', [a, b]] tail reads as a run
        for spec in rec["filters"]:
            form = {k: type(v) for k, v in spec.items()} if isinstance(spec, dict) else None
            if form not in _FILTER_FORMS:
                raise TableError(f"filter {spec!r} has neither documented form")
            _runs(spec.get("equals", []))
    except TableError as exc:
        raise TableError(f"{name}: {exc}") from None
    return rec
