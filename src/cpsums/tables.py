"""Citation-annotated tables of input groups.

Every value consumed by the higher modules (stable stems, single-copy
cohomotopy of CP^n, Hopf-induced kernels and images, Fujii's real
K-groups of CP^n, Wall groups, the pi_s^0 sequence of each n) lives in a
line-delimited JSON data file shipped with the package, one record per
entry with a citation string.  A multiplicity affine in k is a pair
[a, b] meaning a*k + b.

`_load` is the one reader of that format.  It reads the file once and
checks every record in it, keeping what each reader needs: the group of
every ``group`` field (canonical ``{"rank": r, "torsion": [d, ...]}``),
the checked runs of each PL/O row, the checked fields of each KO case
and the sequence of each n, its quotient read from the groups it names.  A malformed record, or one without a
citation, fails every lookup in its file with one TableError that names
``path:line`` and the record.  Entries sourced from reference tables
rather than pinned by the connected-sum analysis carry ``external:
true`` so the test suites can tell them apart; a missing flag means
false.

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

from .extensions import SplittingFilter
from .fgab import FgAbGroup

if TYPE_CHECKING:
    from .extensions import AmbiguousResult, ShortExactSequence

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


def _named(name: str, read, *args):
    """``read(*args)``, with a refusal prefixed by ``name``: the one place a
    record's error gets its ``path:line``."""
    try:
        return read(*args)
    except ValueError as exc:
        raise TableError(f"{name}: {exc}") from None


def _parse(line: str) -> tuple[tuple, dict]:
    """The lookup key (kind, sorted params) and the raw record of a line."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TableError(f"not valid JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise TableError(f"expected a JSON object, got {type(rec).__name__}")
    if not rec.get("citation"):
        raise TableError(f"record {rec.get('kind')!r} lacks a citation")
    kind, params = rec.get("kind"), rec.get("params")
    if not isinstance(kind, str) or not isinstance(params, dict):
        raise TableError("record needs a string 'kind' and an object 'params'")
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise TableError(f"param {name}={value!r} of {kind!r} is not an integer")
    return (kind, tuple(sorted(params.items()))), rec


@lru_cache(maxsize=8)
def _load(path: str) -> tuple[list[dict], dict[tuple, object]]:
    """The records of a data file as written, in file order, and what the
    reader of each lookup key (kind, sorted params) needs."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise TableError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    records: dict[tuple, tuple[str, dict]] = {}
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            where = f"{path}:{lineno}"
            key, rec = _named(where, _parse, line)
            if key in records:
                raise TableError(f"{where}: duplicate record {key}")
            records[key] = where, rec
    values: dict[tuple, object] = {}
    # a sequence reads the groups its quotient names, so sequences come last
    for key in sorted(records, key=lambda each: each[0] == "pi_s0_sequence"):
        where, rec = records[key]
        read = _READERS.get(key[0], _group_record)
        values[key] = _named(f"{where}: record {key[0]} {rec['params']}", read, rec, values)
    return [rec for _, rec in records.values()], values


def _record(kind: str, path: str | None = None, /, **params):
    """What the reader of the record (kind, params) needs, checked at load."""
    key = (kind, tuple(sorted((k, int(v)) for k, v in params.items())))
    values = _load(path or data_path())[1]
    if key not in values:
        raise UntabulatedDegree(f"no table entry for {kind} {params}")
    return values[key]


def _group(value, name: str = "group") -> FgAbGroup:
    """A ``{"rank": r, "torsion": [d, ...]}`` group field, read by the strict
    ``FgAbGroup.from_json`` that the CLI's group arguments share; refused
    under ``name`` unless canonical with integers that are not bools."""
    try:
        return FgAbGroup.from_json(value)
    except (KeyError, TypeError, ValueError):
        raise TableError(f"{name} {value!r} is not {{'rank': r, 'torsion': [d, ...]}} "
                         "in canonical form") from None


def _group_record(rec: dict, values) -> FgAbGroup | None:
    return _group(rec["group"]) if "group" in rec else None


def entry(kind: str, **params) -> FgAbGroup:
    """The group of a tabulated record, checked when its file was loaded."""
    group = _record(kind, **params)
    if not isinstance(group, FgAbGroup):
        raise TableError(f"record {kind} {params} has no group (parametric records have none)")
    return group


def all_raw_records() -> list[dict]:
    """Every record in the active data file, in file order."""
    return list(_load(data_path())[0])


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


def _pair(coeffs) -> tuple[int, int]:
    """A record's multiplicity [a, b], meaning a*m + b."""
    if _shape(coeffs) != [int, int]:
        raise TableError(f"multiplicity {coeffs!r} is not a pair [a, b] of integers")
    return tuple(coeffs)


def _runs(runs) -> tuple:
    """A record's runs [d, [a, b]] as (d, (a, b)): integer d, and a*k + b >= 0
    at every k >= 1."""
    if _shape(runs) is None or any(_shape(run) != [int, list] for run in runs):
        raise TableError(f"runs {runs!r} are not a list of [d, [a, b]] with integer d")
    checked = tuple((d, _pair(coeffs)) for d, coeffs in runs)
    for _, (a, b) in checked:
        if a < 0 or a + b < 0:
            raise TableError(f"multiplicity {[a, b]} is negative at some k >= 1")
    return checked


def affine_group(runs, k: int) -> FgAbGroup:
    """The sum of a*k + b copies of Z_d over runs (d, (a, b)) checked at load
    (Z_0 = Z)."""
    orders: list[int] = []
    for d, (a, b) in runs:
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


def _generator(gen) -> tuple:
    """A ko_cp_case generator as (symbol, j_from, j_to, relation): the label
    of power 0, or one label per power j_from..j_to, affine in m."""
    form = {key: type(value) for key, value in gen.items()} if isinstance(gen, dict) else None
    if form is None or form.pop("relation", str) is not str or form not in _GENERATOR_FORMS:
        raise TableError(f"generator {gen!r} has neither documented form")
    powers = [_pair(gen.get(end, [0, 0])) for end in ("j_from", "j_to")]
    return (gen["symbol"], *powers, gen.get("relation") or None)


def _labels(gen: tuple, m: int) -> list[GeneratorLabel]:
    symbol, (a, b), (c, d), relation = gen
    relation = relation and _format_relation(relation, m)
    return [GeneratorLabel(symbol, j, relation=relation) for j in range(a * m + b, c * m + d + 1)]


def _ko_rational_rank(s: int, q: int) -> tuple[int, int]:
    """The free rank of KO^{-s}(CP^(4m+q)) as the pair [a, b] of a*m + b: the
    rational Atiyah-Hirzebruch sequence collapses, and with H^{2i}(CP^n; Q)
    = Q for 1 <= i <= n it counts the cells of dimension 4j - s > 0: none
    for odd s, the 4j-cells (2m + q // 2) for s = 0 mod 4 and the
    (4j-2)-cells (2m + (q + 1) // 2) for s = 2 mod 4."""
    return (0, 0) if s % 2 else (2, (q + s % 4 // 2) // 2)


def _ko_case(rec: dict, values) -> tuple:
    """(rank, torsion, generators, citation, external) of a ko_cp_case
    record; the rank is the pair [a, b] of a*m + b at n = 4m + q."""
    params = rec["params"]
    if sorted(params) != ["q", "s"]:
        raise TableError(f"params {params} are not {{'s': s, 'q': q}}")
    rank, rational = _pair(rec.get("rank")), _ko_rational_rank(params["s"], params["q"])
    if rank != rational:
        raise TableError(f"free rank {list(rank)} (a*m + b at n = 4m + q) is not the "
                         f"rational Atiyah-Hirzebruch count {list(rational)}")
    if _shape(rec.get("generators")) is None:
        raise TableError(f"generators {rec.get('generators')!r} are not a list")
    torsion = _group({"rank": 0, "torsion": rec.get("torsion")}, "KO torsion").invariant_factors
    generators = tuple(map(_generator, rec["generators"]))
    return rank, torsion, generators, rec["citation"], rec.get("external", False)


@lru_cache(maxsize=512)
def _ko_single_cp(path: str, s: int, n: int) -> Result:
    m, q = divmod(n, 4)
    (a, b), torsion, generators, citation, external = _record("ko_cp_case", path, s=s, q=q)
    try:
        labels = tuple(label for gen in generators for label in _labels(gen, m))
        return Result(1, n, FgAbGroup(a * m + b, torsion), (citation,), basis=labels,
                      external=external)
    except ValueError as exc:
        # what only n shows: a negative power, or Result's basis count
        raise TableError(f"record ko_cp_case {{'s': {s}, 'q': {q}}}: {exc}") from None


def _pl_over_o(rec: dict, values) -> tuple:
    """(runs, citation, external) of a pl_over_o record."""
    return _runs(rec.get("torsion")), rec["citation"], rec.get("external", False)


def pl_over_o_entry(k: int, n: int) -> Result:
    """[#_k CP^n, PL/O] for tabulated n, parametric in k."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    runs, citation, external = _record("pl_over_o", n=n)
    return Result(k, n, affine_group(runs, k), (citation,), external=external)


# the filter forms of a pi_s0_sequence record, as the type of each value
_FILTER_FORMS = ({"no_element_of_order": int},)


def _pi_s0_sequence(rec: dict, values) -> tuple:
    """The sequence a pi_s0_sequence record names, as `pi_s0_sequence` returns
    it.  In the record ``sub`` is null or [d, n]; ``quot`` lists
    [kind, n', [a, b]], a*k + b copies of the tabulated group (kind, n');
    ``filters`` holds ``{"no_element_of_order": d}``; ``splitting`` is a
    list of citations."""
    missing = [key for key in ("sub", "quot", "filters", "splitting") if key not in rec]
    if missing:
        raise TableError(f"lacks {', '.join(missing)}")
    if rec["sub"] is not None and _shape(rec["sub"]) != [int, int]:
        raise TableError(f"sub {rec['sub']!r} is neither null nor a pair [d, n]")
    if any(_shape(rec[key]) is None for key in ("quot", "filters", "splitting")):
        raise TableError("quot, filters and splitting must be lists")
    quot, filters = [], []
    for term in rec["quot"]:
        if _shape(term) != [str, int, list]:
            raise TableError(f"quotient term {term!r} is not [kind, n, [a, b]]")
        # the [n', [a, b]] tail of a term reads as a run
        (_, copies), group = _runs([term[1:]])[0], values.get((term[0], (("n", term[1]),)))
        if not isinstance(group, FgAbGroup):
            raise TableError(f"quotient term {term!r} names no group record")
        quot += [(d, copies) for d in (0,) * group.free_rank + group.invariant_factors]
    for spec in rec["filters"]:
        if not isinstance(spec, dict) or {k: type(v) for k, v in spec.items()} not in _FILTER_FORMS:
            raise TableError(f"filter {spec!r} has neither documented form")
        filters.append(SplittingFilter.no_element_of_order(spec["no_element_of_order"]))
    return (rec["sub"] and tuple(rec["sub"]), tuple(quot), tuple(filters), rec["citation"],
            tuple(rec["splitting"]))


def pi_s0_sequence(n: int) -> tuple:
    """The sequence computing pi_s^0(#_k CP^n), 3 <= n <= 8, checked at load,
    as (sub, quot, filters, citation, splitting).

    ``sub`` is the stem term pi_d^s / im((Sigma h)^*) as the degree pair
    (d, n), None at n = 6; ``quot`` is the quotient as ``affine_group``
    runs, read from the tabulated groups the record names; ``filters`` are
    the ``SplittingFilter``s; ``citation`` names the sequence and
    ``splitting`` holds the citations of its splitting argument.
    """
    return _record("pi_s0_sequence", n=n)


# what each parametric kind keeps; every other record keeps its group
_READERS = {"ko_cp_case": _ko_case, "pl_over_o": _pl_over_o, "pi_s0_sequence": _pi_s0_sequence}
