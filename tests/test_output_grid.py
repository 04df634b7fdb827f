"""Byte-identity grid: one SHA-256 per slice of command-line output.

A slice is a fixed list of invocations, run in-process through
``cli.main``; its digest covers the argv, stdout, stderr and exit code
of each.  The slices are:

- ``compute`` for every invariant (``ko`` once per ``s = 0..7``) and
  ``report --sequence surgery``, each in text and ``--json``, one slice
  per ``n = 1..12`` over ``k = 1..8`` and ``k = 100``;
- ``verify --suite all`` at the default seed;
- the stdout of each demo;
- ``classify-extension`` cases, finite ones and ones with free parts
  (a free sub can meet the torsion of the quotient, as in Z --x2--> Z);
- ``tables``: the dump in text and ``--json``, one ``--kind`` and an
  unknown one;
- refusals: bad or oversized input to each verb, which must end in one
  ``error:`` line and exit 2.

``output_grid.json`` holds the digests.  A digest may change only with
an output change that CHANGES.md declares and explains.  To print the
digests of the current tree:

    PYTHONPATH=src python tests/test_output_grid.py
"""

import contextlib
import hashlib
import io
import json
import runpy
import sys
from pathlib import Path
from unittest import mock

import pytest

from cpsums import cli

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "output_grid.json"
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))
KS = (*range(1, 9), 100)

_GROUPS = {
    "0": '{"rank":0,"torsion":[]}',
    "2": '{"rank":0,"torsion":[2]}',
    "4": '{"rank":0,"torsion":[4]}',
    "2,2": '{"rank":0,"torsion":[2,2]}',
    "2,4": '{"rank":0,"torsion":[2,4]}',
    "3": '{"rank":0,"torsion":[3]}',
    "6": '{"rank":0,"torsion":[6]}',
    "2,6": '{"rank":0,"torsion":[2,6]}',
    "4,12": '{"rank":0,"torsion":[4,12]}',
    "8": '{"rank":0,"torsion":[8]}',
    "Z": '{"rank":1,"torsion":[]}',
    "Z+2": '{"rank":1,"torsion":[2]}',
    "Z+4": '{"rank":1,"torsion":[4]}',
    "Z^2": '{"rank":2,"torsion":[]}',
}
_CLASSIFY = (
    ("2", "2"),
    ("2", "2", "--no-order", "4"),
    ("2", "2", "--require-unique"),
    ("2", "2,2", "--no-order", "4"),
    ("4", "2", "--localized", "2", _GROUPS["2,4"]),
    ("4", "2", "--localized", "3", _GROUPS["0"]),
    ("2,6", "4,12"),
    ("2,6", "4,12", "--no-order", "8", "--require-unique"),
    ("3", "6", "--torsion", _GROUPS["3"]),
    ("3", "6", "--torsion", '{"rank":0,"torsion":[3,6]}'),
    ("8", "4", "--free-rank", "0"),
    ("0", "2,4"),
    ("2", "2", "--no-order", "2"),
    ("2", "not json"),
)
_CLASSIFY_FREE = (
    ("Z", "2"),
    ("Z", "2", "--require-unique"),
    ("Z", "2,4", "--no-order", "4"),
    ("Z", "Z+2"),
    ("Z+2", "4"),
    ("Z+4", "2,2", "--torsion", _GROUPS["2,4"]),
    ("Z^2", "2,4"),
    ("2", "Z+4"),
    ("Z", "Z"),
)


_TABLES = (
    ["tables"],
    ["tables", "--json"],
    ["tables", "--kind", "wall_group"],
    ["tables", "--kind", "nope"],
)
_REFUSALS = (
    ["verify", "--max-order", "0"],
    ["verify", "--max-order", "5000"],
    ["verify", "--cases", "0"],
    ["compute", "--invariant", "ko", "--k", "2", "--n", "4"],
    ["compute", "--invariant", "pi-s0", "--k", "1000001", "--n", "1"],
    ["report", "--sequence", "surgery", "--k", "1000001", "--n", "1"],
    ["classify-extension", "--sub", '{"rank":0}', "--quot", _GROUPS["2"]],
    ["classify-extension", "--sub", _GROUPS["2"], "--quot", _GROUPS["2"],
     "--localized", "x", _GROUPS["2"]],
    ["classify-extension", "--sub", _GROUPS["2"], "--quot", _GROUPS["2"],
     "--localized", "4", _GROUPS["2"]],
    ["classify-extension", "--sub", _GROUPS["2"], "--quot", _GROUPS["2"],
     "--torsion", "nope"],
    ["classify-extension", "--sub", _GROUPS["2"], "--quot", _GROUPS["2"],
     "--no-order", "2", "--no-order", "4"],
)


def _classify_argv(cases):
    for sub, quot, *filters in cases:
        argv = [
            "classify-extension",
            "--sub", _GROUPS[sub],
            "--quot", _GROUPS.get(quot, quot),
            *filters,
        ]
        yield argv
        yield argv + ["--json"]


def _sized_argv(head, n):
    for k in KS:
        argv = [*head, "--k", str(k), "--n", str(n)]
        yield argv
        yield argv + ["--json"]


def slices():
    """{slice name: list of argv lists, or a demo path}."""
    out = {}
    computed = [(name, ["--invariant", name]) for name in cli.COMPUTE if name != "ko"]
    computed += [(f"ko-s{s}", ["--invariant", "ko", "--s", str(s)]) for s in range(8)]
    for n in range(1, 13):
        for name, head in computed:
            out[f"compute/{name}/n={n}"] = list(_sized_argv(["compute", *head], n))
        out[f"report/surgery/n={n}"] = list(
            _sized_argv(["report", "--sequence", "surgery"], n)
        )
    out["verify/all"] = [["verify", "--suite", "all"]]
    out["classify-extension/finite"] = list(_classify_argv(_CLASSIFY))
    out["classify-extension/free"] = list(_classify_argv(_CLASSIFY_FREE))
    out["tables"] = [list(argv) for argv in _TABLES]
    out["refusals"] = [list(argv) for argv in _REFUSALS]
    for path in DEMOS:
        out[f"demo/{path.name}"] = path
    return out


def digest(work) -> str:
    h = hashlib.sha256()
    if isinstance(work, Path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(work), run_name="__main__")
        h.update(out.getvalue().encode())
        return h.hexdigest()
    # building the parser is two thirds of a small invocation, and a
    # parser is not changed by parsing, so one serves the whole slice
    parser = cli.build_parser()
    with mock.patch.object(cli, "build_parser", lambda: parser):
        for argv in work:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            h.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    return h.hexdigest()


SLICES = slices()


@pytest.fixture(scope="module")
def expected():
    return json.loads(DIGESTS.read_text())


def test_grid_names_every_slice(expected):
    assert sorted(expected) == sorted(SLICES)


@pytest.mark.parametrize("name", sorted(SLICES))
def test_slice_output_unchanged(expected, name):
    assert digest(SLICES[name]) == expected.get(name), name


if __name__ == "__main__":
    json.dump({name: digest(SLICES[name]) for name in sorted(SLICES)}, sys.stdout, indent=1)
    sys.stdout.write("\n")
