"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.load_cpsums()

with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
COUNTS = [n for n, unit in LAYER.items() if unit in ("count", "bits")]


def test_benchmark_json_names_and_bounds():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(u) for u in list(E2E.values()) + list(LAYER.values()))
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert E2E["setup_s"] == "s"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_complete(name, trace):
    result, report = run.measure(name, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = LAYER if trace else E2E
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat(name):
    first, _ = run.measure(name, seed=5, seconds=0, trace=1, tiny=True)
    second, _ = run.measure(name, seed=5, seconds=0, trace=1, tiny=True)
    for metric in COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_seed_decides_inputs():
    for name, w in workloads.WORKLOADS.items():
        a = w.make_round(random.Random(1), False)
        b = w.make_round(random.Random(1), False)
        assert a == b, name
    snf = workloads.WORKLOADS["snf-relations"]
    assert snf.make_round(random.Random(1), False) != snf.make_round(
        random.Random(2), False
    )


# -- every checker flags a wrong value ---------------------------------------


def test_check_row_flags_wrong_values():
    from cpsums.fgab import FgAbGroup

    groups, exotic = workloads.row_op(3)
    assert workloads.check_row(3, (groups, exotic)) == []
    wrong = list(groups)
    wrong[1] = FgAbGroup(0, (2, 2))
    assert workloads.check_row(3, (wrong, exotic))
    wrong = list(groups)
    wrong[5] = FgAbGroup(0, (2,) * 9)  # n = 8 resolved silently
    assert workloads.check_row(3, (wrong, exotic))
    assert workloads.check_row(3, (groups, [0, 8, 1, 0, 1]))


def test_check_ko_flags_wrong_values():
    rows, k0 = workloads.ko_op(2, tiny=True)
    assert workloads.check_ko(2, (rows, k0)) == []
    s, n, group, labels, passed, detail = rows[0]
    assert workloads.check_ko(2, ([(s, n, group, labels, False, "x")] + rows[1:], k0))
    assert workloads.check_ko(2, ([(s, n, group, labels[:-1], passed, detail)] + rows[1:], k0))
    n0, g0, nb = k0[0]
    assert workloads.check_ko(2, (rows, [(n0, g0, nb + 1)] + k0[1:]))


def _snf_case_and_output():
    case = workloads.make_snf_case(random.Random(11), 5, 6, "square")
    return case, workloads.snf_op(case)


def test_check_snf_flags_wrong_values():
    from cpsums.fgab import FgAbGroup, IntegerMatrix

    case, out = _snf_case_and_output()
    assert workloads.check_snf(case, out) == []
    u, d, v, presented, ker, coker = out
    bad_d = [list(r) for r in d.entries]
    bad_d[0][0] += 1
    assert workloads.check_snf(case, (u, IntegerMatrix(bad_d), v, presented, ker, coker))
    bad_u = [list(r) for r in u.entries]
    bad_u[0], bad_u[1] = bad_u[1], bad_u[0]
    assert workloads.check_snf(case, (IntegerMatrix(bad_u), d, v, presented, ker, coker))
    doubled = [list(r) for r in v.entries]
    doubled[0] = [2 * x for x in doubled[0]]
    assert workloads.check_snf(case, (u, d, IntegerMatrix(doubled), presented, ker, coker))
    bigger = presented.direct_sum(FgAbGroup.cyclic(2))
    assert workloads.check_snf(case, (u, d, v, bigger, ker, coker))
    assert workloads.check_snf(case, (u, d, v, presented, ker.direct_sum(FgAbGroup.free(1)), coker))


def test_check_verify_flags_wrong_values():
    good = "\n".join(
        f"suite {s}: 3 cases, 0 failures [ok]" for s in workloads.SUITE_NAMES
    )
    assert workloads.check_verify(1, (0, good)) == []
    assert workloads.check_verify(1, (1, good))
    assert workloads.check_verify(1, (0, good.replace("0 failures [ok]", "1 failures [FAILED]", 1)))
    assert workloads.check_verify(1, (0, "\n".join(good.splitlines()[1:])))


# -- tracing -----------------------------------------------------------------


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    outer = tracing.Target("x", "outer", "outer")
    inner = tracing.Target("x", "inner", "inner")
    inner_fn = tracer.wrap(inner, lambda: sum(range(20000)))

    def body():
        sum(range(20000))
        return inner_fn() + inner_fn()

    tracer.wrap(outer, body)()
    assert tracer.counters["inner.calls"] == 2
    assert tracer.total_ns["outer"] == tracer.self_ns["outer"] + tracer.total_ns["inner"]
    assert [span[0] for span in tracer.spans] == ["inner", "inner", "outer"]


def test_installed_rebinds_and_restores():
    import cpsums
    from cpsums import fgab, verify

    originals = (fgab.smith_normal_form, verify.smith_normal_form,
                 cpsums.smith_normal_form, verify.SUITES["oracle"],
                 fgab.FgAbGroup.__dict__["from_primary"])
    tracer = tracing.Tracer()
    with tracer.installed():
        assert verify.smith_normal_form is fgab.smith_normal_form is cpsums.smith_normal_form
        assert verify.smith_normal_form is not originals[0]
        assert verify.SUITES["oracle"] is verify.oracle_suite is not originals[3]
        verify.snf_suite(cases=3, max_dim=3)
        fgab.FgAbGroup.from_cyclic_orders(2, 4)
    assert (fgab.smith_normal_form, verify.smith_normal_form, cpsums.smith_normal_form,
            verify.SUITES["oracle"], fgab.FgAbGroup.__dict__["from_primary"]) == originals
    assert tracer.counters["fgab.smith_normal_form.calls"] == 3
    assert tracer.counters["fgab.canon.calls"] == 2  # from_cyclic_orders -> from_primary


def test_run_refuses_a_checkout_without_the_library(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), bench_dir / name)
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ko-basis-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
