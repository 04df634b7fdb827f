"""CLI behavior: verbs, flags, exit codes, JSON and text agreement."""

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from cpsums import cli, cohomotopy, extensions, tables, verify
from cpsums.cli import main
from cpsums.fgab import FgAbGroup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestComputeVerb:
    def test_pi_s0_json(self, capsys):
        code, out = run(
            capsys, "compute", "--invariant", "pi-s0", "--k", "2", "--n", "4", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 0 and payload["torsion"] == [2, 2, 2]
        assert payload["citations"]

    def test_text_and_json_agree(self, capsys):
        _, text = run(capsys, "compute", "--invariant", "pi-s0", "--k", "3", "--n", "6")
        _, raw = run(
            capsys, "compute", "--invariant", "pi-s0", "--k", "3", "--n", "6", "--json"
        )
        record = json.loads(raw)
        group = FgAbGroup.from_json({"rank": record["rank"], "torsion": record["torsion"]})
        assert str(group) in text

    def test_ambiguous_exit_codes(self, capsys):
        code, out = run(capsys, "compute", "--invariant", "pi-s0", "--k", "1", "--n", "8")
        assert code == 0
        assert "ambiguous" in out
        code, _ = run(
            capsys,
            "compute", "--invariant", "pi-s0", "--k", "1", "--n", "8",
            "--require-unique",
        )
        assert code == 3

    def test_ambiguous_json_schema(self, capsys):
        code, out = run(
            capsys, "compute", "--invariant", "pi-s0", "--k", "2", "--n", "8", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert "ambiguous" in payload
        assert len(payload["ambiguous"]) == 2

    def test_ko_requires_s(self, capsys):
        code, _ = run(capsys, "compute", "--invariant", "ko", "--k", "2", "--n", "6")
        assert code == 2

    def test_ko_bott_reduction(self, capsys):
        _, out_a = run(
            capsys,
            "compute", "--invariant", "ko", "--s", "3", "--k", "2", "--n", "8", "--json",
        )
        _, out_b = run(
            capsys,
            "compute", "--invariant", "ko", "--s", "11", "--k", "2", "--n", "8", "--json",
        )
        rec_a, rec_b = json.loads(out_a), json.loads(out_b)
        assert (rec_a["rank"], rec_a["torsion"]) == (rec_b["rank"], rec_b["torsion"])

    def test_f_o_ambiguous_upstream(self, capsys):
        code, out = run(
            capsys,
            "compute", "--invariant", "f-o", "--k", "2", "--n", "8", "--json",
        )
        assert code == 0
        assert "ambiguous_torsion" in json.loads(out)

    def test_structure_set_payload(self, capsys):
        _, out = run(
            capsys,
            "compute", "--invariant", "structure-set", "--k", "2", "--n", "4", "--json",
        )
        payload = json.loads(out)
        assert payload["exotic_count"] == 4
        assert payload["torsion"] == [2, 2, 2]
        assert payload["pl_group"] == {"rank": 0, "torsion": [2]}

    def test_range_error_is_usage_error(self, capsys):
        code, _ = run(capsys, "compute", "--invariant", "pi-s0", "--k", "1", "--n", "9")
        assert code == 2


class TestClassifyVerb:
    Z2 = '{"rank":0,"torsion":[2]}'

    @pytest.mark.parametrize(
        "argv",
        [
            ["--sub", '{"rank": true, "torsion": [2.9]}', "--quot", Z2],
            ["--sub", '{"rank": 0, "torsion": ["3"]}', "--quot", Z2],
            ["--sub", Z2, "--quot", '{"rank": 0.0, "torsion": []}'],
            ["--sub", Z2, "--quot", Z2, "--localized", "2", '{"rank": 0, "torsion": [2.0]}'],
            ["--sub", Z2, "--quot", Z2, "--torsion", '{"rank": 0, "torsion": [false]}'],
            ["--sub", '{"rank": 0, "torsion": [2], "order": 2}', "--quot", Z2],
        ],
    )
    def test_group_json_is_strict(self, capsys, argv):
        # bools, floats, strings and extra keys are refused, as in the data file
        code = main(["classify-extension", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: bad group JSON '")
        assert captured.err.endswith(": expected {'rank': r, 'torsion': [d, ...]} "
                                     "in integers only\n")

    def test_unique_after_filter(self, capsys):
        code, out = run(
            capsys,
            "classify-extension",
            "--sub", '{"rank":0,"torsion":[2]}',
            "--quot", '{"rank":0,"torsion":[2,2]}',
            "--no-order", "4",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 0 and payload["torsion"] == [2, 2, 2]

    def test_ambiguous_listing(self, capsys):
        code, out = run(
            capsys,
            "classify-extension",
            "--sub", '{"rank":0,"torsion":[2]}',
            "--quot", '{"rank":0,"torsion":[2]}',
            "--json",
        )
        assert code == 0
        assert len(json.loads(out)["ambiguous"]) == 2

    def test_require_unique(self, capsys):
        code, _ = run(
            capsys,
            "classify-extension",
            "--sub", '{"rank":0,"torsion":[2]}',
            "--quot", '{"rank":0,"torsion":[2]}',
            "--require-unique",
        )
        assert code == 3

    def test_inconsistent_filters(self, capsys):
        code, _ = run(
            capsys,
            "classify-extension",
            "--sub", '{"rank":0,"torsion":[2]}',
            "--quot", '{"rank":0,"torsion":[2]}',
            "--free-rank", "7",
        )
        assert code == 2

    def test_localization_filter(self, capsys):
        code, out = run(
            capsys,
            "classify-extension",
            "--sub", '{"rank":0,"torsion":[6]}',
            "--quot", '{"rank":0,"torsion":[2]}',
            "--localized", "3", '{"rank":0,"torsion":[3]}',
            "--no-order", "4",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 0 and payload["torsion"] == [2, 6]


    @pytest.mark.parametrize(
        "filters",
        [
            ("--localized", "4", '{"rank":0,"torsion":[]}'),
            ("--localized", "two", '{"rank":0,"torsion":[]}'),
            ("--no-order", "1"),
        ],
        ids=["composite-prime", "non-integer-prime", "order-one"],
    )
    def test_bad_filter_is_a_usage_error(self, capsys, filters):
        code = main(
            [
                "classify-extension",
                "--sub", '{"rank":0,"torsion":[2]}',
                "--quot", '{"rank":0,"torsion":[2]}',
                *filters,
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error: ")


    def test_free_sub_is_not_unique(self, capsys):
        # Z --x2--> Z gives G = Z, besides the split Z + Z_2
        code, out = run(
            capsys,
            "classify-extension",
            "--sub", '{"rank":1,"torsion":[]}',
            "--quot", '{"rank":0,"torsion":[2]}',
            "--require-unique",
        )
        assert code == 3
        assert out.splitlines()[1:] == ["  Z", "  Z + Z_2"]

    def test_free_sub_by_wide_quotient(self, capsys):
        wide = json.dumps({"rank": 0, "torsion": [2] * 2000})
        code, out = run(
            capsys, "classify-extension", "--sub", '{"rank":1,"torsion":[]}', "--quot", wide
        )
        assert code == 0
        assert out.splitlines()[1:] == ["  Z + Z_2^1999", "  Z + Z_2^2000"]


class TestReportVerb:
    def test_text_render(self, capsys):
        code, out = run(capsys, "report", "--sequence", "surgery", "--k", "2", "--n", "5")
        assert code == 0
        assert "L_11" in out and "nonzero" in out

    def test_json(self, capsys):
        code, out = run(
            capsys, "report", "--sequence", "surgery", "--k", "2", "--n", "4", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["obstruction_status"] == "zero"
        assert payload["eta_injective"] is True


class TestVerifyVerb:
    def test_fast_suites_pass(self, capsys):
        code, out = run(capsys, "verify", "--suite", "tables")
        assert code == 0 and "[ok]" in out
        code, out = run(capsys, "verify", "--suite", "surgery")
        assert code == 0 and "[ok]" in out

    def test_broken_surgery_data_is_a_verification_failure(self, capsys, monkeypatch):
        # an extra Z_5 in the n = 7 PL/O row breaks exactness; that is a
        # failed check (exit 1), not a usage error (exit 2)
        real = tables.pl_over_o_entry

        def wrong_entry(k, n):
            entry = real(k, n)
            if n != 7:
                return entry
            return replace(entry, group=entry.group.direct_sum(FgAbGroup.cyclic(5)))

        monkeypatch.setattr(tables, "pl_over_o_entry", wrong_entry)
        code, out = run(capsys, "verify", "--suite", "surgery")
        assert code == 1
        assert "violated: surgery-exactness" in out

    def test_stem_image_contradiction_is_a_verification_failure(
        self, capsys, tmp_path, monkeypatch
    ):
        # im((Sigma h)^*) = Z_4 cannot sit in pi_8^s = Z_2^2: every suite still
        # reports, and the tables suite names the violated property
        _edit_record(tmp_path, monkeypatch, "hopf_image_suspension", {"n": 4},
                     lambda rec: rec.__setitem__("group", {"rank": 0, "torsion": [4]}))
        code, out = run(capsys, "verify", "--suite", "all", "--cases", "1", "--max-order", "1")
        assert code == 1
        assert [line.split(":")[0] for line in out.splitlines() if line.startswith("suite")] == [
            f"suite {name}" for name in verify.SUITES
        ]
        assert "violated: image-in-stem" in out
        assert "n=4: (Z_2^2) / (Z_4): 0 quotient types fit" in out
        # the surgery suite files it under pi_s^0, once per k, not as a
        # failure of the im(eta) solve
        assert "surgery-exactness" not in out
        for k in range(2, 7):
            assert f"k={k}, n=4: (Z_2^2) / (Z_4): 0 quotient types fit" in out

    def test_empty_filter_result_is_a_verification_failure(
        self, capsys, tmp_path, monkeypatch
    ):
        # pi_s^0(CP^4) = Z_4 has the cited order of Z_2^2, so only a type
        # comparison sees it at k = 1; and the n = 5 quotient, which then
        # holds Z_4, leaves no middle term without an element of order 4.
        # Every suite still reports, and each failure names k and n
        _edit_record(tmp_path, monkeypatch, "pi_s0_cp", {"n": 4},
                     lambda rec: rec.__setitem__("group", {"rank": 0, "torsion": [4]}))
        code, out = run(capsys, "verify", "--suite", "all", "--cases", "1", "--max-order", "1")
        assert code == 1
        assert [line.split(":")[0] for line in out.splitlines() if line.startswith("suite")] == [
            f"suite {name}" for name in verify.SUITES
        ]
        assert "violated: single-copy-order" in out
        assert "n=4: sequence resolves to Z_2^2, table says Z_4" in out
        assert out.count("violated: pi-s0-resolution") == 5  # k = 2..6
        assert "k=2, n=5: no middle term of 0 -> Z_6 -> G -> Z_2 + Z_4 -> 0" in out

    @pytest.mark.parametrize(
        "kind, params, torsion, suite, prop",
        [
            # pi_13^s = Z_2 has no room for the image Z_6 / Z_2 = Z_3 of h^* at n = 6
            ("stable_stem", {"n": 13}, [2], "tables", "hopf-kernel"),
            # im(theta) = L_14 = Z_4 is no quotient of N^t_Diff at n = 7
            ("wall_group", {"i_mod_4": 2}, [4], "surgery", "surgery-exactness"),
            ("wall_group", {"i_mod_4": 3}, [2], "surgery", "eta-injective"),
        ],
    )
    def test_cited_group_is_read_by_a_check(
        self, capsys, tmp_path, monkeypatch, kind, params, torsion, suite, prop
    ):
        _edit_record(tmp_path, monkeypatch, kind, params,
                     lambda rec: rec.__setitem__("group", {"rank": 0, "torsion": torsion}))
        code, out = run(capsys, "verify", "--suite", suite)
        assert code == 1
        assert f"violated: {prop}" in out

    def test_snf_deterministic_with_seed(self, capsys):
        code, out_a = run(
            capsys, "verify", "--suite", "snf", "--cases", "50", "--seed", "7"
        )
        _, out_b = run(
            capsys, "verify", "--suite", "snf", "--cases", "50", "--seed", "7"
        )
        assert code == 0
        assert out_a == out_b

    def test_oracle_suite_small(self, capsys):
        code, out = run(capsys, "verify", "--suite", "oracle", "--max-order", "16")
        assert code == 0 and "[ok]" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("--suite", "oracle", "--max-order", "5000"),
            ("--suite", "oracle", "--max-order", "0"),
            ("--suite", "all", "--max-order", "-3"),
            ("--suite", "snf", "--cases", "-5"),
            ("--suite", "snf", "--cases", "0"),
        ],
    )
    def test_bad_options_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_largest_max_order_accepted(self):
        # the bound itself passes validation; a cheap suite shows it
        reports = verify.run_suites(
            ["tables"], max_order=extensions.ORACLE_ORDER_LIMIT, cases=1
        )
        assert reports[0].ok

    def test_budget_exhausted_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(extensions, "ORACLE_BUDGET", 100)
        # a census cached by an earlier test would spend nothing
        extensions._subgroup_census.cache_clear()
        start = time.perf_counter()
        code = main(["verify", "--suite", "oracle", "--max-order", "8"])
        captured = capsys.readouterr()
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert captured.out == ""
        assert captured.err == "error: subgroup enumeration budget exhausted\n"


class TestTableFileErrors:
    """An unreadable or malformed data file is a usage error (exit 2), never
    a failed verification (exit 1)."""

    @staticmethod
    def _malformed(tmp_path, monkeypatch):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "stable_stem", "params": {"n": 6}\n', encoding="utf-8")
        monkeypatch.setenv("FGAB_TABLES", str(path))

    def test_missing_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FGAB_TABLES", str(tmp_path / "missing.jsonl"))
        code = main(["compute", "--invariant", "pi-s0", "--k", "2", "--n", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_malformed_file_in_tables_verb(self, capsys, tmp_path, monkeypatch):
        self._malformed(tmp_path, monkeypatch)
        code = main(["tables"])
        captured = capsys.readouterr()
        assert code == 2
        assert "not valid JSON" in captured.err

    def test_malformed_file_is_not_a_surgery_violation(self, capsys, tmp_path, monkeypatch):
        self._malformed(tmp_path, monkeypatch)
        code = main(["verify", "--suite", "surgery"])
        captured = capsys.readouterr()
        assert code == 2
        assert "surgery-exactness" not in captured.out
        assert captured.err.startswith("error: ")


def _edit_record(tmp_path, monkeypatch, kind, params, edit):
    """Point FGAB_TABLES at a copy of the shipped data file in which `edit`
    changed the record (kind, params); return its "path:line"."""
    monkeypatch.delenv("FGAB_TABLES", raising=False)
    lines = Path(tables.data_path()).read_text(encoding="utf-8").splitlines()
    path = tmp_path / "tables.jsonl"
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec["kind"] == kind and rec["params"] == params:
            edit(rec)
            lines[i] = json.dumps(rec)
            where = f"{path}:{i + 1}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setenv("FGAB_TABLES", str(path))
    return where


class TestSequenceRecords:
    """The pi_s0_sequence records, edited in a copy of the shipped data file."""

    @staticmethod
    def _edit_n5(tmp_path, monkeypatch, edit):
        _edit_record(tmp_path, monkeypatch, "pi_s0_sequence", {"n": 5}, edit)

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda rec: rec.pop("quot"), tables.TableError, "lacks quot"),
            (lambda rec: rec["quot"][0].__setitem__(2, [1.5, -1]), tables.TableError,
             "multiplicity [1.5, -1] is not a pair [a, b] of integers"),
            (lambda rec: rec["quot"][0].__setitem__(2, ["1", -1]), tables.TableError,
             "multiplicity ['1', -1] is not a pair [a, b] of integers"),
            (lambda rec: rec["quot"][1].__setitem__(2, [0, -1]), tables.TableError,
             "record pi_s0_sequence {'n': 5}: multiplicity [0, -1] is negative at some k >= 1"),
            # 3 copies at k = 2, but -1 at k = 6: refused whatever k is asked
            (lambda rec: rec["quot"][0].__setitem__(2, [-1, 5]), tables.TableError,
             "record pi_s0_sequence {'n': 5}: multiplicity [-1, 5] is negative at some k >= 1"),
            (lambda rec: rec["quot"][1].__setitem__(0, "hopf_kernels"), tables.TableError,
             "record pi_s0_sequence {'n': 5}: quotient term ['hopf_kernels', 4, [0, 1]] "
             "names no group record"),
            (lambda rec: rec["filters"][0].__setitem__("no_element_of_order", "4"),
             tables.TableError, "record pi_s0_sequence {'n': 5}: filter "
             "{'no_element_of_order': '4'} has neither documented form"),
            (lambda rec: rec["filters"].__setitem__(0, {}), tables.TableError,
             "record pi_s0_sequence {'n': 5}: filter {} has neither documented form"),
            (lambda rec: rec["filters"].append({"localization_at": 3, "equals": [3]}),
             tables.TableError, "record pi_s0_sequence {'n': 5}: filter "
             "{'localization_at': 3, 'equals': [3]} has neither documented form"),
            (lambda rec: rec.__setitem__("sub", 10), tables.TableError,
             "record pi_s0_sequence {'n': 5}: sub 10 is neither null nor a pair [d, n]"),
            (lambda rec: rec["quot"][1].pop(), tables.TableError,
             "record pi_s0_sequence {'n': 5}: quotient term ['hopf_kernel', 4] "
             "is not [kind, n, [a, b]]"),
        ],
    )
    def test_malformed_record_fails_fast(
        self, capsys, tmp_path, monkeypatch, edit, error, message
    ):
        self._edit_n5(tmp_path, monkeypatch, edit)
        with pytest.raises(error, match=re.escape(message)):
            cohomotopy.pi_s0_connected_sum(2, 5)
        code = main(["compute", "--invariant", "pi-s0", "--k", "2", "--n", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_malformed_record_fails_every_lookup(self, capsys, tmp_path, monkeypatch):
        # the file is read and checked as a whole: n = 3 never reads the n = 5 record
        where = _edit_record(tmp_path, monkeypatch, "pi_s0_sequence", {"n": 5},
                             lambda rec: rec.__setitem__("sub", 10))
        code = main(["compute", "--invariant", "pi-s0", "--k", "2", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: {where}: record pi_s0_sequence {{'n': 5}}: "
                                "sub 10 is neither null nor a pair [d, n]\n")

    def test_shifted_multiplicity_fails_verification(self, capsys, tmp_path, monkeypatch):
        # k copies of pi_s^0(CP^4) in place of k-1: the k = 1 sequence no
        # longer accounts for the order of pi_s^0(CP^5)
        self._edit_n5(tmp_path, monkeypatch, lambda rec: rec["quot"][0].__setitem__(2, [1, 0]))
        code, out = run(capsys, "verify", "--suite", "tables")
        assert code == 1
        assert "violated: single-copy-order" in out
        assert "n=5: sequence forces order 48, table says 12" in out


class TestRecordFields:
    """The group of a tabulated record, and the fields a KO or PL/O row is
    built from, edited in a copy of the shipped data file: a malformed one
    ends in one error: line that names the record, never a traceback."""

    PI_S0 = ["compute", "--invariant", "pi-s0", "--k", "2", "--n", "5"]
    KO = ["compute", "--invariant", "ko", "--s", "0", "--k", "2", "--n", "5"]
    KO_CASE = "record ko_cp_case {'s': 0, 'q': 1}: "

    @pytest.mark.parametrize(
        "kind, params, edit, argv, message",
        [
            ("stable_stem", {"n": 10}, lambda rec: rec.__setitem__("group", [2]), PI_S0,
             "{where}: record stable_stem {'n': 10}: group [2] is not "
             "{'rank': r, 'torsion': [d, ...]}"),
            ("wall_group", {"i_mod_4": 2}, lambda rec: rec.__setitem__("group", "Z_2"),
             ["tables"], "{where}: record wall_group {'i_mod_4': 2}: group 'Z_2' is not"),
            ("stable_stem", {"n": 10}, lambda rec: rec.pop("group"), PI_S0,
             "record stable_stem {'n': 10} has no group"),
            ("ko_cp_case", {"s": 0, "q": 1}, lambda rec: rec["generators"].__setitem__(0, 3),
             KO, KO_CASE + "generator 3 has neither documented form"),
            ("ko_cp_case", {"s": 0, "q": 1}, lambda rec: rec.__setitem__("torsion", ["x"]),
             KO, KO_CASE + "KO torsion {'rank': 0, 'torsion': ['x']} is not"),
            ("ko_cp_case", {"s": 0, "q": 1}, lambda rec: rec["generators"].pop(),
             KO, KO_CASE + "basis lists 2 classes for a group with 3 summands"),
            # KO^-1(CP^n) has no free part: H^odd(CP^n; Q) = 0
            ("ko_cp_case", {"s": 1, "q": 0}, lambda rec: rec.__setitem__("rank", [0, 1]),
             ["compute", "--invariant", "ko", "--s", "1", "--k", "2", "--n", "4"],
             "record ko_cp_case {'s': 1, 'q': 0}: free rank [0, 1] (a*m + b at n = 4m + q) "
             "is not the rational Atiyah-Hirzebruch count [0, 0]"),
            ("pl_over_o", {"n": 5}, lambda rec: rec.pop("torsion"),
             ["compute", "--invariant", "pl-o", "--k", "2", "--n", "5"],
             "record pl_over_o {'n': 5}: runs None are not a list"),
            ("pl_over_o", {"n": 5}, lambda rec: rec["torsion"][0].__setitem__(1, [-1, 5]),
             ["compute", "--invariant", "pl-o", "--k", "2", "--n", "5"],
             "record pl_over_o {'n': 5}: multiplicity [-1, 5] is negative at some k >= 1"),
        ],
    )
    def test_malformed_field_names_its_record(
        self, capsys, tmp_path, monkeypatch, kind, params, edit, argv, message
    ):
        where = _edit_record(tmp_path, monkeypatch, kind, params, edit)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message.replace("{where}", where) in captured.err

    def test_missing_external_flag_means_false(self, capsys, tmp_path, monkeypatch):
        _edit_record(tmp_path, monkeypatch, "pl_over_o", {"n": 3}, lambda rec: rec.pop("external"))
        code, out = run(capsys, "compute", "--invariant", "pl-o", "--k", "2", "--n", "3", "--json")
        assert code == 0 and json.loads(out)["external"] is False


class TestTablesVerb:
    def test_kind_filter(self, capsys):
        code, out = run(capsys, "tables", "--kind", "wall_group")
        assert code == 0
        assert out.count("wall_group(") == 4

    def test_unknown_kind(self, capsys):
        code, _ = run(capsys, "tables", "--kind", "nope")
        assert code == 2

    def test_json_lines(self, capsys):
        code, out = run(capsys, "tables", "--kind", "stable_stem", "--json")
        assert code == 0
        for line in out.strip().splitlines():
            rec = json.loads(line)
            assert rec["citation"]


class TestUsageErrors:
    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compute", "--invariant", "pi-s0", "--k", "1", "--n", "4", "--bogus"])
        assert info.value.code == 2

    def test_env_override_reaches_cli(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "tables.jsonl"
        path.write_text(
            json.dumps(
                {
                    "kind": "wall_group",
                    "params": {"i_mod_4": 0},
                    "group": {"rank": 0, "torsion": [7]},
                    "citation": "fixture",
                    "external": False,
                }
            )
            + "\n",
            encoding="utf-8",
        )
        monkeypatch.setenv("FGAB_TABLES", str(path))
        code, out = run(capsys, "tables", "--kind", "wall_group")
        assert code == 0
        assert "Z_7" in out

    def test_oversized_input_refused_at_once(self, capsys):
        start = time.perf_counter()
        code = main(
            ["compute", "--invariant", "ko", "--s", "0", "--k", "1000000000", "--n", "8"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert captured.out == ""
        assert "exceeds the limit" in captured.err
        code = main(["report", "--sequence", "surgery", "--k", "1000000000", "--n", "5"])
        assert code == 2
        assert "exceeds the limit" in capsys.readouterr().err

    def test_size_limit_is_on_k_times_n(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_K_TIMES_N", 12)
        code, _ = run(capsys, "compute", "--invariant", "pi-s0", "--k", "4", "--n", "3")
        assert code == 0
        code, _ = run(capsys, "compute", "--invariant", "pi-s0", "--k", "5", "--n", "3")
        assert code == 2
        code, _ = run(capsys, "report", "--sequence", "surgery", "--k", "3", "--n", "4")
        assert code == 0
        code, _ = run(capsys, "report", "--sequence", "surgery", "--k", "4", "--n", "4")
        assert code == 2

    def test_programming_error_is_not_a_usage_error(self, capsys, monkeypatch):
        # only refusals become exit 2: a bug inside a verb keeps its traceback
        def broken(k, n):
            raise TypeError("bug")

        monkeypatch.setattr(cohomotopy, "pi_s0_connected_sum", broken)
        with pytest.raises(TypeError, match="bug"):
            main(["compute", "--invariant", "pi-s0", "--k", "2", "--n", "4"])
        assert capsys.readouterr().err == ""


# Exact `--json` payloads, one per invariant plus one report, so that any
# change to the serialised schema or values shows up as a failing test.
PINNED_COMPUTE = {
    ("pi-s0", "--k", "2", "--n", "8"): {
        "ambiguous": [
            {"rank": 0, "torsion": [2, 2, 2, 2, 2, 2]},
            {"rank": 0, "torsion": [2, 2, 2, 2, 4]},
        ],
        "citations": [
            "0 -> pi_16^s/im((Sigma h)^*) -> pi_s^0(#_k CP^8) -> "
            "sum_(k-1) pi_s^0(CP^7) + ker(h^*) -> 0",
            "the n = 8 sequence is not known to split; both middle terms are reported",
        ],
        "invariant": "pi-s0", "k": 2, "n": 8,
    },
    ("ko", "--s", "0", "--k", "2", "--n", "5"): {
        "basis": ["q*(eta_2^1)", "q*(eta_2^2)", "eta_1^1", "eta_1^2", "q*(eta_2^3)"],
        "citations": [
            "KO^0 of the connected sum: free classes eta^j from each summand plus "
            "an order-2 class per summand of dimension 4m+1 (on the distinguished "
            "copy) or 4m+2 (on each of the other k-1 copies)"
        ],
        "invariant": "ko", "k": 2, "n": 5, "rank": 4,
        "relations": ["2*q*(eta_2^3) = 0"], "s": 0, "torsion": [2],
    },
    ("k0", "--k", "2", "--n", "3"): {
        "basis": ["d*(omega)", "eta_1^1", "eta_1^2", "eta_2^1", "eta_2^2"],
        "citations": [
            "K^0 of the connected sum is free on one class per even cell: rank k(n-1)+1"
        ],
        "invariant": "k0", "k": 2, "n": 3, "rank": 5, "torsion": [],
    },
    ("k-1", "--k", "2", "--n", "3"): {
        "citations": [
            "K^-1 of the connected sum vanishes: K^-1 of spheres of even dimension "
            "and of CP^(n-1) both vanish"
        ],
        "invariant": "k-1", "k": 2, "n": 3, "rank": 0, "torsion": [],
    },
    ("f-o", "--k", "2", "--n", "5"): {
        "citations": [
            "0 -> pi_10^s/im((Sigma h)^*) -> pi_s^0(#_k CP^5) -> "
            "sum_(k-1) pi_s^0(CP^4) + ker(h^*) -> 0",
            "splits: the PL-normal-invariant comparison shows the torsion contains no Z_4",
            "[X, F/O] = pi_s^0(X) + Z^(k*floor(n/2)) for n odd, "
            "pi_s^0(X) + Z^(k*floor((n-1)/2)+1) for n even",
        ],
        "decomposition": {
            "free_rank": 4,
            "free_source": "free part of KO^0 (the kernel of the map to spherical fibrations)",
            "torsion": {"rank": 0, "torsion": [2, 2, 2, 6]},
            "torsion_source": "stable cohomotopy pi_s^0 of the connected sum",
        },
        "invariant": "f-o", "k": 2, "n": 5, "rank": 4, "torsion": [2, 2, 2, 6],
    },
    ("f-pl", "--k", "2", "--n", "4"): {
        "citations": [
            "[X, F/PL] = prod of L_{2j} over the even cells of X: "
            "Z per 4j-cell, Z_2 per (4j+2)-cell"
        ],
        "invariant": "f-pl", "k": 2, "n": 4, "rank": 3, "torsion": [2, 2],
    },
    ("pl-o", "--k", "2", "--n", "7"): {
        "citations": [
            "[#_k CP^7, PL/O] = Z_2^(k+1) + Z_3^(k-1): index-2 subgroup of the "
            "stable cohomotopy group, isomorphic on odd torsion"
        ],
        "external": True,
        "invariant": "pl-o", "k": 2, "n": 7, "rank": 0, "torsion": [2, 2, 6],
    },
    ("structure-set", "--k", "1", "--n", "5"): {
        "citations": [
            "0 -> pi_10^s/im((Sigma h)^*) -> pi_s^0(#_k CP^5) -> "
            "sum_(k-1) pi_s^0(CP^4) + ker(h^*) -> 0",
            "splits: the PL-normal-invariant comparison shows the torsion contains no Z_4",
            "[#_k CP^5, PL/O] = Z_2^(k+1) + Z_3 (connected-sum smoothing computation)",
            "im(eta: S^t_Diff(#_k CP^5) -> N^t_Diff) = Z_2^(2k-1); "
            "the obstruction map to L_10 is nonzero",
        ],
        "derivation": "out of domain at k = 1",
        "exotic_count": None,
        "image_of_eta": {"rank": 0, "torsion": [2]},
        "invariant": "structure-set", "k": 1, "n": 5,
        "note": "the 2^(k-2) count applies for k >= 2 only; no count is asserted at k = 1",
        "pl_group": {"rank": 0, "torsion": [2, 6]},
        "rank": 0, "torsion": [2],
    },
}

PINNED_REPORT = {
    "citations": [
        "0 -> pi_10^s/im((Sigma h)^*) -> pi_s^0(#_k CP^5) -> "
        "sum_(k-1) pi_s^0(CP^4) + ker(h^*) -> 0",
        "splits: the PL-normal-invariant comparison shows the torsion contains no Z_4",
        "the PL comparison over S^10 shows the obstruction is nonzero",
        "the odd Wall group vanishes, so eta is injective",
    ],
    "eta_injective": True,
    "even_wall": {"rank": 0, "torsion": [2]},
    "image_of_eta": {"rank": 0, "torsion": [2, 2, 2]},
    "k": 2, "n": 5,
    "normal_invariants": {"rank": 0, "torsion": [2, 2, 2, 6]},
    "obstruction_image_order": 2,
    "obstruction_status": "nonzero",
    "odd_wall": {"rank": 0, "torsion": []},
}

# the cohomotopy citations of pi_s^0(#_k CP^n), which both payloads lead with
PI_S0_CITATIONS = {
    3: ["0 -> pi_6^s -> pi_s^0(#_k CP^3) -> 0"],
    4: [
        "0 -> pi_8^s/Z_2 -> pi_s^0(#_k CP^4) -> sum_k pi_s^0(CP^3) -> 0",
        "splits: the group is covered by k copies of pi_s^0(CP^4) = Z_2^2, "
        "so it has no element of order 4",
    ],
    6: [
        "0 -> pi_12^s/im((Sigma h)^*) -> pi_s^0(#_k CP^6) -> "
        "sum_(k-1) pi_s^0(CP^5) + ker(h^*) -> 0",
    ],
    7: [
        "0 -> pi_14^s/im((Sigma h)^*) -> pi_s^0(#_k CP^7) -> "
        "sum_(k-1) pi_s^0(CP^6) + ker(h^*) -> 0",
        "splits: 3-localization is Z_3^(k-1), and surjectivity from k "
        "copies of Z_2^3 rules out order-4 elements",
    ],
}
ETA_ISO = "eta: S^t_Diff -> N^t_Diff is an isomorphism for n = 3, 4, 6"
COUNT_ZERO = (
    "eta is an isomorphism and every tangential homotopy equivalence is "
    "realized by a homeomorphism: count 0"
)

# `compute --invariant structure-set --k 2 --n <n> --json`
PINNED_STRUCTURE_SET_K2 = {
    3: {
        "citations": PI_S0_CITATIONS[3] + [
            "[#_k CP^3, PL/O] = 0: PL/O is 6-connected and the complex is "
            "6-dimensional, so there is a unique concordance smoothing",
            ETA_ISO,
        ],
        "derivation": COUNT_ZERO,
        "exotic_count": 0,
        "image_of_eta": {"rank": 0, "torsion": [2]},
        "invariant": "structure-set", "k": 2, "n": 3,
        "pl_group": {"rank": 0, "torsion": []},
        "rank": 0, "torsion": [2],
    },
    4: {
        "citations": PI_S0_CITATIONS[4] + [
            "[#_k CP^4, PL/O] = Z_2: PL/O is 6-connected with pi_7 = Z_28 and "
            "pi_8 = Z_2; the complex has one 8-cell and no 7-cells",
            ETA_ISO,
        ],
        "derivation": "half of the smooth structure set: |S^t_Diff| / 2 = 2^k",
        "exotic_count": 4,
        "image_of_eta": {"rank": 0, "torsion": [2, 2, 2]},
        "invariant": "structure-set", "k": 2, "n": 4,
        "pl_group": {"rank": 0, "torsion": [2]},
        "rank": 0, "torsion": [2, 2, 2],
    },
    6: {
        "citations": PI_S0_CITATIONS[6] + [
            "[#_k CP^6, PL/O] = Z_2^(2k-1) + Z_3^k, isomorphic to the 0th "
            "stable cohomotopy of the connected sum",
            ETA_ISO,
        ],
        "derivation": COUNT_ZERO,
        "exotic_count": 0,
        "image_of_eta": {"rank": 0, "torsion": [2, 6, 6]},
        "invariant": "structure-set", "k": 2, "n": 6,
        "pl_group": {"rank": 0, "torsion": [2, 6, 6]},
        "rank": 0, "torsion": [2, 6, 6],
    },
    7: {
        "citations": PI_S0_CITATIONS[7] + [
            "[#_k CP^7, PL/O] = Z_2^(k+1) + Z_3^(k-1): index-2 subgroup of the "
            "stable cohomotopy group, isomorphic on odd torsion",
            "im(eta: S^t_Diff(#_k CP^7) -> N^t_Diff) is isomorphic to "
            "S^t_PL(#_k CP^7)",
        ],
        "derivation": "im(eta) is isomorphic to the PL tangential smoothing set, "
        "so every smooth class is PL-realized: count 0",
        "exotic_count": 0,
        "image_of_eta": {"rank": 0, "torsion": [2, 2, 6]},
        "invariant": "structure-set", "k": 2, "n": 7,
        "pl_group": {"rank": 0, "torsion": [2, 2, 6]},
        "rank": 0, "torsion": [2, 2, 6],
    },
}

ETA_INJECTIVE = "the odd Wall group vanishes, so eta is injective"

# `report --sequence surgery --k 2 --n <n> --json`
PINNED_REPORT_K2 = {
    3: {
        "citations": PI_S0_CITATIONS[3] + [
            "the obstruction map out of k copies of pi_s^0(CP^3) vanishes",
            ETA_INJECTIVE,
        ],
        "eta_injective": True,
        "even_wall": {"rank": 0, "torsion": [2]},
        "image_of_eta": {"rank": 0, "torsion": [2]},
        "k": 2, "n": 3,
        "normal_invariants": {"rank": 0, "torsion": [2]},
        "obstruction_image_order": 1,
        "obstruction_status": "zero",
        "odd_wall": {"rank": 0, "torsion": []},
    },
    4: {
        "citations": PI_S0_CITATIONS[4] + [
            "the obstruction map out of k copies of pi_s^0(CP^4) vanishes",
            ETA_INJECTIVE,
        ],
        "eta_injective": True,
        "even_wall": {"rank": 1, "torsion": []},
        "image_of_eta": {"rank": 0, "torsion": [2, 2, 2]},
        "k": 2, "n": 4,
        "normal_invariants": {"rank": 0, "torsion": [2, 2, 2]},
        "obstruction_image_order": 1,
        "obstruction_status": "zero",
        "odd_wall": {"rank": 0, "torsion": []},
    },
    6: {
        "citations": PI_S0_CITATIONS[6] + [
            "eta is an isomorphism, so every normal invariant has zero obstruction",
            ETA_INJECTIVE,
        ],
        "eta_injective": True,
        "even_wall": {"rank": 1, "torsion": []},
        "image_of_eta": {"rank": 0, "torsion": [2, 6, 6]},
        "k": 2, "n": 6,
        "normal_invariants": {"rank": 0, "torsion": [2, 6, 6]},
        "obstruction_image_order": 1,
        "obstruction_status": "zero",
        "odd_wall": {"rank": 0, "torsion": []},
    },
    7: {
        "citations": PI_S0_CITATIONS[7] + [
            "the single-copy obstruction map to L_14 is a nonzero homomorphism "
            "and the wedge-quotient map is surjective",
            ETA_INJECTIVE,
        ],
        "eta_injective": True,
        "even_wall": {"rank": 0, "torsion": [2]},
        "image_of_eta": {"rank": 0, "torsion": [2, 2, 6]},
        "k": 2, "n": 7,
        "normal_invariants": {"rank": 0, "torsion": [2, 2, 2, 6]},
        "obstruction_image_order": 2,
        "obstruction_status": "nonzero-homomorphism",
        "odd_wall": {"rank": 0, "torsion": []},
    },
}


class TestPinnedPayloads:
    @pytest.mark.parametrize("args", list(PINNED_COMPUTE), ids=lambda a: a[0])
    def test_compute_json(self, capsys, args):
        code, out = run(capsys, "compute", "--invariant", *args, "--json")
        assert code == 0
        assert json.loads(out) == PINNED_COMPUTE[args]

    def test_report_json(self, capsys):
        code, out = run(
            capsys, "report", "--sequence", "surgery", "--k", "2", "--n", "5", "--json"
        )
        assert code == 0
        assert json.loads(out) == PINNED_REPORT

    @pytest.mark.parametrize("n", list(PINNED_STRUCTURE_SET_K2))
    def test_structure_set_json_k2(self, capsys, n):
        code, out = run(
            capsys, "compute", "--invariant", "structure-set", "--k", "2", "--n", str(n), "--json"
        )
        assert code == 0
        assert json.loads(out) == PINNED_STRUCTURE_SET_K2[n]

    @pytest.mark.parametrize("n", list(PINNED_REPORT_K2))
    def test_report_json_k2(self, capsys, n):
        code, out = run(
            capsys, "report", "--sequence", "surgery", "--k", "2", "--n", str(n), "--json"
        )
        assert code == 0
        assert json.loads(out) == PINNED_REPORT_K2[n]


class TestHugeIntegers:
    @pytest.mark.parametrize("n", ["4", "5"])
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_exotic_count_too_long_to_print(self, capsys, n, mode):
        # 2^20000 has over 6,000 digits, past Python's int-to-str limit
        code = main(["compute", "--invariant", "structure-set", "--k", "20000", "--n", n, *mode])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("--sub", '{"rank":0,"torsion":[1208925819614629174706189]}',
             "--quot", '{"rank":0,"torsion":[2]}'),
            ("--sub", '{"rank":0,"torsion":[2]}', "--quot", '{"rank":0,"torsion":[2]}',
             "--localized", "1208925819614629174706189", '{"rank":0,"torsion":[]}'),
        ],
        ids=["invariant-factor", "localized-prime"],
    )
    def test_factor_past_trial_division_refused(self, argv):
        # trial division of 2^80 + 13 would not finish; a child
        # process with a timeout fails this test instead of hanging it
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cpsums.cli", "classify-extension", *argv],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"exceeds the limit {cli.MAX_FACTOR}" in proc.stderr

    def test_oversized_extension_refused(self):
        # about 10**5 shapes of 56 cells in the dominance interval; the LR
        # route stops at its work limit before any tableau test
        group = '{"rank":0,"torsion":[2,4,8,16,32,64,128]}'
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cpsums.cli", "classify-extension",
             "--sub", group, "--quot", group],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_largest_admitted_sequence_is_within_the_work_limit(self, capsys):
        # k*n = 10**6, the CLI's limit: two shapes of 375,000 cells at p = 2
        assert main(["compute", "--invariant", "pi-s0", "--k", "125000", "--n", "8"]) == 0
        assert "ambiguous between" in capsys.readouterr().out
