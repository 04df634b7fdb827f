"""CLI behavior: verbs, flags, exit codes, JSON and text agreement."""

import json
import time

import pytest

from cpsums import cli
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
