"""Tabulated data: values, range errors, citations, data-file errors."""

import json
import os
import re
from pathlib import Path

import pytest

from cpsums import tables
from cpsums.cohomotopy import pi_s0_connected_sum
from cpsums.fgab import FgAbGroup
from cpsums.ktheory import ko_group
from cpsums.surgery import structure_set
from cpsums.tables import (
    GeneratorLabel,
    Result,
    TableError,
    UntabulatedDegree,
    ko_single_cp,
    pl_over_o_entry,
)

Z2 = FgAbGroup.cyclic(2)


class TestStableStems:
    def test_values(self):
        assert tables.stable_stem(6) == Z2
        assert tables.stable_stem(8) == FgAbGroup(0, (2, 2))
        assert tables.stable_stem(10) == FgAbGroup.cyclic(6)
        assert tables.stable_stem(14) == FgAbGroup(0, (2, 2))
        assert tables.stable_stem(16) == FgAbGroup(0, (2, 2))

    def test_untabulated_degrees_error(self):
        for n in (7, 12, 17):
            with pytest.raises(UntabulatedDegree):
                tables.stable_stem(n)

    def test_two_local_thirteen_stem(self):
        assert tables.stable_stem_localized(13, 2) == FgAbGroup.zero()
        assert tables.stable_stem(13) == FgAbGroup.cyclic(3)


class TestSingleCopyCohomotopy:
    def test_values(self):
        assert tables.pi_s0_single_cp(3) == Z2
        assert tables.pi_s0_single_cp(5) == FgAbGroup.from_cyclic_orders(2, 2, 3)
        assert tables.pi_s0_single_cp(7) == FgAbGroup(0, (2, 2, 2))

    def test_range(self):
        for n in (2, 9):
            with pytest.raises(UntabulatedDegree):
                tables.pi_s0_single_cp(n)


class TestHopfData:
    def test_kernels(self):
        assert tables.hopf_kernel(5) == FgAbGroup.from_cyclic_orders(2, 3)
        assert tables.hopf_kernel(3) == Z2
        assert tables.hopf_kernel(7) == FgAbGroup(0, (2, 2))

    def test_images(self):
        assert tables.hopf_image_suspension(4) == Z2
        assert tables.hopf_image_suspension(5) == FgAbGroup.zero()
        assert tables.hopf_image_suspension(8) == Z2

    def test_image_sits_inside_stem(self):
        for n in range(3, 9):
            image = tables.hopf_image_suspension(n)
            if image.is_trivial:
                continue
            stem = tables.stable_stem(2 * n)
            assert stem.torsion_order() % image.torsion_order() == 0
            for p in (2, 3):
                assert image.p_socle_rank(p) <= stem.p_socle_rank(p)

    def test_untabulated(self):
        with pytest.raises(UntabulatedDegree):
            tables.hopf_kernel(8)


class TestWallGroups:
    def test_periodic_values(self):
        assert tables.wall_group(10) == Z2
        assert tables.wall_group(11) == FgAbGroup.zero()
        assert tables.wall_group(12) == FgAbGroup.free(1)
        assert tables.wall_group(13) == FgAbGroup.zero()
        assert tables.wall_group(14) == Z2

    def test_four_periodicity(self):
        for i in range(-4, 12):
            assert tables.wall_group(i) == tables.wall_group(i + 4)


class TestKoSingleCp:
    def test_minus_one_vanishes(self):
        for n in (1, 2, 5, 9, 12):
            assert ko_single_cp(1, n).group == FgAbGroup.zero()

    def test_minus_three_cases(self):
        assert ko_single_cp(3, 6).group == FgAbGroup.zero()  # 4m+2
        assert ko_single_cp(3, 10).group == FgAbGroup.zero()
        assert ko_single_cp(3, 7).group == Z2  # 4m+3
        assert ko_single_cp(3, 8).group == FgAbGroup.zero()

    def test_degree_zero_cases(self):
        assert ko_single_cp(0, 5).group == FgAbGroup(2, (2,))  # 4m+1: Z^2m + Z_2
        assert ko_single_cp(0, 9).group == FgAbGroup(4, (2,))
        assert ko_single_cp(0, 6).group == FgAbGroup.free(3)
        assert ko_single_cp(0, 4).group == FgAbGroup.free(2)
        assert ko_single_cp(0, 7).group == FgAbGroup.free(3)

    def test_minus_seven(self):
        assert ko_single_cp(7, 5).group == Z2  # 4m+1
        assert ko_single_cp(7, 6).group == FgAbGroup.zero()

    def test_spheres_specialization(self):
        # CP^1 is the 2-sphere; the closed forms extrapolate correctly
        expected = {0: Z2, 1: FgAbGroup.zero(), 2: FgAbGroup.free(1),
                    3: FgAbGroup.zero(), 4: FgAbGroup.zero(), 5: FgAbGroup.zero(),
                    6: FgAbGroup.free(1), 7: Z2}
        for s, g in expected.items():
            assert ko_single_cp(s, 1).group == g, s

    def test_generator_labels(self):
        e = ko_single_cp(0, 5)
        assert [str(g) for g in e.basis] == ["eta_1^1", "eta_1^2", "eta_1^3"]
        assert e.basis[-1].relation == "2*eta^3 = 0"
        e = ko_single_cp(2, 3)
        assert [str(g) for g in e.basis] == ["alpha*eta_1^0", "sigma_1"]
        assert e.basis[-1].relation == "2*sigma = alpha*eta^1"

    def test_generator_count_matches_group(self):
        for s in range(8):
            for n in range(1, 13):
                entry = ko_single_cp(s, n)
                if entry.basis:
                    assert len(entry.basis) == entry.group.ngens

    def test_range_errors(self):
        with pytest.raises(ValueError):
            ko_single_cp(8, 3)
        with pytest.raises(ValueError):
            ko_single_cp(0, 0)

    def test_external_flag(self):
        assert ko_single_cp(0, 5).external is True


class TestPlOverO:
    def test_values(self):
        assert pl_over_o_entry(3, 3).group == FgAbGroup.zero()
        assert pl_over_o_entry(3, 4).group == Z2
        assert pl_over_o_entry(2, 5).group == FgAbGroup.from_primary({2: [1] * 3, 3: [1]})
        assert pl_over_o_entry(2, 6).group == FgAbGroup.from_primary({2: [1] * 3, 3: [1, 1]})

    def test_external_flags(self):
        assert pl_over_o_entry(2, 3).external
        assert pl_over_o_entry(2, 4).external
        assert not pl_over_o_entry(2, 5).external
        assert not pl_over_o_entry(2, 6).external
        assert pl_over_o_entry(2, 7).external

    def test_untabulated(self):
        with pytest.raises(UntabulatedDegree):
            pl_over_o_entry(2, 8)


class TestGeneratorLabel:
    def test_rendering(self):
        assert str(GeneratorLabel("eta", 3, 2)) == "eta_2^3"
        assert str(GeneratorLabel("eta", 3, 2, "q*")) == "q*(eta_2^3)"
        assert str(GeneratorLabel("omega", decoration="d*")) == "d*(omega)"
        assert str(GeneratorLabel("sigma", copy_index=4)) == "sigma_4"

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorLabel("eta", power=-1)
        with pytest.raises(ValueError):
            GeneratorLabel("eta", copy_index=0)
        with pytest.raises(ValueError):
            GeneratorLabel("eta", decoration="p*")

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            (("eta", -1), {"power": -1}, "power must be nonnegative"),
            (("eta", 1, 0), {"copy_index": 0}, "copy index starts at 1"),
            (("eta", 1, 1, "p*"), {"decoration": "p*"}, "unknown decoration 'p\\*'"),
        ],
    )
    def test_bad_field_messages(self, args, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeneratorLabel(*args)
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeneratorLabel("eta", **kwargs)
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeneratorLabel("eta", 1)._replace(**kwargs)

    def test_immutable(self):
        g = GeneratorLabel("eta", 3, 2, "q*", "2*eta^3 = 0")
        for name in ("symbol", "power", "copy_index", "decoration", "relation", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, 1)
        assert not hasattr(g, "__dict__")
        assert g == GeneratorLabel("eta", 3, 2, "q*", "2*eta^3 = 0")

    def test_record_round_trip_and_hash(self):
        labels = [
            GeneratorLabel("eta", 3, 2, "q*", "2*eta_2^3 = 0"),
            GeneratorLabel("omega", decoration="d*"),
            GeneratorLabel(symbol="sigma", copy_index=4, relation="2*sigma_4 = alpha*eta_4^3"),
        ]
        for g in labels:
            back = g._replace()
            assert back == g and type(back) is GeneratorLabel
            assert hash(back) == hash(g)
        assert GeneratorLabel("eta", 2) == GeneratorLabel(symbol="eta", power=2, copy_index=1)
        assert len({GeneratorLabel("eta", 2), GeneratorLabel(symbol="eta", power=2)}) == 1

    def test_equal_to_its_field_tuple(self):
        g = GeneratorLabel("eta", 3, 2, "q*")
        assert g == ("eta", 3, 2, "q*", None)
        assert (g.symbol, g.power, g.copy_index, g.decoration, g.relation) == tuple(g)


class TestEntryValidation:
    def test_entry_reads_its_record(self):
        assert tables.entry("stable_stem", n=10) == FgAbGroup.cyclic(6)
        with pytest.raises(TableError, match=r"pl_over_o \{'n': 7\} has no group \(parametric"):
            tables.entry("pl_over_o", n=7)

    def test_generator_count_enforced(self):
        labels = (GeneratorLabel("eta", 1), GeneratorLabel("eta", 2))
        with pytest.raises(ValueError, match="basis lists 2 classes for a group with 1 summands"):
            Result(1, 1, Z2, ("two labels on one summand",), basis=labels)


class TestCheckedOnce:
    def test_a_row_reads_no_record_again(self, monkeypatch):
        # one cohomotopy-table row: pi_s^0 for n = 3..8, the structure set
        # for n = 3..7; every record was read and checked at load
        monkeypatch.delenv(tables.DATA_ENV, raising=False)
        calls = {"from_json": 0, "_shape": 0}
        real_from_json, real_shape = FgAbGroup.from_json.__func__, tables._shape

        def from_json(cls, value):
            calls["from_json"] += 1
            return real_from_json(cls, value)

        def shape(value):
            calls["_shape"] += 1
            return real_shape(value)

        monkeypatch.setattr(FgAbGroup, "from_json", classmethod(from_json))
        monkeypatch.setattr(tables, "_shape", shape)

        def row(k):
            for n in range(3, 9):
                pi_s0_connected_sum(k, n)
            for n in range(3, 8):
                structure_set(k, n)

        row(2)
        calls.update(from_json=0, _shape=0)
        row(9)
        assert calls == {"from_json": 0, "_shape": 0}


class TestDataFileOverride:
    def test_env_var_override(self, tmp_path, monkeypatch):
        path = tmp_path / "tables.jsonl"
        path.write_text(
            json.dumps(
                {
                    "kind": "stable_stem",
                    "params": {"n": 6},
                    "group": {"rank": 0, "torsion": [4]},
                    "citation": "deliberately wrong fixture",
                    "external": False,
                }
            )
            + "\n",
            encoding="utf-8",
        )
        monkeypatch.setenv(tables.DATA_ENV, str(path))
        assert tables.stable_stem(6) == FgAbGroup.cyclic(4)
        with pytest.raises(UntabulatedDegree):
            tables.stable_stem(8)

    def test_override_read_after_default_cached(self, tmp_path, monkeypatch):
        monkeypatch.delenv(tables.DATA_ENV, raising=False)
        shipped = tables.data_path()
        path = tmp_path / "tables.jsonl"
        monkeypatch.setenv(tables.DATA_ENV, str(path))
        assert tables.data_path() == str(path)
        monkeypatch.delenv(tables.DATA_ENV)
        assert tables.data_path() == shipped

    def test_memoised_ko_entry_follows_the_data_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(tables.DATA_ENV, raising=False)
        shipped = ko_single_cp(0, 5)
        assert shipped.group == FgAbGroup(2, (2,))
        assert shipped.citations[0].startswith("Fujii: KO^0(CP^(4m+1))")
        assert ko_single_cp(0, 5) is shipped  # a second call reads the cache
        path = tmp_path / "tables.jsonl"
        path.write_text(
            json.dumps(
                {
                    "kind": "ko_cp_case",
                    "params": {"s": 0, "q": 1},
                    "rank": [2, 0],
                    "torsion": [4],
                    "generators": [
                        {"symbol": "eta", "j_from": [0, 1], "j_to": [2, 0]},
                        {"symbol": "eta", "j_from": [2, 1], "j_to": [2, 1],
                         "relation": "4*eta^{2m+1} = 0"},
                    ],
                    "citation": "deliberately wrong fixture",
                    "external": False,
                }
            )
            + "\n",
            encoding="utf-8",
        )
        monkeypatch.setenv(tables.DATA_ENV, str(path))
        fixture = ko_single_cp(0, 5)
        assert fixture.group == FgAbGroup(2, (4,))
        assert fixture.citations == ("deliberately wrong fixture",)
        assert fixture.basis[-1].relation == "4*eta^3 = 0"
        assert not fixture.external
        monkeypatch.delenv(tables.DATA_ENV)
        assert ko_single_cp(0, 5) == shipped
        assert ko_single_cp(0, 5).citations == shipped.citations

    def test_connected_sum_basis_follows_the_data_file(self, tmp_path, monkeypatch):
        # the memoised copy moves are keyed on the whole single-copy label,
        # its relation included, so another file's relation is moved anew
        monkeypatch.delenv(tables.DATA_ENV, raising=False)
        shipped = ko_group(2, 3, 7)
        lines = []
        for line in Path(tables.data_path()).read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if rec["kind"] == "ko_cp_case" and rec["params"] in ({"s": 2, "q": 2},
                                                                 {"s": 2, "q": 3}):
                for gen in rec["generators"]:
                    if "relation" in gen:
                        gen["relation"] = "2*sigma = alpha*eta^{2m}"
                lines.append(json.dumps(rec))
        path = tmp_path / "tables.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setenv(tables.DATA_ENV, str(path))
        fixture = ko_group(2, 3, 7)
        assert [str(b) for b in fixture.basis] == [str(b) for b in shipped.basis]
        assert [b.relation for b in shipped.basis if b.relation] == ["2*sigma_3 = alpha*eta_3^3"]
        assert [b.relation for b in fixture.basis if b.relation] == ["2*sigma_3 = alpha*eta_3^2"]
        monkeypatch.delenv(tables.DATA_ENV)
        assert ko_group(2, 3, 7) == shipped

    def test_large_ko_entries_are_not_kept(self, monkeypatch):
        monkeypatch.delenv(tables.DATA_ENV, raising=False)
        assert ko_single_cp(0, 1024) is ko_single_cp(0, 1024)
        big = ko_single_cp(0, 1025)
        assert big is not ko_single_cp(0, 1025)
        assert big == ko_single_cp(0, 1025) and len(big.basis) == 513

    def test_citationless_file_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {
                    "kind": "stable_stem",
                    "params": {"n": 6},
                    "group": {"rank": 0, "torsion": [2]},
                    "citation": "",
                }
            )
            + "\n",
            encoding="utf-8",
        )
        monkeypatch.setenv(tables.DATA_ENV, str(path))
        with pytest.raises(TableError):
            tables.stable_stem(6)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"params": {"n": 6}, "group": {"rank": 0, "torsion": [2]}, "citation": "c"}',
             "needs a string 'kind'"),
            ('{"kind": "stable_stem", "group": {"rank": 0, "torsion": [2]}, "citation": "c"}',
             "object 'params'"),
            ('[1, 2]', "expected a JSON object"),
            ('"stable_stem"', "expected a JSON object"),
            ('{"kind": "stable_stem", "params": {"n": "six"}, "citation": "c"}',
             "not an integer"),
            ('{"kind": "stable_stem", "params": {"n": 6.5}, "citation": "c"}',
             "not an integer"),
            ('{"kind": "stable_stem", "params": {"n": 6}, "group": [2], "citation": "c"}',
             r"record stable_stem \{'n': 6\}: group \[2\] is not"),
            ('{"kind": "stable_stem", "params": {"n": 6}, "group": "Z_2", "citation": "c"}',
             r"record stable_stem \{'n': 6\}: group 'Z_2' is not"),
            ('{"kind": "stable_stem", "params": {"n": 6}, "group": {"rank": true, "torsion": []},'
             ' "citation": "c"}', "'rank': True, 'torsion': .* in canonical form"),
            ('{"kind": "stable_stem", "params": {"n": 6}, "group": {"rank": 0, "torsion": [3, 2]},'
             ' "citation": "c"}', "'torsion': \\[3, 2\\]} is not .* in canonical form"),
        ],
    )
    def test_malformed_record_refused(self, tmp_path, monkeypatch, line, message):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(
            {
                "kind": "stable_stem",
                "params": {"n": 8},
                "group": {"rank": 0, "torsion": [2, 2]},
                "citation": "fixture",
            }
        )
        path.write_text(good + "\n" + line + "\n", encoding="utf-8")
        monkeypatch.setenv(tables.DATA_ENV, str(path))
        with pytest.raises(TableError, match=re.escape(f"{path}:2: ") + ".*" + message):
            tables.stable_stem(8)

    def test_every_shipped_record_has_citation(self):
        assert os.environ.get(tables.DATA_ENV) is None
        for rec in tables.all_raw_records():
            assert rec["citation"].strip()
