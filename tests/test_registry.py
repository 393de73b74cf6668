"""Built-in block table, extension, and JSON persistence."""

import json
import sys

import pytest

from newform_products.elliptic import an_expansion, curve_from_quintuple
from newform_products.errors import SchemaViolation, TableMismatch
from newform_products.products import block_profile, extract_exponents
from newform_products.registry import (
    BlockRecord,
    builtin_table1,
    extend_block,
    load_registry,
    record_for,
    save_registry,
)


class TestBuiltinTable:
    def test_seventeen_rows(self):
        recs = builtin_table1()
        assert len(recs) == 17
        assert [r.conductor for r in recs] == sorted(r.conductor for r in recs)

    def test_all_rows_self_consistent(self):
        # every printed row reproduces from its first curve by extraction
        for rec in builtin_table1():
            f = an_expansion(
                curve_from_quintuple(rec.curves[0]), rec.t_check * 12 + 2
            )
            profile = block_profile(extract_exponents(f), rec.r_check, rec.t_check)
            assert profile.a[:12] == rec.a_printed, rec.conductor

    def test_record_for(self):
        assert record_for(37).r_check == 2
        assert record_for(2) is None

    def test_two_curve_rows(self):
        doubled = {N for N in (243, 256, 288, 675, 2304)}
        for rec in builtin_table1():
            assert (len(rec.curves) == 2) == (rec.conductor in doubled)


class TestExtension:
    def test_extend_row_36_all_ones(self):
        rec = extend_block(record_for(36), 40)
        assert rec.a_extended == (1,) * 40

    def test_extend_row_37(self):
        rec = extend_block(record_for(37), 20)
        assert rec.a_extended[:12] == rec.a_printed
        assert len(rec.a_extended) == 20

    def test_extend_row_101_keeps_zero_head(self):
        rec = extend_block(record_for(101), 15)
        assert rec.a_extended[0] == 0

    def test_contradiction_is_fatal(self):
        rec = record_for(43)
        bad = BlockRecord(
            conductor=43,
            curves=rec.curves,
            r_check=rec.r_check,
            t_check=rec.t_check,
            a_printed=(99,) + rec.a_printed[1:],
        )
        with pytest.raises(TableMismatch):
            extend_block(bad, 12)

    def test_minimum_target(self):
        with pytest.raises(ValueError):
            extend_block(record_for(36), 5)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        recs = [extend_block(record_for(36), 20), record_for(37)]
        path = tmp_path / "registry.json"
        save_registry(recs, path)
        back = load_registry(path)
        assert back == recs
        assert back[0].a_extended == recs[0].a_extended

    def test_big_integers_survive(self, tmp_path):
        rec = BlockRecord(
            conductor=37,
            curves=((0, 0, 1, -1, 0),),
            r_check=2,
            t_check=1,
            a_printed=(10**40, 2, 3, 8, 16, 41, 97, 242, 598, 1532, 3898, 10067),
        )
        path = tmp_path / "big.json"
        save_registry([rec], path)
        assert load_registry(path)[0].a_printed[0] == 10**40

    def test_integers_past_the_str_digit_cap_survive(self, tmp_path):
        # 5,000 digits, past CPython's default 4,300-digit int/str cap
        digits = "1" + "0" * 4998 + "7"
        big = 10**4999 + 7
        rec = BlockRecord(37, ((0, 0, 1, -1, 0),), 2, 1, record_for(37).a_printed, (big, 2))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        path = tmp_path / "huge.json"
        save_registry([rec], path)
        assert f'"{digits}"' in path.read_text()
        assert load_registry(path) == [rec]
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        save_registry([record_for(36)], path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(SchemaViolation):
            load_registry(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "missing.json"
        save_registry([record_for(36)], path)
        doc = json.loads(path.read_text())
        del doc["records"][0]["r_check"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaViolation):
            load_registry(path)

    def test_extra_field_preserved(self, tmp_path):
        rec = record_for(36)
        rec = BlockRecord(
            conductor=rec.conductor,
            curves=rec.curves,
            r_check=rec.r_check,
            t_check=rec.t_check,
            a_printed=rec.a_printed,
            extra={"note": "kept"},
        )
        path = tmp_path / "extra.json"
        save_registry([rec], path)
        assert load_registry(path)[0].extra.get("note") == "kept"
