"""Built-in block table and its extension."""

import pytest

from newform_products.elliptic import an_expansion, curve_from_quintuple
from newform_products.errors import TableMismatch
from newform_products.products import block_profile, extract_exponents
from newform_products.registry import (
    BlockRecord,
    builtin_table1,
    extend_block,
    record_for,
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
