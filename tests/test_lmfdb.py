"""Regression table of the formerly bundled LMFDB records: f_1..f_30 per conductor."""

from newform_products.elliptic import an_expansion, curve_from_quintuple
from newform_products.registry import builtin_table1, record_for

# f_1..f_30 of each table row's first curve, as recorded in the LMFDB
# fixture file this package once bundled.  Those records were generated by
# this code, so the table pins results against regressions; it is not an
# oracle (the Martin-Ono test in test_elliptic.py is the independent check).
RECORDED_PREFIX = {
    36: "1 0 0 0 0 0 -4 0 0 0 0 0 2 0 0 0 0 0 8 0 0 0 0 0 -5 0 0 0 0 0",
    37: "1 -2 -3 2 -2 6 -1 0 6 4 -5 -6 -2 2 6 -4 0 -12 0 -4 3 10 2 0 -1 4 -9 -2 6 -12",
    43: "1 -2 -2 2 -4 4 0 0 1 8 3 -4 -5 0 8 -4 -3 -2 -2 -8 0 -6 -1 0 11 10 4 0 -6 -16",
    53: "1 -1 -3 -1 0 3 -4 3 6 0 0 3 -3 4 0 -1 -3 -6 -5 0 12 0 7 -9 -5 3 -9 4 -7 0",
    61: "1 -1 -2 -1 -3 2 1 3 1 3 -5 2 1 -1 6 -1 4 -1 -4 3 -2 5 -9 -6 4 -1 4 -1 -6 -6",
    79: "1 -1 -1 -1 -3 1 -1 3 -2 3 -2 1 3 1 3 -1 -6 2 4 3 1 2 2 -3 4 -3 5 1 -6 -3",
    83: "1 -1 -1 -1 -2 1 -3 3 -2 2 3 1 -6 3 2 -1 5 2 2 2 3 -3 -4 -3 -1 6 5 3 -7 -2",
    88: "1 0 -3 0 -3 0 -2 0 6 0 -1 0 0 0 9 0 -6 0 4 0 6 0 1 0 4 0 -9 0 -8 0",
    89: "1 -1 -1 -1 -1 1 -4 3 -2 1 -2 1 2 4 1 -1 3 2 -5 1 4 2 7 -3 -4 -2 5 4 0 -1",
    92: "1 0 -3 0 -2 0 -4 0 6 0 2 0 -5 0 6 0 4 0 -2 0 12 0 1 0 -1 0 -9 0 -7 0",
    101: "1 0 -2 -2 -1 0 -2 0 1 0 -2 4 1 0 2 4 3 0 -5 2 4 0 1 0 -4 0 4 4 -4 0",
    243: "1 0 0 -2 0 0 -4 0 0 0 0 0 -7 0 0 4 0 0 -1 0 0 0 0 0 -5 0 0 8 0 0",
    256: "1 0 0 0 -4 0 0 0 -3 0 0 0 -4 0 0 0 -2 0 0 0 0 0 0 0 11 0 0 0 -4 0",
    288: "1 0 0 0 -4 0 0 0 0 0 0 0 -6 0 0 0 -8 0 0 0 0 0 0 0 11 0 0 0 4 0",
    389: "1 -2 -2 2 -3 4 -5 0 1 6 -4 -4 -3 10 6 -4 -6 -2 5 -6 10 8 -4 0 4 6 4 -10 -6 -12",
    675: "1 0 0 -2 0 0 -4 0 0 0 0 0 5 0 0 4 0 0 8 0 0 0 0 0 0 0 0 8 0 0",
    2304: "1 0 0 0 -4 0 0 0 0 0 0 0 4 0 0 0 2 0 0 0 0 0 0 0 11 0 0 0 -4 0",
}

def _recorded(conductor):
    return tuple(int(v) for v in RECORDED_PREFIX[conductor].split())


def _first_curve_prefix(conductor):
    curve = curve_from_quintuple(record_for(conductor).curves[0])
    return an_expansion(curve, 31).coeffs[1:]


class TestFetch:
    def test_fixture_fetch(self):
        assert record_for(37).curves[0] == (0, 0, 1, -1, 0)
        assert _recorded(37)[:10] == (1, -2, -3, 2, -2, 6, -1, 0, 6, 4)

    def test_all_table_labels_bundled(self):
        assert sorted(RECORDED_PREFIX) == sorted(rec.conductor for rec in builtin_table1())
        for conductor in RECORDED_PREFIX:
            assert len(_recorded(conductor)) == 30, conductor


class TestCrosscheck:
    def test_agreement(self):
        f = an_expansion(curve_from_quintuple((0, 0, 1, -1, 0)), 31)
        assert f.coeffs[1:] == _recorded(37)

    def test_all_fixtures_crosscheck(self):
        for rec in builtin_table1():
            assert _first_curve_prefix(rec.conductor) == _recorded(rec.conductor), rec.conductor
