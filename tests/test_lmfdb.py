"""Bundled fixture records: fetch, missing labels, crosscheck."""

import pytest

from newform_products.elliptic import curve_from_quintuple
from newform_products.errors import InsufficientData, NetworkUnavailable
from newform_products.lmfdb import RemoteRecord, crosscheck, fetch
from newform_products.registry import builtin_table1


class TestFetch:
    def test_fixture_fetch(self):
        rec = fetch("37.a", upto=30)
        assert rec.quintuple == (0, 0, 1, -1, 0)
        assert rec.coefficients[:10] == (1, -2, -3, 2, -2, 6, -1, 0, 6, 4)

    def test_all_table_labels_bundled(self):
        for reg in builtin_table1():
            rec = fetch(f"{reg.conductor}.a", upto=30)
            assert rec.quintuple == reg.curves[0], reg.conductor

    def test_offline_unknown_label_fails(self):
        with pytest.raises(NetworkUnavailable):
            fetch("11.a", upto=10)

    def test_offline_insufficient_fixture_depth_fails(self):
        with pytest.raises(NetworkUnavailable):
            fetch("37.a", upto=10_000)


class TestCrosscheck:
    def test_agreement(self):
        rec = fetch("37.a", upto=30)
        report = crosscheck(rec, curve_from_quintuple((0, 0, 1, -1, 0)), 30)
        assert report["ok"] and report["mismatches"] == []
        assert report["checked"] == 30

    def test_wrong_curve_reported(self):
        rec = fetch("37.a", upto=30)
        report = crosscheck(rec, curve_from_quintuple((0, 1, 1, 0, 0)), 30)
        assert not report["ok"]
        assert report["mismatches"]
        n, remote, local = report["mismatches"][0]
        assert remote != local

    def test_insufficient_data(self):
        rec = RemoteRecord(
            label="x",
            quintuple=(0, 0, 1, -1, 0),
            coefficients=(1, -2),
            fetched_at="",
            source_url="",
        )
        with pytest.raises(InsufficientData):
            crosscheck(rec, curve_from_quintuple((0, 0, 1, -1, 0)), 30)

    def test_all_fixtures_crosscheck(self):
        for reg in builtin_table1():
            rec = fetch(f"{reg.conductor}.a", upto=30)
            report = crosscheck(rec, curve_from_quintuple(reg.curves[0]), 30)
            assert report["ok"], (reg.conductor, report["mismatches"][:3])
