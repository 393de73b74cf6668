"""Command-line interface: output formats, exit codes, determinism."""

import csv
import importlib.util
import io
import json
import pathlib
from fractions import Fraction

import pytest

from newform_products import cli
from newform_products.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestAn:
    def test_plain(self):
        code, text = run("an", "--curve", "0,0,1,-1,0", "--order", "5")
        assert code == EXIT_OK
        assert "f_1 = 1" in text and "f_4 = 2" in text

    def test_json(self):
        code, text = run("an", "--curve", "0,0,1,-1,0", "--order", "11",
                         "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["command"] == "an"
        assert doc["results"]["coefficients"][:4] == ["1", "-2", "-3", "2"]
        assert doc["status"] == "ok"

    def test_csv(self):
        code, text = run("an", "--curve", "0,0,1,-1,0", "--order", "5",
                         "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["n", "f_n"]
        assert rows[1] == ["1", "1"]

    def test_singular_curve_exit_2(self, capsys):
        code, _ = run("an", "--curve", "0,0,0,0,0")
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_malformed_curve_exit_2(self):
        code, _ = run("an", "--curve", "1,2,3")
        assert code == EXIT_USAGE

    def test_multiplicative_at_2(self):
        # 14a: nonsplit at 2, split at 7; LMFDB 14.2.a.a
        code, text = run("an", "--curve", "1,0,1,4,-6", "--order", "14",
                         "--format", "json")
        assert code == EXIT_OK
        assert json.loads(text)["results"]["coefficients"] == [
            "1", "-1", "-2", "1", "0", "2", "1", "-1", "1", "0", "0", "-2", "-4"]

    def test_large_discriminant_returns(self):
        # the minimality check must not factor this ~38-digit discriminant
        code, text = run("an", "--curve", "0,0,0,1000000000039,1000000000061",
                         "--order", "5")
        assert code == EXIT_OK
        assert text.startswith("f_1 = 1\n") and text.count("\n") == 4

    def test_undecided_minimality_exit_2(self, capsys):
        # a6 = 10^100 + 267 is prime; trial division stops at 10^6
        code, text = run("an", "--curve", f"0,0,0,0,{10 ** 100 + 267}", "--order", "3")
        assert code == EXIT_USAGE and text == ""
        assert "trial-division bound 1000000" in capsys.readouterr().err

    def test_out_of_memory_exit_2(self, monkeypatch, capsys):
        # an --order too large for memory is a usage error, not a traceback;
        # the expansion is replaced, so nothing large is allocated
        def no_memory(curve, order):
            raise MemoryError

        monkeypatch.setattr(cli, "an_expansion", no_memory)
        code, text = run("an", "--curve", "0,0,0,0,1", "--order", "100000000000")
        assert code == EXIT_USAGE and text == ""
        assert capsys.readouterr().err.startswith("error: not enough memory")


class TestExponents:
    def test_block_inference_shown(self):
        code, text = run("exponents", "--curve", "0,0,0,0,1", "--order", "26")
        assert code == EXIT_OK
        assert "inferred (r, t) = (4, 6)" in text

    def test_violations_reported_not_fatal(self):
        # conductor 101: a_1 = 0 and an early plateau
        code, text = run("exponents", "--curve", "0,1,1,-1,-1", "--order", "14")
        assert code == EXIT_OK
        assert "violated" in text

    @pytest.mark.parametrize("order", ["0", "1", "2"])
    def test_order_below_minimum_exit_2(self, order, capsys):
        # order 2 used to exit 0 with "g": [] and a false diagnostic
        code, text = run("exponents", "--curve", "0,0,1,-1,0", "--order", order)
        assert code == EXIT_USAGE and text == ""
        assert "--order >= 3" in capsys.readouterr().err

    def test_minimum_order_computes_g1(self):
        code, text = run("exponents", "--curve", "0,0,1,-1,0", "--order", "3",
                         "--format", "json")
        assert code == EXIT_OK
        assert json.loads(text)["results"]["g"] == ["2"]


class TestTable1:
    def test_verify_all_rows(self):
        code, text = run("table1")
        assert code == EXIT_OK
        assert "17/17 PASS" in text

    def test_extend(self):
        code, text = run("table1", "--extend", "14")
        assert code == EXIT_OK
        assert "17/17 PASS" in text

    @pytest.mark.parametrize("extend", ["0", "11"])
    def test_extend_below_12_exit_2(self, extend, capsys):
        # 0 must not be read as "not given"
        code, text = run("table1", "--extend", extend)
        assert code == EXIT_USAGE and text == ""
        assert "must be >= 12" in capsys.readouterr().err

    @pytest.mark.parametrize("extend", ["0", "11"])
    def test_extend_below_12_exit_2_with_empty_registry(self, extend, tmp_path, capsys):
        # no record reaches the registry's own check, so the CLI makes it
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(
            {"format": "newform-block-registry", "version": 1, "records": []}))
        code, text = run("table1", "--registry", str(path), "--extend", extend)
        assert code == EXIT_USAGE and text == ""
        assert "must be >= 12" in capsys.readouterr().err


class TestTheta:
    def test_eta256(self):
        code, text = run("theta", "--verify-eta256", "--order", "30")
        assert code == EXIT_OK

    def test_eta256_rows_show_own_mismatch(self, monkeypatch):
        monkeypatch.setattr(cli, "verify_eta256_identities",
                            lambda order: (False, False, (Fraction(5), Fraction(11, 2))))
        code, text = run("theta", "--verify-eta256", "--order", "30")
        assert code == EXIT_VIOLATION
        assert text.splitlines() == [
            "FAIL  eta256 theta-form identity  first mismatch at 5",
            "FAIL  eta256 eta-quotient identity  first mismatch at 11/2",
        ]

    def test_e2(self):
        code, text = run("theta", "--verify-e2", "--order", "100")
        assert code == EXIT_OK

    @pytest.mark.parametrize("order", [0, 1])
    def test_e2_order_below_2_exit_2(self, order, capsys):
        # order 1 compares only the constant 1/24
        code, text = run("theta", "--verify-e2", "--order", str(order))
        assert code == EXIT_USAGE and text == ""
        assert "E2 check needs order >= 2" in capsys.readouterr().err

    def test_e2_minimum_order_accepted(self):
        code, text = run("theta", "--verify-e2", "--order", "2")
        assert code == EXIT_OK
        assert "ok    E2 logarithmic-derivative identity" in text

    @pytest.mark.parametrize("order", [0, 1])
    def test_triple_order_below_2_exit_2(self, order, capsys):
        # order 1 compares only the constant term
        code, text = run("theta", "--verify-triple", "--order", str(order))
        assert code == EXIT_USAGE and text == ""
        assert "triple-product check needs order >= 2" in capsys.readouterr().err

    def test_triple_minimum_order_accepted(self):
        code, text = run("theta", "--verify-triple", "--order", "2")
        assert code == EXIT_OK
        assert text.count("ok    triple-product") == 5


class TestSearch:
    def test_s1distinguished(self):
        code, text = run("search", "--blocks", "37", "--s", "1")
        assert code == EXIT_OK

    def test_bad_blocks_exit_2(self):
        code, _ = run("search", "--blocks", "2", "--s", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("max_r", ["0", "-1"])
    def test_max_r_below_1_exit_2(self, max_r, capsys):
        code, text = run("search", "--blocks", "37", "--s", "1", "--max-r", max_r)
        assert code == EXIT_USAGE and text == ""
        assert "search needs --max-r >= 1" in capsys.readouterr().err


class TestCsv:
    @pytest.mark.parametrize(
        "argv",
        [
            ["theta", "--verify-triple", "--order", "20"],
            ["search", "--blocks", "37", "--s", "2", "--max-r", "2", "--max-t", "1"],
        ],
        ids=["theta", "search"],
    )
    def test_fields_with_commas_stay_one_field(self, argv):
        code, text = run(*argv, "--format", "csv")
        assert code == EXIT_OK
        _, doc = run(*argv, "--format", "json")
        results = json.loads(doc)["results"]
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == results["header"]
        assert all(len(row) == len(results["header"]) for row in rows)
        assert rows[1:] == [[str(v) for v in row] for row in results["rows"]]
        assert any("," in field for row in rows[1:] for field in row)


class TestEtaQuotient:
    def test_level_36(self):
        code, text = run("etaquotient", "--level", "36")
        assert code == EXIT_OK
        assert "eta(q^6)^4" in text or "(6, 4)" in text or "6:4" in text

    def test_unknown_level_exit_2(self):
        code, _ = run("etaquotient", "--level", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("order", ["0", "2"])
    def test_order_below_minimum_exit_2(self, order, capsys):
        # order 2 has no g_1 and used to print "no eta quotient within bounds"
        code, text = run("etaquotient", "--level", "36", "--order", order)
        assert code == EXIT_USAGE and text == ""
        assert "--order >= 3" in capsys.readouterr().err

    def test_minimum_order_accepted(self):
        # g_1 alone fixes no quotient at level 36, so the search is empty
        code, text = run("etaquotient", "--level", "36", "--order", "3")
        assert code == EXIT_OK and "no eta quotient within bounds" in text

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_max_exponent_below_1_exit_2(self, bound, capsys):
        code, text = run("etaquotient", "--level", "36", "--max-exponent", bound)
        assert code == EXIT_USAGE and text == ""
        assert "--max-exponent >= 1" in capsys.readouterr().err


class TestVerifyAll:
    def test_all_pass_and_deterministic(self):
        code1, text1 = run("verify-all")
        code2, text2 = run("verify-all")
        assert code1 == code2 == EXIT_OK
        assert text1 == text2
        assert "FAIL" not in text1

    def test_json_deterministic(self):
        _, a = run("verify-all", "--format", "json")
        _, b = run("verify-all", "--format", "json")
        assert a == b

    def test_usage_error(self):
        code, _ = run("no-such-command")
        assert code == EXIT_USAGE


class TestBenchVerifyCommands:
    def test_full_size_match_references(self):
        # the benchmark's verify workload rejects a run whose output differs
        # from bench/references.json; check both commands here, in-process
        spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
        for argv in workloads.verify_argvs("full"):
            code, text = run(*argv)
            doc = json.loads(text)
            key = workloads.command_key(argv)
            assert workloads.reference_record(code, doc) == references[key], key
            assert workloads.anchor_error(argv, doc) is None, key
