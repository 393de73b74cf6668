"""Command-line interface: output formats, exit codes, determinism."""

import csv
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from newform_products import cli, theta
from newform_products.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from newform_products.errors import TableMismatch
from newform_products.products import ExponentSequence
from newform_products.registry import builtin_table1, record_for
from newform_products.theta import MonomialArg, theta_sum

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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

    def test_negative_a1_in_equals_form(self, capsys):
        # [-1,0,-1,4,-6] is 14a under y -> -y - a1*x - a3; a separate value
        # starting with "-" is read as an option
        code, text = run("an", "--curve=-1,0,-1,4,-6", "--order", "14")
        assert code == EXIT_OK
        assert text == run("an", "--curve", "1,0,1,4,-6", "--order", "14")[1]
        assert run("an", "--curve", "-1,0,-1,4,-6")[0] == EXIT_USAGE
        assert "expected one argument" in capsys.readouterr().err

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

    def test_model_not_minimal_at_2_exit_2(self, capsys):
        # 37a rescaled by u = 2, which used to print f_2 = 0 with exit 0
        code, text = run("an", "--curve", "0,0,8,-16,0")
        assert code == EXIT_USAGE and text == ""
        assert "not minimal at p=2 " in capsys.readouterr().err

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

    @pytest.mark.parametrize("conductor", [37, 61, 88])  # (r, t) = (2, 1), (1, 1), (1, 2)
    def test_a_is_the_printed_block(self, conductor):
        rec = record_for(conductor)
        curve = ",".join(map(str, rec.curves[0]))
        code, text = run("exponents", "--curve", curve, "--order", "40", "--format", "json")
        assert code == EXIT_OK
        results = json.loads(text)["results"]
        assert results["inferred"] == {"r_check": rec.r_check, "t_check": rec.t_check}
        assert results["a"][:12] == [str(v) for v in rec.a_printed]
        assert len(results["a"]) == len(results["g"]) // rec.t_check

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

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_exponents_past_the_str_digit_cap(self, fmt, monkeypatch):
        # g = (B, 2B) for a 5,000-digit B, past CPython's default 4,300-digit
        # int/str cap; the inferred r is B itself, rendered as an int in json
        big, digits = 10**4999 + 7, "1" + "0" * 4998 + "7"
        monkeypatch.setattr(cli, "extract_exponents", lambda f: ExponentSequence((big, 2 * big)))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, text = run("exponents", "--curve", "0,0,1,-1,0", "--order", "4", "--format", fmt)
        assert code == EXIT_OK
        assert digits in text and "2" + "0" * 4997 + "14" in text
        if fmt == "json":
            inferred = json.loads(text, parse_int=str)["results"]["inferred"]
            assert inferred == {"r_check": digits, "t_check": "1"}
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


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

    def test_no_registry_file_input(self, tmp_path, capsys):
        # the embedded table is the only source of rows
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(
            {"format": "newform-block-registry", "version": 1, "records": []}))
        code, text = run("table1", "--registry", str(path))
        assert code == EXIT_USAGE and text == ""
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTable1Failure:
    """A table row whose printed a_n contradicts the recomputed block."""

    MISMATCH = (
        "FAIL (conductor 37: recomputed block (1, 2, 3, 8, 16, 41, 97, 242, 598, "
        "1532, 3898, 10067) contradicts printed (2, 2, 3, 8, 16, 41, 97, 242, 598, "
        "1532, 3898, 10067))"
    )

    @pytest.fixture(autouse=True)
    def altered_table(self, monkeypatch):
        rows = builtin_table1()[:2]
        a = rows[1].a_printed
        rows[1] = rows[1]._replace(a_printed=(a[0] + 1,) + a[1:])
        monkeypatch.setattr(cli, "builtin_table1", lambda: rows)

    def test_plain(self):
        code, text = run("table1")
        assert code == EXIT_VIOLATION
        assert text.splitlines() == [
            "N=   36  r=4 t=6  PASS",
            f"N=   37  r=2 t=1  {self.MISMATCH}",
            "1/2 PASS",
        ]

    def test_plain_extend_shows_printed_row(self):
        code, text = run("table1", "--extend", "12")
        assert code == EXIT_VIOLATION
        assert text.splitlines() == [
            "N=   36  r=4 t=6  PASS  a=1,1,1,1,1,1,1,1,1,1,1,1",
            f"N=   37  r=2 t=1  {self.MISMATCH}  a=2,2,3,8,16,41,97,242,598,1532,3898,10067",
            "1/2 PASS",
        ]

    def test_json(self):
        code, text = run("table1", "--format", "json")
        assert code == EXIT_VIOLATION
        doc = json.loads(text)
        assert doc["status"] == "violation"
        assert doc["results"] == {
            "header": ["conductor", "r_check", "t_check", "status"],
            "rows": [[36, 4, 6, "PASS"], [37, 2, 1, self.MISMATCH]],
            "lines": [
                "N=   36  r=4 t=6  PASS",
                f"N=   37  r=2 t=1  {self.MISMATCH}",
                "1/2 PASS",
            ],
            "passed": 1,
            "total": 2,
        }

    def test_csv(self):
        code, text = run("table1", "--format", "csv")
        assert code == EXIT_VIOLATION
        assert text == (
            "conductor,r_check,t_check,status\n"
            "36,4,6,PASS\n"
            f'37,2,1,"{self.MISMATCH}"\n'
        )


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


class TestThetaFailure:
    """Failing triple-product and weight-4 checks, in every format."""

    TRIPLE_LINES = [
        "FAIL  triple-product f(q,q)  first mismatch at 1",
        "ok    triple-product f(q,q^3)",
        "FAIL  triple-product f(-q,-q^3)  first mismatch at 1",
        "FAIL  triple-product f(q^2,q^2)  first mismatch at 1",
        "FAIL  triple-product f(q,q^5)  first mismatch at 3",
    ]
    WEIGHT4_LINES = [
        "FAIL  weight-4 printed coefficients  first mismatch at [3]",
        "FAIL  weight-4 multiplicativity  first mismatch at [(3, 5)]",
    ]

    @pytest.fixture
    def wrong_product(self, monkeypatch):
        # every product side is psi(q) = f(q, q^3), so only that pair agrees
        monkeypatch.setattr(theta, "theta_product", lambda a, b, order: theta_sum(
            MonomialArg(1, 1), MonomialArg(1, 3), order))

    @pytest.fixture
    def wrong_weight4(self, monkeypatch):
        monkeypatch.setattr(cli, "verify_weight4", lambda order: {
            "printed_ok": False, "printed_failures": [3, 5],
            "multiplicative_ok": False, "multiplicative_failures": [(3, 5), (3, 7)],
        })

    def test_triple_plain(self, wrong_product):
        code, text = run("theta", "--verify-triple", "--order", "10")
        assert code == EXIT_VIOLATION
        assert text.splitlines() == self.TRIPLE_LINES

    def test_triple_json(self, wrong_product):
        code, text = run("theta", "--verify-triple", "--order", "10", "--format", "json")
        assert code == EXIT_VIOLATION
        doc = json.loads(text)
        assert doc["status"] == "violation"
        assert [(c["ok"], c["first_mismatch"]) for c in doc["results"]["checks"]] == [
            (False, "1"), (True, None), (False, "1"), (False, "1"), (False, "3")]
        assert doc["results"]["lines"] == self.TRIPLE_LINES

    def test_triple_csv(self, wrong_product):
        code, text = run("theta", "--verify-triple", "--order", "10", "--format", "csv")
        assert code == EXIT_VIOLATION
        assert text == (
            "check,ok\n"
            '"triple-product f(q,q)",False\n'
            '"triple-product f(q,q^3)",True\n'
            '"triple-product f(-q,-q^3)",False\n'
            '"triple-product f(q^2,q^2)",False\n'
            '"triple-product f(q,q^5)",False\n'
        )

    def test_weight4_plain(self, wrong_weight4):
        code, text = run("theta", "--verify-weight4", "--order", "30")
        assert code == EXIT_VIOLATION
        assert text.splitlines() == self.WEIGHT4_LINES

    def test_weight4_json(self, wrong_weight4):
        code, text = run("theta", "--verify-weight4", "--order", "30", "--format", "json")
        assert code == EXIT_VIOLATION
        doc = json.loads(text)
        assert doc["status"] == "violation"
        assert doc["results"] == {
            "checks": [
                {"check": "weight-4 printed coefficients", "ok": False,
                 "first_mismatch": "[3]"},
                {"check": "weight-4 multiplicativity", "ok": False,
                 "first_mismatch": "[(3, 5)]"},
            ],
            "header": ["check", "ok"],
            "rows": [["weight-4 printed coefficients", False],
                     ["weight-4 multiplicativity", False]],
            "lines": self.WEIGHT4_LINES,
        }

    def test_weight4_csv(self, wrong_weight4):
        code, text = run("theta", "--verify-weight4", "--order", "30", "--format", "csv")
        assert code == EXIT_VIOLATION
        assert text == (
            "check,ok\n"
            "weight-4 printed coefficients,False\n"
            "weight-4 multiplicativity,False\n"
        )

    # the E2 check reports no position, so its failing line names none
    E2_LINE = "FAIL  E2 logarithmic-derivative identity"

    @pytest.fixture
    def wrong_e2(self, monkeypatch):
        monkeypatch.setattr(cli, "verify_e2_identity", lambda order: False)

    def test_e2_plain(self, wrong_e2):
        code, text = run("theta", "--verify-e2", "--order", "30")
        assert code == EXIT_VIOLATION
        assert text == self.E2_LINE + "\n"

    def test_e2_json(self, wrong_e2):
        code, text = run("theta", "--verify-e2", "--order", "30", "--format", "json")
        assert code == EXIT_VIOLATION
        doc = json.loads(text)
        assert doc["status"] == "violation"
        assert doc["results"] == {
            "checks": [{"check": "E2 logarithmic-derivative identity", "ok": False,
                        "first_mismatch": None}],
            "header": ["check", "ok"],
            "rows": [["E2 logarithmic-derivative identity", False]],
            "lines": [self.E2_LINE],
        }

    def test_e2_csv(self, wrong_e2):
        code, text = run("theta", "--verify-e2", "--order", "30", "--format", "csv")
        assert code == EXIT_VIOLATION
        assert text == "check,ok\nE2 logarithmic-derivative identity,False\n"


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

    @pytest.mark.parametrize("order", ["0", "1", "-1"])
    def test_target_order_below_2_exit_2(self, order, capsys):
        # the order is checked before the target is expanded, so the message
        # names the flag rather than an_expansion's own bound
        code, text = run("search", "--blocks", "37,43", "--s", "2", "--max-r", "2",
                         "--max-t", "2", "--order", order, "--target", "0,0,1,-1,0")
        assert code == EXIT_USAGE and text == ""
        assert "search --target needs --order >= 3" in capsys.readouterr().err

    def test_target_order_2_exit_2(self, capsys):
        # the target expands at order 2 but has no g_1, so nothing is compared
        code, text = run("search", "--blocks", "37,43", "--s", "2", "--max-r", "2",
                         "--max-t", "2", "--order", "2", "--target", "0,0,1,-1,0")
        assert code == EXIT_USAGE and text == ""
        assert "search --target needs --order >= 3" in capsys.readouterr().err


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

    @pytest.mark.parametrize("bound", ["0", "-1", "3", "24"])
    def test_max_exponent_not_an_option(self, bound, capsys):
        # the quotient is solved exactly, so no exponent bound can hide it
        code, text = run("etaquotient", "--level", "36", "--max-exponent", bound)
        assert code == EXIT_USAGE and text == ""
        assert "unrecognized arguments" in capsys.readouterr().err


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


class TestVerifyAllFailure:
    """One table row and the E2 item fail; only the row carries a detail."""

    @pytest.fixture(autouse=True)
    def failing_items(self, monkeypatch):
        extend = cli.extend_block

        def extend_but_37(rec, upto):
            if rec.conductor == 37:
                raise TableMismatch("stubbed mismatch")
            return extend(rec, upto)

        monkeypatch.setattr(cli, "extend_block", extend_but_37)
        monkeypatch.setattr(cli, "verify_e2_identity", lambda order: False)

    def test_plain(self):
        code, text = run("verify-all")
        assert code == EXIT_VIOLATION
        lines = text.splitlines()
        assert lines[:3] == [
            "PASS  table1 row 36",
            "FAIL  table1 row 37  (stubbed mismatch)",
            "PASS  table1 row 43",
        ]
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL  table1 row 37  (stubbed mismatch)",
            "FAIL  E2 identity to order 300",
        ]
        assert lines[-1] == "49/51 PASS"

    def test_json(self):
        code, text = run("verify-all", "--format", "json")
        assert code == EXIT_VIOLATION
        doc = json.loads(text)
        assert doc["status"] == "violation"
        results = doc["results"]
        assert [i for i in results["items"] if not i["ok"]] == [
            {"item": "table1 row 37", "ok": False, "detail": "stubbed mismatch"},
            {"item": "E2 identity to order 300", "ok": False, "detail": ""},
        ]
        assert results["header"] == ["item", "ok"]
        assert results["rows"][1] == ["table1 row 37", False]
        assert results["lines"][1] == "FAIL  table1 row 37  (stubbed mismatch)"
        assert results["lines"][-1] == "49/51 PASS"

    def test_csv(self):
        code, text = run("verify-all", "--format", "csv")
        assert code == EXIT_VIOLATION
        lines = text.splitlines()
        assert lines[:3] == ["item,ok", "table1 row 36,True", "table1 row 37,False"]
        assert "E2 identity to order 300,False" in lines
        assert len(lines) == 52


CONSISTENCY_ARGVS = {
    "an": ["an", "--curve", "0,0,1,-1,0", "--order", "12"],
    "exponents": ["exponents", "--curve", "0,1,1,-1,-1", "--order", "14"],
    "table1": ["table1", "--extend", "14"],
    "theta": ["theta", "--verify-triple", "--verify-eta256", "--verify-e2",
              "--verify-weight4", "--order", "30"],
    "search": ["search", "--blocks", "37,43", "--s", "2", "--max-r", "2", "--max-t", "2",
               "--order", "20", "--target", "0,0,1,-1,0"],
    "etaquotient": ["etaquotient", "--level", "36"],
    "verify-all": ["verify-all"],
}


@pytest.mark.parametrize("argv", CONSISTENCY_ARGVS.values(), ids=CONSISTENCY_ARGVS.keys())
def test_formats_render_one_document(argv):
    # csv is results["header"] and results["rows"]; plain is results["lines"]
    _, doc = run(*argv, "--format", "json")
    results = json.loads(doc)["results"]
    _, text = run(*argv, "--format", "csv")
    assert list(csv.reader(io.StringIO(text))) == [results["header"]] + [
        [str(v) for v in row] for row in results["rows"]]
    _, text = run(*argv)
    assert text.splitlines() == results["lines"]


class TestBenchVerifyCommands:
    """Every benchmark command matches bench/references.json, in-process.

    The benchmark rejects a run whose exit code, status or results digest
    differs from its reference, so a change to any rendered view shows here.
    """

    @pytest.fixture(scope="class")
    def bench(self):
        spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
        return workloads, references

    @staticmethod
    def check(bench, size, anchors):
        workloads, references = bench
        commands = workloads.all_commands(size)
        assert len(commands) == 20
        for argv in commands:
            code, text = run(*argv)
            doc = json.loads(text)
            key = workloads.command_key(argv)
            assert workloads.reference_record(code, doc) == references[key], key
            if anchors:
                assert workloads.anchor_error(argv, doc) is None, key

    def test_unbuffered_stdout_written_in_8k_chunks(self, bench, monkeypatch):
        # sys.stdout under python -u or PYTHONUNBUFFERED writes through
        class CountingWriter(io.RawIOBase):
            writes = 0
            data = b""

            def writable(self):
                return True

            def write(self, b):
                self.writes += 1
                self.data += bytes(b)
                return len(b)

        raw = CountingWriter()
        stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        monkeypatch.setattr(sys, "stdout", stdout)
        argv = bench[0].search_argv(37, "full")
        assert main(list(argv)) == EXIT_OK
        assert raw.data == run(*argv)[1].encode("utf-8")
        assert raw.writes <= len(raw.data) // 8192 + 2
        assert stdout.write_through

    def test_full_size_match_references(self, bench):
        self.check(bench, "full", anchors=True)

    def test_smoke_size_match_references(self, bench):
        # No paper anchors at this size: the search anchors for targets 37
        # and 43 fail here at --order 20, where block37^2(q) and block43(q)
        # are only "undecided" (overlap 19 is below the floor of 20).  That
        # is the open smoke-search defect in CHANGES.md, not a rendering one.
        self.check(bench, "smoke", anchors=False)


class TestClosedOutput:
    """A reader that closes the output early gets a usage exit, not a traceback."""

    ARGV = ["exponents", "--curve", "0,0,1,-1,0", "--order", "300", "--format", "json"]

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe_exit_2(self, unbuffered):
        # about 115 KB of json, well past a 64 KB pipe buffer, read 50 bytes in
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "newform_products", *self.ARGV],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(50)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == EXIT_USAGE
        assert head.startswith(b"{")
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err.count("error:") == 1

    def test_caller_stream_that_breaks_exit_2(self, capsys):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        assert main(self.ARGV, out=Closed()) == EXIT_USAGE
        assert capsys.readouterr().err.count("error:") == 1
