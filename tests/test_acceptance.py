"""End-to-end acceptance gate: ten criteria, one pass/fail line each.

Every criterion prints ``CRITERION k: PASS``/``FAIL`` so a plain ``pytest -v``
or ``-s`` run documents the whole gate at a glance.
"""

import io
import math
import random
import time

import pytest

from newform_products.cli import EXIT_OK, main
from newform_products.elliptic import (
    an_expansion,
    count_points,
    curve_from_quintuple,
)
from newform_products.eta import verify_e2_identity
from newform_products.products import (
    ExponentSequence,
    block_profile,
    extract_exponents,
    reconstruct,
    unit_product,
)
from newform_products.registry import builtin_table1, record_for
from newform_products.search import enumerate_candidates, eta_quotient_search
from newform_products.theta import (
    MonomialArg,
    theta_product,
    theta_sum,
    verify_eta256_identities,
    verify_weight4,
)

from oracles import count_points_naive, eta256_block, extract_exponents_peeling, primes_upto
from oracles import frac_equal_to_by_exponents as frac_equal_to


def report(number: int, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number} failed{tail}"


class TestAcceptance:
    def test_criterion_01_block_table_reproduction(self):
        start = time.monotonic()
        ok = True
        for rec in builtin_table1():
            f = an_expansion(
                curve_from_quintuple(rec.curves[0]), rec.t_check * 12 + 2
            )
            profile = block_profile(extract_exponents(f), rec.r_check, rec.t_check)
            if profile.a[:12] != rec.a_printed:
                ok = False
                break
        elapsed = time.monotonic() - start
        report(1, ok and elapsed < 30, f"17 rows in {elapsed:.2f}s")

    def test_criterion_02_two_curve_agreement(self):
        ok = True
        for rec in builtin_table1():
            if len(rec.curves) == 2:
                a, b = (
                    an_expansion(curve_from_quintuple(c), 101).coeffs
                    for c in rec.curves
                )
                ok = ok and a == b
        report(2, ok, "n <= 100 on 5 two-curve rows")

    def test_criterion_03_divisor_sum_identity(self):
        report(3, verify_e2_identity(300), "order 300, exact")

    def test_criterion_04_roundtrip_and_integrality(self):
        rng = random.Random(20260826)
        ok = True
        for _ in range(100):
            g = ExponentSequence(tuple(rng.randint(-10, 10) for _ in range(24)))
            back = extract_exponents(reconstruct(g, 25))
            ok = ok and back.g == g.g[: back.upto]
        for _ in range(200):
            g = ExponentSequence(tuple(rng.randint(-10, 10) for _ in range(40)))
            f = reconstruct(g, 41)
            values = extract_exponents(f).g  # raises on non-integrality
            ok = ok and all(isinstance(v, int) for v in values)
        report(4, ok, "100 roundtrips + 200 integrality trials")

    def test_criterion_05_triple_product(self):
        pairs = [
            (MonomialArg(1, 1, 1), MonomialArg(1, 1, 1)),
            (MonomialArg(1, 1, 1), MonomialArg(1, 3, 1)),
            (MonomialArg(-1, 1, 1), MonomialArg(-1, 3, 1)),
            (MonomialArg(1, 2, 1), MonomialArg(1, 2, 1)),
            (MonomialArg(1, 1, 1), MonomialArg(1, 5, 1)),
        ]
        ok = True
        for a, b in pairs:
            eq, _ = frac_equal_to(theta_sum(a, b, 200), theta_product(a, b, 200), 200)
            ok = ok and eq
        report(5, ok, "5 pairs, order 200")

    def test_criterion_06_conductor_256_block(self):
        # The q^12 coefficient is -7 (sometimes misquoted as +7): it equals
        # f_49 = f_7^2 - 7 with f_7 = 0, and both identities below fail
        # under the +7 reading.  See tests/test_theta.py.
        u = unit_product(eta256_block(13), 13)
        coeff_ok = u.coeffs == (1, -4, -3, -4, -2, 0, 11, -4, 0, 12, -10, 12, -7)
        ok1, ok2, _ = verify_eta256_identities(50)
        w4 = verify_weight4(200)
        report(
            6,
            coeff_ok and ok1 and ok2 and w4["printed_ok"] and w4["multiplicative_ok"],
            "coefficients + both identities@50 + weight-4 multiplicativity",
        )

    def test_criterion_07_single_part_forcing(self):
        ok = True
        for rec in builtin_table1():
            found = enumerate_candidates(
                [rec], 1, max(rec.r_check, 6), max(rec.t_check, 8)
            )
            ok = ok and [c.parts for c in found] == [
                ((rec.conductor, rec.r_check, rec.t_check),)
            ]
        report(7, ok, "all 17 blocks")

    def test_criterion_08_eta_quotient_search(self):
        start = time.monotonic()
        found36 = eta_quotient_search(36, 30)
        found37 = eta_quotient_search(37, 20)
        elapsed = time.monotonic() - start
        ok = (
            [q.terms for q in found36] == [((6, 4),)]
            and found37 == []
            and elapsed < 60
        )
        report(8, ok, f"level 36 unique, level 37 empty, {elapsed:.2f}s")

    def test_criterion_09_dual_oracles(self):
        ok = True
        curves = [c for rec in builtin_table1() for c in rec.curves]
        for quint in curves:
            c = curve_from_quintuple(quint)
            for p in primes_upto(50):
                ok = ok and count_points(c, p) == count_points_naive(c, p)
        for rec in builtin_table1():
            f = an_expansion(curve_from_quintuple(rec.curves[0]), 41)
            ok = ok and extract_exponents(f).g == extract_exponents_peeling(f).g
        report(9, ok, "point counting p<=50 + extraction order 40")

    def test_criterion_10_determinism(self, monkeypatch, tmp_path):
        monkeypatch.setenv("NEWFORM_OFFLINE", "1")
        monkeypatch.setenv("NEWFORM_CACHE_DIR", str(tmp_path))
        runs = []
        codes = []
        for _ in range(2):
            out = io.StringIO()
            codes.append(main(["verify-all", "--format", "json"], out=out))
            runs.append(out.getvalue())
        ok = codes == [EXIT_OK, EXIT_OK] and runs[0] == runs[1]
        report(10, ok, "verify-all twice, bytewise identical, offline")
