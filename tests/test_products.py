"""Infinite-product exponent extraction and block reading."""

import random

import pytest

from newform_products import products
from newform_products.elliptic import an_expansion, curve_from_quintuple
from newform_products.errors import NonMonicSeries, PrecisionExceeded
from newform_products.products import (
    ExponentSequence,
    _logder_coefficients,
    block_profile,
    extract_exponents,
    infer_block,
    log_derivative_quotient,
    reconstruct,
    unit_product,
)
from newform_products.qseries import PowerSeries
from newform_products.registry import builtin_table1, record_for
from newform_products.theta import ETA256_CURVE

from oracles import (
    binomial,
    extract_exponents_peeling,
    logder_coefficients_dense,
    q_d_dq,
)


def f37(order: int) -> PowerSeries:
    return an_expansion(curve_from_quintuple((0, 0, 1, -1, 0)), order)


def binomial_product(g: ExponentSequence, order: int) -> PowerSeries:
    """Reference for unit_product: multiply in each (1 - q^n)^{g_n} expanded
    by the binomial theorem, one factor at a time."""
    u = PowerSeries.one(order)
    for n in range(1, order):
        gn = g.g[n - 1]
        if gn:
            terms = {k * n: binomial(gn, k) * (-1) ** k for k in range((order - 1) // n + 1)}
            u = u * PowerSeries.from_terms(terms, order)
    return u


class TestLogDerivative:
    def test_geometric_series(self):
        # f = q/(1-q): E_f = 1 + q*(1/(1-q))'/(1/(1-q)) = 1 + q/(1-q)
        f = PowerSeries.from_terms({n: 1 for n in range(1, 12)}, 12)
        e = log_derivative_quotient(f)
        assert e.coeffs == (1,) + (1,) * 10

    def test_requires_monic(self):
        with pytest.raises(NonMonicSeries):
            log_derivative_quotient(PowerSeries.from_terms({0: 1, 1: 1}, 5))
        with pytest.raises(NonMonicSeries):
            log_derivative_quotient(PowerSeries.from_terms({1: 2}, 5))


class TestRoundTrip:
    def test_random_exponents_roundtrip(self):
        rng = random.Random(7)
        for _ in range(100):
            g = ExponentSequence(tuple(rng.randint(-10, 10) for _ in range(24)))
            f = reconstruct(g, 25)
            back = extract_exponents(f)
            assert back.upto == 23
            assert back.g == g.g[: back.upto]

    def test_integrality_of_extraction(self):
        # coefficient sequences of curve expansions always invert to integers
        rng = random.Random(11)
        quintuples = [rec.curves[0] for rec in builtin_table1()]
        for _ in range(200):
            quint = rng.choice(quintuples)
            f = an_expansion(curve_from_quintuple(quint), 41)
            g = extract_exponents(f)
            assert all(isinstance(v, int) for v in g.g)

    def test_peeling_oracle_agrees(self):
        for rec in builtin_table1():
            f = an_expansion(curve_from_quintuple(rec.curves[0]), 41)
            assert extract_exponents(f).g == extract_exponents_peeling(f).g

    def test_reconstruct_precision_guard(self):
        g = ExponentSequence((1, 1, 1))
        with pytest.raises(PrecisionExceeded):
            reconstruct(g, 6)

    def test_unit_product_matches_reconstruct(self):
        g = ExponentSequence((2, -1, 3, 0, -2))
        u = unit_product(g, 6)
        f = reconstruct(g, 6)
        assert f.coeffs[1:] == u.coeffs[:5]


class TestKnownBlocks:
    def test_f37_exponents(self):
        g = extract_exponents(f37(14))
        assert g.g[:12] == tuple(2 * a for a in record_for(37).a_printed)

    def test_row36_reconstructs(self):
        rec = record_for(36)
        # g_{6n} = 4, else 0, out to 30 terms
        g = ExponentSequence(tuple(4 if n % 6 == 0 else 0 for n in range(1, 31)))
        f = reconstruct(g, 31)
        target = an_expansion(curve_from_quintuple(rec.curves[0]), 31)
        assert f.coeffs == target.coeffs

    def test_block_profile_grid(self):
        rec = record_for(88)  # r=1, t=2
        f = an_expansion(curve_from_quintuple(rec.curves[0]), 2 * 12 + 2)
        profile = block_profile(extract_exponents(f), 1, 2)
        assert profile.a[:12] == rec.a_printed

    def test_block_profile_detects_off_grid(self):
        g = ExponentSequence((0, 4, 1, 0, 0, 4))  # support {2, 3, 6}, not 2-grid
        from newform_products.errors import BlockMismatch

        with pytest.raises(BlockMismatch):
            block_profile(g, 4, 2)

    def test_infer_block(self):
        g = ExponentSequence((0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 4))
        assert infer_block(g) == (4, 6)
        g = extract_exponents(f37(14))
        assert infer_block(g) == (2, 1)
        # signs and a zero on the grid: r = gcd(6, 9, 12), t = gcd(6, 9, 15)
        g = ExponentSequence((0, 0, 0, 0, 0, -6, 0, 0, 9, 0, 0, 0, 0, 0, -12, 0))
        assert infer_block(g) == (3, 3)

    def test_monotone_report_row_101(self):
        rec = record_for(101)
        f = an_expansion(curve_from_quintuple(rec.curves[0]), 14)
        profile = block_profile(extract_exponents(f), 1, 1)
        # a_1 = 0 and the early plateau are reported, never raised
        assert 1 in profile.monotone_report


class TestKernelDifferential:
    """The kernel against routes that share none of its code."""

    def test_unit_product_dense_exponents(self):
        rng = random.Random(31)
        for bound in (1, 10, 10**6):
            for _ in range(10):
                g = ExponentSequence(
                    tuple(rng.randint(-bound, bound) for _ in range(35))
                )
                assert unit_product(g, 36) == binomial_product(g, 36)

    def test_unit_product_sparse_grid_exponents(self):
        rng = random.Random(32)
        for t in (2, 3, 5, 7):
            for _ in range(10):
                g = ExponentSequence(
                    tuple(
                        rng.randint(-(10**6), 10**6) if n % t == 0 and rng.random() < 0.5 else 0
                        for n in range(1, 60)
                    )
                )
                assert unit_product(g, 60) == binomial_product(g, 60)

    def test_unit_product_on_grid_keeps_length_and_zeros(self):
        # run on c[::t] and spread back: full length, zero off the t-grid
        rng = random.Random(34)
        for t in (2, 3, 4, 6):
            for order in (t * 9, t * 9 + 1, t * 9 + t - 1):
                g = ExponentSequence(
                    tuple(rng.randint(-50, 50) if n % t == 0 else 0 for n in range(1, order))
                )
                u = unit_product(g, order)
                assert u.order == order
                assert all(u.coeffs[n] == 0 for n in range(order) if n % t)
                assert u == binomial_product(g, order)

    def test_random_monic_series(self):
        rng = random.Random(33)
        for _ in range(30):
            f = PowerSeries(
                (0, 1) + tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 28)))
            )
            assert extract_exponents(f).g == extract_exponents_peeling(f).g
            u = PowerSeries(f.coeffs[1:])
            e = q_d_dq(u) * u.inverse()
            expected = (e.coeffs[0] + 1,) + e.coeffs[1:]
            assert log_derivative_quotient(f).coeffs == expected


def _against_dense_oracle(f: PowerSeries):
    u = PowerSeries(f.coeffs[1:])
    c = logder_coefficients_dense(u)
    assert _logder_coefficients(u) == c
    assert log_derivative_quotient(f).coeffs == (1,) + tuple(-v for v in c[1:])
    assert extract_exponents(f).g == extract_exponents_peeling(f).g


class TestStridedKernel:
    """Series in q^t run the kernel on the t-grid; the dense loop is the oracle."""

    @pytest.mark.parametrize("t", [2, 3, 4, 6])
    def test_random_series_in_q_t(self, t):
        rng = random.Random(40 + t)
        for _ in range(10):
            length = t * rng.randint(1, 8) + rng.randint(1, t - 1)  # not a multiple of t
            coeffs = [0] * (length + 1)
            coeffs[1] = 1
            for m in range(1, (length - 1) // t + 1):
                coeffs[1 + t * m] = rng.randint(-50, 50)
            _against_dense_oracle(PowerSeries(tuple(coeffs)))

    def test_all_zero_tail(self):
        for length in (2, 3, 7):
            f = PowerSeries.from_terms({1: 1}, length)
            _against_dense_oracle(f)
            assert extract_exponents(f).g == (0,) * (length - 2)

    @pytest.mark.parametrize("conductor", [36, 88, 92, 243, 256, 288, 675, 2304])
    def test_table_rows_on_their_grid(self, conductor):
        rec = record_for(conductor)
        assert rec.t_check > 1
        f = an_expansion(curve_from_quintuple(rec.curves[0]), rec.t_check * 60 + 2)
        _against_dense_oracle(f)

    def test_eta256_extraction_runs_on_the_grid(self, monkeypatch):
        # the conductor-256 series lives on q^(4n+1): the dense loop would make
        # about 80,000 multiplications at this order, the strided one 4,950
        calls = 0

        def counting_mul(a, b):
            nonlocal calls
            calls += 1
            return a * b

        f = an_expansion(curve_from_quintuple(ETA256_CURVE), 4 * 100 + 2)
        monkeypatch.setattr(products, "mul", counting_mul)
        g = extract_exponents(f)
        assert calls <= 102 ** 2 // 2
        assert infer_block(g) == (1, 4)
