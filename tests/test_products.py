"""Infinite-product exponent extraction and block reading."""

import random

import pytest

from newform_products import products, qseries
from newform_products.elliptic import an_expansion, curve_from_quintuple
from newform_products.errors import (
    BlockMismatch,
    InternalIntegralityFailure,
    NonMonicSeries,
    PrecisionExceeded,
)
from newform_products.products import (
    ExponentSequence,
    _divisor_sums,
    _logder_coefficients,
    _monic_unit_part,
    block_profile,
    extract_exponents,
    infer_block,
    log_derivative_quotient,
    reconstruct,
    unit_product,
)
from newform_products.qseries import PowerSeries
from newform_products.registry import builtin_table1, record_for
from newform_products.theta import ETA256_CURVE, MonomialArg, theta_sum

from oracles import (
    binomial,
    extract_exponents_peeling,
    inverse_by_recurrence,
    logder_coefficients_dense,
    q_d_dq,
    unit_from_logder_dense,
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

    @pytest.mark.parametrize("conductor", [37, 256, 36])
    def test_reconstruct_inverts_extraction(self, conductor):
        # g_1..g_{order-2} fix f below q^order, and extraction gives exactly those
        f = an_expansion(curve_from_quintuple(record_for(conductor).curves[0]), 40)
        assert reconstruct(extract_exponents(f), f.order) == f

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
        with pytest.raises(BlockMismatch):
            block_profile(g, 4, 2)

    @pytest.mark.parametrize(
        "g, message",
        [
            # g_2 = 3 is not divisible by 4, but every off-grid index is read first
            ((0, 3, 1, 0, 0, 4), "g_3 = 1 nonzero off the t=2 grid"),
            ((0, 4, 0, 6, 0, 5), "g_4 = 6 not divisible by r=4"),
        ],
    )
    def test_block_profile_messages(self, g, message):
        with pytest.raises(BlockMismatch) as got:
            block_profile(ExponentSequence(g), 4, 2)
        assert str(got.value) == message

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
            e = q_d_dq(u) * inverse_by_recurrence(u)
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
        monkeypatch.setattr(qseries, "mul", counting_mul)
        g = extract_exponents(f)
        assert calls <= 102 ** 2 // 2
        assert infer_block(g) == (1, 4)


def _against_dense_loops(g: ExponentSequence, order: int):
    """Both directions of the kernel against the dense loops: the product of
    g from its divisor sums c, and the log-derivative of that product back to c."""
    c = _divisor_sums([0, *g.g[: order - 1]])
    u = unit_product(g, order)
    assert list(u.coeffs) == unit_from_logder_dense(c)
    assert _logder_coefficients(u) == logder_coefficients_dense(u) == c


def phi_exponents(order: int) -> ExponentSequence:
    """phi(q) = prod (1 - q^(2n)) (1 + q^(2n-1))^2: g_n = -2 for odd n, 3 for
    n = 2 mod 4 and 1 for n = 0 mod 4."""
    return ExponentSequence(tuple((-2, 3, -2, 1)[(n - 1) % 4] for n in range(1, order)))


class TestRecurrenceKernel:
    """The divide-and-conquer kernel against the dense dot-product loops across
    its block boundaries, on both cross-product paths: packed for narrow terms,
    a Karatsuba-split Toeplitz product for wide ones."""

    ORDERS = [*range(1, 3 * qseries._BLOCK + 3), 800]

    def test_phi_exponents_give_phi(self):
        assert unit_product(phi_exponents(60), 60) == theta_sum(
            MonomialArg(1, 1), MonomialArg(1, 1), 60
        )

    def test_euler_and_theta_exponents(self):
        for order in self.ORDERS:
            _against_dense_loops(ExponentSequence((1,) * (order - 1)), order)
            _against_dense_loops(phi_exponents(order), order)

    def test_random_small_exponents(self):
        rng = random.Random(51)
        for order in self.ORDERS:
            g = ExponentSequence(tuple(rng.randint(-3, 3) for _ in range(order - 1)))
            _against_dense_loops(g, order)

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_exponents_on_a_grid(self, t):
        rng = random.Random(52 + t)
        for order in [*range(1, 3 * qseries._BLOCK * t + 3, t + 1), 800]:
            g = ExponentSequence(
                tuple(rng.randint(-3, 3) if n % t == 0 else 0 for n in range(1, order))
            )
            _against_dense_loops(g, order)

    def test_wide_terms_of_37a(self):
        # c reaches about 450 bits by order 300, so the later cross-products
        # of both directions take the Toeplitz path
        f = f37(300)
        u = _monic_unit_part(f)
        assert _logder_coefficients(u) == logder_coefficients_dense(u)
        _against_dense_loops(extract_exponents(f), 299)

    def test_extraction_of_37a_at_800(self):
        # the top cross-product has 399 targets, padded to 400, so its
        # Toeplitz product splits four times down to 25-term leaves
        f = f37(800)
        u = _monic_unit_part(f)
        assert _logder_coefficients(u) == logder_coefficients_dense(u)
        _against_dense_loops(extract_exponents(f), 799)

    def test_scalar_products_grow_below_quadratically(self, monkeypatch):
        # a wide cross-product splits into three half-size Toeplitz products,
        # not one dot product per target: doubling the order multiplies the
        # scalar products on 37a by 3.08, where the dot products gave 4.02
        calls = 0

        def counted(a, b):
            nonlocal calls
            calls += 1
            return a * b

        monkeypatch.setattr(qseries, "mul", counted)
        counts = []
        for order in (1024, 2048):
            calls = 0
            extract_exponents(f37(order))
            counts.append(calls)
        assert counts[1] <= 3.3 * counts[0], counts

    @pytest.mark.parametrize("t", [1, 3])
    def test_integrality_failure_at_the_same_power(self, t, monkeypatch):
        # c off by t at q^(70t) (still on the t-grid) makes u_(70t) a
        # non-integer, past the first cross-products; no earlier u_n changes
        order = 90 * t + 1
        g = ExponentSequence(tuple(int(n % t == 0) for n in range(1, order)))
        c = _divisor_sums([0, *g.g])
        c[70 * t] += t
        monkeypatch.setattr(products, "_divisor_sums", lambda lam: list(c))
        with pytest.raises(InternalIntegralityFailure) as kernel:
            unit_product(g, order)
        with pytest.raises(InternalIntegralityFailure) as dense:
            unit_from_logder_dense(c)
        assert str(kernel.value) == str(dense.value)
        assert str(dense.value) == f"product coefficient q^{70 * t} not integral"

    @pytest.mark.parametrize("order", [0, -3])
    def test_order_below_1_is_refused(self, order):
        g = ExponentSequence((1, 2, 3))
        with pytest.raises(ValueError):
            unit_product(g, order)
        with pytest.raises(ValueError):
            reconstruct(g, order)
