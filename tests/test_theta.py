"""Two-variable theta series, the conductor-256 block, and its identities."""

import math
import sys
from fractions import Fraction

import pytest

from newform_products.elliptic import an_expansion, curve_from_quintuple
from newform_products import products, theta
from newform_products.errors import BlockMismatch
from newform_products.eta import eta_signed
from newform_products.products import ExponentSequence, unit_product
from newform_products.qseries import PowerSeries
from newform_products.theta import (
    ETA256_CURVE,
    MonomialArg,
    WEIGHT4_PRINTED,
    _add_signed_factors,
    _eta256_squared,
    _expand,
    theta_product,
    theta_sum,
    verify_eta256_identities,
    verify_triple_product,
    verify_weight4,
    weight4_series,
)

from oracles import (
    eta256_block,
    frac_equal_to_by_exponents,
    frac_pow,
    nonzero_items,
    psi,
    subst_monomial,
)


def eta256_squared_by_product(order):
    """q^(-1/2) eta256^2 = prod (1 - q^n)^(2 a_n), from the extracted a_n."""
    a = eta256_block(order - 1).g
    return unit_product(ExponentSequence(tuple(2 * v for v in a)), order)


def bump_count(monkeypatch, n, delta):
    """Make theta's point count return f_n + delta."""
    count = theta.an_expansion

    def bumped(curve, order):
        f = list(count(curve, order).coeffs)
        f[n] += delta
        return PowerSeries(tuple(f))

    monkeypatch.setattr(theta, "an_expansion", bumped)


PAIRS = [
    (MonomialArg(1, 1, 1), MonomialArg(1, 1, 1)),
    (MonomialArg(1, 1, 1), MonomialArg(1, 3, 1)),
    (MonomialArg(-1, 1, 1), MonomialArg(-1, 3, 1)),
    (MonomialArg(1, 2, 1), MonomialArg(1, 2, 1)),
    (MonomialArg(1, 1, 1), MonomialArg(1, 5, 1)),
    (MonomialArg(1, 1, 2), MonomialArg(1, 3, 2)),
    (MonomialArg(-1, 1, 3), MonomialArg(1, 2, 1)),
    (MonomialArg(-1, 1, 2), MonomialArg(-1, 5, 3)),
    (MonomialArg(1, 2, 2), MonomialArg(-1, 1, 4)),
    (MonomialArg(-1, 7, 6), MonomialArg(1, 1, 1)),
]


def phi(order):
    """phi(q) = theta(q, q)."""
    return theta_sum(MonomialArg(1, 1), MonomialArg(1, 1), order)


class TestTripleProduct:
    @pytest.mark.parametrize("a,b", PAIRS)
    def test_sum_equals_product(self, a, b):
        assert verify_triple_product(a, b, 200) == (True, None)

    @pytest.mark.parametrize("k", [1, -1])
    @pytest.mark.parametrize("a,b", PAIRS)
    def test_first_mismatch_equals_oracle(self, monkeypatch, a, b, k):
        # one coefficient of the product side changed, at its second or its
        # last index on the q^(1/d) grid; the oracle reads both grid lists as
        # series in q^(1/d), so its position is divided by d
        product = theta.theta_product

        def bumped(a, b, order):
            c = list(product(a, b, order).coeffs)
            c[k] += 1
            return PowerSeries(tuple(c))

        d = math.lcm(a.den, b.den)
        ok, at = frac_equal_to_by_exponents(theta_sum(a, b, 30), bumped(a, b, 30), 30 * d)
        monkeypatch.setattr(theta, "theta_product", bumped)
        assert not ok
        assert verify_triple_product(a, b, 30) == (ok, at / d)

    @pytest.mark.parametrize("bump", [False, True])
    def test_grid_of_unreduced_arguments(self, monkeypatch, bump):
        # q^(2/4), q^(6/4) sum and multiply on the q^(1/4) grid, q^(1/2), q^(3/2)
        # on the q^(1/2) grid; a bump at q^1 of the product side must be read
        # at q^1 on both, so both sides must pick the same grid
        if bump:
            product = theta.theta_product

            def bumped(a, b, order):
                c = list(product(a, b, order).coeffs)
                c[len(c) // order] += 1
                return PowerSeries(tuple(c))

            monkeypatch.setattr(theta, "theta_product", bumped)
        unreduced = verify_triple_product(MonomialArg(1, 2, 4), MonomialArg(1, 6, 4), 30)
        reduced = verify_triple_product(MonomialArg(1, 1, 2), MonomialArg(1, 3, 2), 30)
        assert unreduced == reduced == ((False, Fraction(1)) if bump else (True, None))

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(ValueError):
            MonomialArg(1, -1, 1)
        with pytest.raises(ValueError):
            MonomialArg(2, 1, 1)


class TestClassicalTheta:
    def test_phi_coefficients(self):
        f = phi(17)
        expected = [0] * 17
        expected[0] = 1
        for n in (1, 4, 9, 16):
            expected[n] = 2
        assert f.coeffs == tuple(expected)

    @pytest.mark.parametrize("order", [1, 2, 4, 5, 17, 101, 400])
    def test_phi_equals_theta_sum(self, order):
        # theta(q, q) against the closed form 1 + 2 sum_{n >= 1} q^(n^2)
        s = theta_sum(MonomialArg(1, 1), MonomialArg(1, 1), order)
        assert s.order == order
        squares = {n * n: 2 for n in range(1, order) if n * n < order}
        assert dict(nonzero_items(s)) == {0: 1, **squares}

    def test_psi_coefficients(self):
        f = psi(16)
        support = {n for n, c in enumerate(f.coeffs) if c}
        assert support == {0, 1, 3, 6, 10, 15}
        assert all(c in (0, 1) for c in f.coeffs)

    def test_psi_neg_q2_two_routes(self):
        # theta(-q^2, -q^6), as identity 1 sums it, vs substitution into psi
        direct = theta_sum(MonomialArg(-1, 2), MonomialArg(-1, 6), 40)
        alt = subst_monomial(psi(20), -1, 2)
        assert direct.coeffs == alt.coeffs


class TestEta256Block:
    def test_expansion_coefficients(self):
        # q^(-1/4) eta256 = 1 - 4q - 3q^2 - 4q^3 - 2q^4 + 11q^6 - 4q^7
        #                   + 12q^9 - 10q^10 + 12q^11 - 7q^12 + ...
        # The q^12 coefficient is pinned down two independent ways: it equals
        # f_49 = f_7^2 - 7 with f_7 = 0 from point counting, and flipping its
        # sign breaks both product identities checked in TestIdentities.
        u = unit_product(eta256_block(13), 13)
        assert u.coeffs == (1, -4, -3, -4, -2, 0, 11, -4, 0, 12, -10, 12, -7)

    def test_q12_coefficient_from_hecke(self):
        f = an_expansion(curve_from_quintuple(ETA256_CURVE), 50)
        assert f.coeffs[7] == 0
        assert f.coeffs[49] == f.coeffs[7] ** 2 - 7 == -7

    def test_isogenous_model_same_expansion(self):
        f = an_expansion(curve_from_quintuple(ETA256_CURVE), 60)
        g = an_expansion(curve_from_quintuple((0, 0, 0, 8, 0)), 60)
        assert f.coeffs == g.coeffs

    def test_series_substitution_matches_counting(self):
        # f_256 = eta256(q^4) = q * U(q^4) for U = prod (1 - q^n)^(a_n)
        u = unit_product(eta256_block(13), 13)
        f = an_expansion(curve_from_quintuple(ETA256_CURVE), 50)
        for n in range(1, 50):
            assert f.coeffs[n] == (u.coeffs[(n - 1) // 4] if n % 4 == 1 else 0), n

    def test_leading_exponent(self):
        # eta256 = q^(1/4) (1 + O(q)), so eta256^2(q^2) starts at q^1
        assert weight4_series(8).coeffs[:2] == (0, 1)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 22, 50, 200, 801])
    def test_square_equals_product_route(self, order):
        assert _eta256_squared(order) == eta256_squared_by_product(order)
        c = [0] * order
        c[1::2] = eta256_squared_by_product(max(1, order // 2)).coeffs[: order // 2]
        assert weight4_series(order) == PowerSeries(tuple(c))

    def test_no_exponent_extraction(self, monkeypatch):
        # the square comes from the point count in coefficient form, so
        # neither check converts it to exponents and back
        original = products.extract_exponents
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("newform_products"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
        assert verify_eta256_identities(800) == (True, True, (None, None))
        report = verify_weight4(800)
        assert report["printed_ok"] and report["multiplicative_ok"]
        assert calls == []

    def test_off_grid_coefficient_raises(self, monkeypatch):
        bump_count(monkeypatch, 2, 1)
        with pytest.raises(BlockMismatch, match="f_2 = 1"):
            _eta256_squared(10)


class TestWeight4:
    def test_printed_coefficients(self):
        w = weight4_series(22)
        for n, v in WEIGHT4_PRINTED.items():
            assert w.coeffs[n] == v, n

    def test_multiplicativity_report(self):
        rep = verify_weight4(200)
        assert rep["printed_ok"] and rep["multiplicative_ok"]

    def test_even_coefficients_vanish(self):
        w = weight4_series(60)
        assert all(w.coeffs[n] == 0 for n in range(0, 60, 2))


class TestIdentities:
    def test_both_identities_hold(self):
        ok1, ok2, where = verify_eta256_identities(50)
        assert ok1 and ok2, where

    def test_low_order(self):
        ok1, ok2, where = verify_eta256_identities(8)
        assert ok1 and ok2, where

    def test_sensitivity(self):
        # the theta-form identity distinguishes eta256^2 from a scaled fake:
        # phi(q)*psi^2(-q^2) has q^0 coefficient 1, eta256^2/q^(1/2) starts 1, -8
        lhs = phi(30)
        assert _eta256_squared(16).coeffs[:2] == (1, -8)
        assert lhs.coeffs[0] == 1

    def test_perturbed_block_fails_both_at_first_changed_term(self, monkeypatch):
        # f_21 - 1 is U_5 - 1, which changes U^2 = q^(-1/2) eta256^2 first at
        # q^5 (by -2, as a_5 + 1 would); identity 2 reads it in eta256^2
        bump_count(monkeypatch, 21, -1)
        assert verify_eta256_identities(30) == (
            False, False, (Fraction(5), Fraction(11, 2))
        )

    def test_identity_2_mismatch_read_in_eta256_squared(self, monkeypatch):
        # one more factor (1 - q^2) beside the eta(-q^2) powers changes only
        # identity 2, at q^2 of q^(-1/2) eta256^2, which is q^(5/2) of eta256^2
        # (theta_product, which the check does not call, passes r = 1)
        add = theta._add_signed_factors

        def bumped(g, first, step, sign, ratio, r):
            add(g, first, step, sign, ratio, r)
            if first == 2 and r != 1:
                g[2] += 1

        monkeypatch.setattr(theta, "_add_signed_factors", bumped)
        assert verify_eta256_identities(30) == (True, False, (None, Fraction(5, 2)))


class TestSignedFactors:
    @pytest.mark.parametrize("r", [-2, 2, 12])
    def test_equals_power_of_eta_signed(self, r):
        # eta(-q^2)^r = q^(r/12) prod (1 - (-1)^n q^(2n))^r
        order = 60
        g = [0] * order
        _add_signed_factors(g, 2, 2, -1, -1, r)
        ours = (Fraction(r, 12), _expand(g))
        theirs = frac_pow(eta_signed(2, -1, order // 2 + 1), r)
        ok, where = frac_equal_to_by_exponents(ours, theirs, order - 1)
        assert ok, where

    def test_last_factor_inside_the_order(self):
        # 1 + q^3 = (1 - q^6) / (1 - q^3): the q^6 term falls outside order 6
        g = [0] * 6
        _add_signed_factors(g, 3, 3, -1, 1, 1)
        assert g == [0, 0, 0, -1, 0, 0]
        assert _expand(g).coeffs == (1, 0, 0, 1, 0, 0)
