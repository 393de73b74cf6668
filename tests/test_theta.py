"""Two-variable theta series, the conductor-256 block, and its identities."""

from fractions import Fraction

import pytest

from newform_products.elliptic import an_expansion, curve_from_quintuple
from newform_products.products import unit_product
from newform_products.qseries import frac_equal_to, frac_subst_scale, frac_pow
from newform_products.theta import (
    ETA256_CURVE,
    ETA256_CURVE_ISOGENOUS,
    MonomialArg,
    WEIGHT4_PRINTED,
    eta256_block,
    eta256_series,
    phi,
    psi_neg_q2,
    theta_product,
    theta_sum,
    verify_eta256_identities,
    verify_weight4,
    weight4_series,
)

from oracles import psi

PAIRS = [
    (MonomialArg(1, 1, 1), MonomialArg(1, 1, 1)),
    (MonomialArg(1, 1, 1), MonomialArg(1, 3, 1)),
    (MonomialArg(-1, 1, 1), MonomialArg(-1, 3, 1)),
    (MonomialArg(1, 2, 1), MonomialArg(1, 2, 1)),
    (MonomialArg(1, 1, 1), MonomialArg(1, 5, 1)),
    (MonomialArg(1, 1, 2), MonomialArg(1, 3, 2)),
    (MonomialArg(-1, 1, 3), MonomialArg(1, 2, 1)),
]


class TestTripleProduct:
    @pytest.mark.parametrize("a,b", PAIRS)
    def test_sum_equals_product(self, a, b):
        s = theta_sum(a, b, 200)
        p = theta_product(a, b, 200)
        ok, where = frac_equal_to(s, p, 200)
        assert ok, where

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

    def test_psi_coefficients(self):
        f = psi(16)
        support = {n for n, c in enumerate(f.coeffs) if c}
        assert support == {0, 1, 3, 6, 10, 15}
        assert all(c in (0, 1) for c in f.coeffs)

    def test_psi_neg_q2_two_routes(self):
        # substitution into the sum vs substitution into psi itself
        direct = psi_neg_q2(40)
        base = psi(20)
        alt = base.subst_monomial(-1, 2, max_order=40)
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
        g = an_expansion(curve_from_quintuple(ETA256_CURVE_ISOGENOUS), 60)
        assert f.coeffs == g.coeffs

    def test_series_substitution_matches_counting(self):
        e = eta256_series(14)
        f4 = frac_subst_scale(e, 4)
        f = an_expansion(curve_from_quintuple(ETA256_CURVE), 50)
        for n in range(1, 50):
            assert f4.coeff_at(Fraction(n)) == f.coeffs[n], n

    def test_leading_exponent(self):
        s = eta256_series(8)
        assert Fraction(s.offset, s.denom) == Fraction(1, 4)


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
        e = eta256_series(16)
        sq = frac_pow(e, 2)
        assert sq.coeff_at(Fraction(1, 2)) == 1
        assert sq.coeff_at(Fraction(3, 2)) == -8
        assert lhs.coeffs[0] == 1
