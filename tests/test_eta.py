"""Eta products, the signed variant, and the divisor-sum identity."""

from fractions import Fraction

import pytest

from newform_products import eta
from newform_products.eta import (
    EtaQuotient,
    eta_quotient_series,
    eta_signed,
    euler_product,
    verify_e2_identity,
)
from newform_products.elliptic import an_expansion, curve_from_quintuple
from newform_products.qseries import PowerSeries
from newform_products.registry import record_for

from oracles import (
    coeff_at,
    divisors,
    euler_product_dense,
    eta_quotient_series_by_powers,
    frac_equal_to_by_exponents,
    frac_subst_scale,
    inverse_by_recurrence,
    q_d_dq,
    subst_monomial,
    support,
)
from test_elliptic import MARTIN_ONO


class TestEulerProduct:
    def test_pentagonal_vs_dense(self):
        assert euler_product(500).coeffs == euler_product_dense(500).coeffs

    def test_first_coefficients(self):
        # 1 - q - q^2 + q^5 + q^7 - q^12 + ...
        assert euler_product(13).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_shortest_orders_vs_dense(self, order):
        assert euler_product(order).coeffs == euler_product_dense(order).coeffs

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            euler_product(0)


class TestDedekindEta:
    def test_leading_exponent(self):
        e, _ = eta_signed(1, 1, 10)
        assert e == Fraction(1, 24)

    def test_support_pattern(self):
        # exponents are 1/24 + pentagonal integers
        e = eta_signed(1, 1, 8)
        exps = [x for x, _ in support(e)]
        assert exps[:4] == [
            Fraction(1, 24),
            Fraction(25, 24),
            Fraction(49, 24),
            Fraction(121, 24),
        ]

    def test_signed_positive_branch_is_substitution(self):
        for t in range(1, 9):
            direct = eta_signed(t, 1, 20)
            scaled = frac_subst_scale(eta_signed(1, 1, -(-20 // t) + 1), t)
            ok, where = frac_equal_to_by_exponents(direct, scaled, 20)
            assert ok, (t, where)

    def test_signed_negative_branch_leading_terms(self):
        # prod (1 - (-1)^n q^n) = (1+q)(1-q^2)(1+q^3)... = 1 + q - q^2 + ...
        e = eta_signed(1, -1, 10)
        assert coeff_at(e, Fraction(1, 24)) == 1
        assert coeff_at(e, Fraction(25, 24)) == 1
        assert coeff_at(e, Fraction(49, 24)) == -1

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", [1, 2, 60])
    def test_signed_negative_branch_is_literal_product(self, t, order):
        inner = PowerSeries.one(order)
        for n in range(1, order):
            inner = inner * PowerSeries.from_terms({0: 1, n: -((-1) ** n)}, order)
        literal = (Fraction(t, 24), subst_monomial(inner, 1, t))
        assert eta_signed(t, -1, order) == literal

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_signed_is_substituted_dense_product(self, t, sign):
        # Euler's product multiplied out factor by factor, then q -> sign q^t
        expected = subst_monomial(euler_product_dense(40), sign, t)
        assert eta_signed(t, sign, 40) == (Fraction(t, 24), expected)

    def test_signed_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            eta_signed(1, 2, 10)


class TestEtaQuotient:
    def test_terms_validated(self):
        with pytest.raises(ValueError):
            EtaQuotient(terms=((6, 0),))
        with pytest.raises(ValueError):
            EtaQuotient(terms=((6, 4), (6, 1)))

    @pytest.mark.parametrize("length", [1, 2, 50, 200])
    @pytest.mark.parametrize("level", sorted(MARTIN_ONO))
    def test_martin_ono_exponents_are_divisor_sums(self, level, length):
        r = dict(MARTIN_ONO[level][1])
        expected = [0] + [
            sum(r.get(d, 0) for d in divisors(n)) for n in range(1, length)
        ]
        assert EtaQuotient(MARTIN_ONO[level][1]).exponents(length) == expected

    def test_weight_and_leading_exponent(self):
        eq = EtaQuotient(terms=((6, 4),))
        assert eq.weight_numerator == 4
        assert eq.leading_exponent == Fraction(1)

    def test_level36_quotient_matches_newform(self):
        eq = EtaQuotient(terms=((6, 4),))
        series = eta_quotient_series(eq, 60)
        rec = record_for(36)
        target = an_expansion(curve_from_quintuple(rec.curves[0]), 60)
        for n in range(1, 60):
            assert coeff_at(series, n) == target.coeffs[n], n

    @pytest.mark.parametrize("order", [3, 50, 200])
    @pytest.mark.parametrize("level", sorted(MARTIN_ONO))
    def test_martin_ono_equals_product_of_powers(self, level, order):
        eq = EtaQuotient(MARTIN_ONO[level][1])
        ok, where = frac_equal_to_by_exponents(
            eta_quotient_series(eq, order), eta_quotient_series_by_powers(eq, order), order
        )
        assert ok, where

    @pytest.mark.parametrize(
        "terms", [(), ((1, 1),), ((1, -1),), ((1, 3), (2, -1)), ((3, 5), (5, -7))]
    )
    def test_fractional_prefactor_equals_product_of_powers(self, terms):
        eq = EtaQuotient(terms)
        series = eta_quotient_series(eq, 40)
        assert series[0] == eq.leading_exponent
        ok, where = frac_equal_to_by_exponents(series, eta_quotient_series_by_powers(eq, 40), 39)
        assert ok, where

    def test_periodic_exponent_recovery(self):
        # g_n of the level-36 newform is 4 on multiples of 6, 0 elsewhere
        from newform_products.products import extract_exponents

        rec = record_for(36)
        f = an_expansion(curve_from_quintuple(rec.curves[0]), 50)
        g = extract_exponents(f)
        for n in range(1, g.upto + 1):
            assert g.g[n - 1] == (4 if n % 6 == 0 else 0)


class TestE2Identity:
    def test_identity_holds(self):
        assert verify_e2_identity(120)

    def test_identity_detects_perturbation(self, monkeypatch):
        p = euler_product(40)
        bumped = p + PowerSeries.from_terms({10: 1}, 40)
        sigma = [0] + [sum(divisors(n)) for n in range(1, 40)]
        lhs = q_d_dq(bumped) * inverse_by_recurrence(bumped)
        assert any(lhs.coeffs[n] != -sigma[n] for n in range(1, 40))
        # the unperturbed series does satisfy it, term for term
        lhs0 = q_d_dq(p) * inverse_by_recurrence(p)
        assert all(lhs0.coeffs[n] == -sigma[n] for n in range(1, 40))
        # a bump at the last index too, so every coefficient is compared
        for n in (10, 39):
            bumped = p + PowerSeries.from_terms({n: 1}, 40)
            monkeypatch.setattr(eta, "euler_product", lambda order: bumped)
            assert not verify_e2_identity(40), n
