import random
from fractions import Fraction

import pytest

from newform_products import qseries
from newform_products.errors import (
    NonUnitConstantTerm,
)
from newform_products.qseries import (
    PowerSeries,
    frac_mul,
)

from oracles import (
    binomial,
    frac_equal_to_by_exponents,
    frac_pow,
    frac_subst_scale,
    inverse_by_recurrence,
    mul_schoolbook,
    q_d_dq,
    subst_monomial,
)


def series(*coeffs):
    return PowerSeries(tuple(coeffs))


def rand_series(rng, order, bound=9):
    return PowerSeries(tuple(rng.randint(-bound, bound) for _ in range(order)))


class TestAddMul:
    def test_add_examples(self):
        a = PowerSeries.from_terms({0: 1, 1: 1}, 10)
        b = PowerSeries.from_terms({0: 1, 1: -1}, 10)
        assert (a + b).coeffs == (2,) + (0,) * 9
        z = PowerSeries((0,) * 10)
        assert (a + z).coeffs == a.coeffs

    def test_add_truncates_to_min_order(self):
        a = PowerSeries.one(5)
        b = PowerSeries.one(8)
        assert (a + b).order == 5

    def test_mul_geometric(self):
        one_minus_q = PowerSeries.from_terms({0: 1, 1: -1}, 12)
        geo = PowerSeries((1,) * 12)
        assert (one_minus_q * geo).coeffs == PowerSeries.one(12).coeffs

    def test_mul_square(self):
        a = PowerSeries.from_terms({0: 1, 1: 1}, 6)
        assert (a * a).coeffs == (1, 2, 1, 0, 0, 0)

    def test_mul_identity(self):
        rng = random.Random(7)
        a = rand_series(rng, 9)
        assert (a * PowerSeries.one(9)).coeffs == a.coeffs


class TestInverse:
    def test_geometric(self):
        a = PowerSeries.from_terms({0: 1, 1: -1}, 8)
        assert a.inverse().coeffs == (1,) * 8

    def test_one(self):
        assert PowerSeries.one(5).inverse().coeffs == PowerSeries.one(5).coeffs

    def test_fibonacci(self):
        a = PowerSeries.from_terms({0: 1, 1: -1, 2: -1}, 8)
        assert a.inverse().coeffs == (1, 1, 2, 3, 5, 8, 13, 21)

    def test_two_sided(self):
        rng = random.Random(21)
        for _ in range(20):
            a = rand_series(rng, 16)
            a = PowerSeries((rng.choice([1, -1]),) + a.coeffs[1:])
            assert (a * a.inverse()).coeffs == PowerSeries.one(16).coeffs
            assert (a.inverse() * a).coeffs == PowerSeries.one(16).coeffs

    def test_rejects_non_unit(self):
        with pytest.raises(NonUnitConstantTerm):
            series(2, 1, 1).inverse()


class TestPow:
    def test_binomial_cases(self):
        a = PowerSeries.from_terms({0: 1, 1: -1}, 6)
        assert a.pow_int(4).coeffs == (1, -4, 6, -4, 1, 0)
        assert a.pow_int(-2).coeffs == (1, 2, 3, 4, 5, 6)
        assert a.pow_int(0).coeffs == PowerSeries.one(6).coeffs

    def test_negative_power_needs_unit(self):
        with pytest.raises(NonUnitConstantTerm):
            series(3, 1).pow_int(-1)

    def test_binomial_shortcut_matches_series_power(self):
        # sum_k C(g,k)(-x)^k truncated equals the pow/inverse route
        T = 20
        for g in range(-5, 6):
            for n in (1, 2, 3):
                base = PowerSeries.from_terms({0: 1, n: -1}, T)
                direct = base.pow_int(g)
                expected = [0] * T
                k = 0
                while k * n < T:
                    expected[k * n] = binomial(g, k) * (-1) ** k
                    if g >= 0 and k == g:
                        break
                    k += 1
                assert direct.coeffs == tuple(expected), (g, n)

    def test_exponent_addition(self):
        rng = random.Random(5)
        a = PowerSeries((1,) + tuple(rng.randint(-3, 3) for _ in range(11)))
        for x in range(-3, 4):
            for y in range(-3, 4):
                lhs = a.pow_int(x + y)
                rhs = a.pow_int(x) * a.pow_int(y)
                assert lhs.coeffs == rhs.coeffs


class TestDerivationAndSubst:
    def test_derivation_rule(self):
        rng = random.Random(11)
        for _ in range(25):
            a, b = rand_series(rng, 12), rand_series(rng, 12)
            lhs = q_d_dq(a * b)
            rhs = q_d_dq(a) * b + a * q_d_dq(b)
            assert lhs.coeffs == rhs.coeffs

    def test_subst_examples(self):
        assert subst_monomial(series(1, 1, 1), -1, 2).coeffs == (1, 0, -1, 0, 1, 0)
        a = series(3, -2, 5)
        assert subst_monomial(a, 1, 1).coeffs == a.coeffs
        assert subst_monomial(series(1, 1), -1, 3).coeffs == (1, 0, 0, -1, 0, 0)

    def test_subst_is_ring_morphism(self):
        rng = random.Random(13)
        for sign, t in [(1, 2), (-1, 2), (-1, 3)]:
            a, b = rand_series(rng, 10), rand_series(rng, 10)
            lhs = subst_monomial(a * b, sign, t)
            rhs = subst_monomial(a, sign, t) * subst_monomial(b, sign, t)
            assert lhs.coeffs == rhs.coeffs


class TestRingAxioms:
    def test_randomized_axioms(self):
        rng = random.Random(2024)
        T = 32
        for _ in range(100):
            a, b, c = (rand_series(rng, T) for _ in range(3))
            assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
            assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
            assert (a * b).coeffs == (b * a).coeffs
            assert (a + b).coeffs == (b + a).coeffs

    def test_truncation_monotone(self):
        # recomputing at higher order reproduces lower-order coefficients
        rng = random.Random(3)
        a_hi, b_hi = rand_series(rng, 40), rand_series(rng, 40)
        a_lo, b_lo = PowerSeries(a_hi.coeffs[:20]), PowerSeries(b_hi.coeffs[:20])
        assert (a_lo * b_lo).coeffs == (a_hi * b_hi).coeffs[:20]


def strided_series(rng, order, stride, bits, density=0.7):
    """Random signed coefficients of up to `bits` bits on the stride grid."""
    c = [0] * order
    for n in range(0, order, stride):
        if rng.random() < density:
            c[n] = rng.randint(-(2 ** bits), 2 ** bits)
    return PowerSeries(tuple(c))


class TestAgainstSchoolbook:
    """The series product, the kernel's inverse and the integer comparison
    against the term-by-term routes in oracles.py."""

    BITS = (0, 1, 7, 8, 63, 64, 200, 1000)  # 2^1000 is about 10^301

    def test_products(self):
        rng = random.Random(1001)
        for stride in (1, 2, 3, 24):
            for bits in self.BITS:
                for _ in range(6):
                    a = strided_series(rng, rng.randint(1, 40 * stride), stride, bits)
                    b = strided_series(rng, rng.randint(1, 40 * stride), rng.choice((1, stride)), bits)
                    assert (a * b).coeffs == mul_schoolbook(a, b).coeffs
                    assert (a * a).coeffs == mul_schoolbook(a, a).coeffs

    def test_mixed_sizes_and_signs(self):
        rng = random.Random(1002)
        for _ in range(200):
            a = strided_series(rng, rng.randint(1, 40), 1, rng.choice(self.BITS))
            b = strided_series(rng, rng.randint(1, 40), 1, rng.choice(self.BITS), 0.2)
            assert (a * b).coeffs == mul_schoolbook(a, b).coeffs

    def test_extreme_coefficients(self):
        # every coefficient at the largest magnitude of its bit length, so the
        # top product coefficient T * (2^k - 1)^2 comes near its slot's limit
        # for every bit length mod 8; all of one sign, or alternating
        for big in [2 ** k - 1 for k in range(1, 18)] + [10 ** 300]:
            for T in (1, 2, 3, 7, 15, 16, 17, 63):
                for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
                    a = PowerSeries(tuple(sa * big for _ in range(T)))
                    b = PowerSeries(tuple(sb * (-1) ** n * big for n in range(T)))
                    assert (a * b).coeffs == mul_schoolbook(a, b).coeffs
                assert (a * a).coeffs == mul_schoolbook(a, a).coeffs

    def test_small_and_degenerate(self):
        rng = random.Random(1003)
        cases = [
            PowerSeries((0,)),
            PowerSeries((5,)),
            PowerSeries((-(10 ** 300),)),
            PowerSeries((0,) * 12),
            PowerSeries.one(12),
            PowerSeries.from_terms({7: -3}, 12),
            PowerSeries.from_terms({11: 10 ** 40}, 12),
            PowerSeries.from_terms({0: 2, 6: 1}, 9),
            rand_series(rng, 12),
        ]
        for a in cases:
            for b in cases:
                assert (a * b).coeffs == mul_schoolbook(a, b).coeffs

    def test_inverses(self):
        rng = random.Random(1004)
        for stride in (1, 2, 3, 24):
            for bits in self.BITS:
                for c0 in (1, -1):
                    # up to 80 grid terms, so the kernel crosses its 32-term blocks
                    a = strided_series(rng, rng.randint(1, 80 * stride), stride, bits)
                    a = PowerSeries((c0,) + a.coeffs[1:])
                    assert a.inverse().coeffs == inverse_by_recurrence(a).coeffs
        for a in (PowerSeries((-1,)), PowerSeries.one(1), PowerSeries.one(50)):
            assert a.inverse().coeffs == inverse_by_recurrence(a).coeffs


def toeplitz_double_loop(T, a):
    """r_k = sum_i a_i T[k - i + n - 1] for 0 <= k < n = len(a), one term at a time."""
    n = len(a)
    return [sum(a[i] * T[k - i + n - 1] for i in range(n)) for k in range(n)]


class TestToeplitz:
    """The kernel's wide cross-product against a double loop at every length
    1..130: odd and even, at the leaf of 32 terms and across the splits at
    64 and 128, in both directions the kernel uses it."""

    def _check(self, rng, wide_vector):
        def terms(count, bound):
            return [rng.randint(-bound, bound) for _ in range(count)]

        for n in range(1, 131):
            if wide_vector:  # extraction: wide c against the narrow u
                T, a = terms(2 * n - 1, 9), terms(n, 2 ** 3000)
            else:  # unit_product: wide c against the u being solved
                T, a = terms(2 * n - 1, 2 ** 3000), terms(n, 9)
            before = (list(T), list(a))
            assert qseries._toeplitz(T, a) == toeplitz_double_loop(T, a), n
            assert (T, a) == before

    def test_wide_vector_narrow_matrix(self):
        self._check(random.Random(2601), wide_vector=True)

    def test_wide_matrix_narrow_vector(self):
        self._check(random.Random(2602), wide_vector=False)


class TestMiddle:
    """The one product routine against a double loop at every length 1..130,
    with terms sized so that `_slot_bits` lands on both sides of each slot
    width's limit (1, 2, 4 and 8 bytes) and of the switch to `_toeplitz`."""

    BITS = (7, 8, 15, 16, 31, 32, 55, 56, 63, 64)

    def test_equals_double_loop_across_slot_widths(self):
        rng = random.Random(3101)
        for n in range(1, 131):
            for bits in self.BITS:
                # max|T| and max|a| of bt and ba bits, so bt + ba + bit_length(n) = bits
                spare = bits - n.bit_length()
                if spare < 2:
                    continue
                ba = rng.randint(1, spare - 1)
                top_t, top_a = 2 ** (spare - ba) - 1, 2 ** ba - 1
                # every term at its largest magnitude, so the middle terms come
                # near the slot's limit, once of one sign and once of mixed signs
                for signs in (lambda: 1, lambda: rng.choice((1, -1))):
                    T = [signs() * top_t for _ in range(2 * n - 1)]
                    a = [signs() * top_a for _ in range(n)]
                    assert qseries._slot_bits(T, a) == bits
                    assert qseries._middle(T, a) == toeplitz_double_loop(T, a), (n, bits)


class TestFracSeries:
    """Fractional-exponent series as (prefactor, PowerSeries in q) pairs."""

    def test_frac_mul_offsets_add(self):
        a = (Fraction(1, 24), PowerSeries.one(4))  # q^(1/24)
        prod = frac_mul(a, a)
        assert prod == (Fraction(1, 12), PowerSeries.one(4))

    def test_inverse_cancels(self):
        eta_like = (Fraction(1, 24), PowerSeries.from_terms({0: 1, 1: -1, 2: -1}, 6))
        prod = frac_mul(eta_like, frac_pow(eta_like, -1))
        assert prod == (0, PowerSeries.one(6))

    def test_frac_pow_zero_and_inverse_pair(self):
        a = (Fraction(1, 24), PowerSeries.from_terms({0: 1, 1: -1}, 3))
        assert frac_pow(a, 0) == (0, PowerSeries.one(3))
        ident = frac_mul(frac_pow(a, -1), frac_pow(a, 1))
        assert ident == (0, PowerSeries.one(3))

    def test_frac_pow_scales_leading_exponent(self):
        # eta-shaped block at scale 6 raised to the 4th: leading exponent 1
        eta = (Fraction(1, 24), PowerSeries.from_terms({0: 1, 1: -1}, 30))
        scaled = frac_subst_scale(eta, 6)
        powered = frac_pow(scaled, 4)
        assert powered[0] == 1
        assert powered[1] == PowerSeries.from_terms({0: 1, 6: -1}, 180).pow_int(4)

    def test_frac_equal_to_reports_first_mismatch(self):
        a = (Fraction(1, 2), PowerSeries((1, 2, 3)))
        b = (Fraction(1, 2), PowerSeries((1, 2, 4)))
        ok, at = frac_equal_to_by_exponents(a, b, 3)
        assert not ok and at == Fraction(5, 2)
