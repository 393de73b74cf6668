"""Ramanujan theta functions with signed monomial arguments, and the
conductor-256 building-block identities.

theta(a, b) = sum_{n in Z} a^(n(n+1)/2) b^(n(n-1)/2)
            = (-a; ab)_inf (-b; ab)_inf (ab; ab)_inf      (Jacobi triple product)

Arguments are restricted to sign * q^(num/den); that covers every
specialization needed here and keeps everything in single-variable series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .elliptic import an_expansion, curve_from_quintuple
from .errors import InvalidArgs
from .eta import dedekind_eta, eta_signed
from .products import ExponentSequence, block_profile, extract_exponents, unit_product
from .qseries import (
    FracSeries,
    PowerSeries,
    frac_equal_to,
    frac_mul,
    frac_pow,
    frac_scale,
    frac_shift,
    frac_sub,
    frac_subst_scale,
)

ETA256_CURVE = (0, 0, 0, -2, 0)
ETA256_CURVE_ISOGENOUS = (0, 0, 0, 8, 0)


@dataclass(frozen=True)
class MonomialArg:
    """sign * q^(num/den) with num/den > 0 in lowest terms."""

    sign: int
    num: int
    den: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        if self.num < 1 or self.den < 1:
            raise ValueError("exponent must be positive")

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.num, self.den)


def _check_args(a: MonomialArg, b: MonomialArg) -> None:
    if a.exponent + b.exponent <= 0:
        raise InvalidArgs("theta arguments need a positive total exponent")


def theta_sum(a: MonomialArg, b: MonomialArg, order: int) -> FracSeries:
    """Bilateral sum over n; finite below any order since exponents grow
    quadratically in both directions."""
    _check_args(a, b)
    alpha, beta = a.exponent, b.exponent
    denom = _lcm(alpha.denominator, beta.denominator)
    bound = Fraction(order)
    terms: dict[int, int] = {}
    n = 0
    direction_done = [False, False]
    while not all(direction_done):
        for idx, m in enumerate((n, -n) if n else (0,)):
            tri_up = m * (m + 1) // 2
            tri_dn = m * (m - 1) // 2
            e = alpha * tri_up + beta * tri_dn
            if e >= bound:
                if m >= 0:
                    direction_done[0] = True
                if m <= 0:
                    direction_done[1] = True
                continue
            sign = (a.sign ** (tri_up % 2)) * (b.sign ** (tri_dn % 2))
            k = int(e * denom)
            terms[k] = terms.get(k, 0) + sign
        n += 1
    physical = order * denom
    return FracSeries.make(denom, 0, PowerSeries.from_terms(terms, physical))


def _lcm(x: int, y: int) -> int:
    return x * y // math.gcd(x, y)


def theta_product(a: MonomialArg, b: MonomialArg, order: int) -> FracSeries:
    """Triple-product side: (-a; ab)_inf (-b; ab)_inf (ab; ab)_inf.

    Every factor is 1 - eps q^(k/denom) with eps = +-1.  Writing
    1 + x = (1 - x^2)/(1 - x) turns all of them into product exponents on
    the q^(1/denom) grid, which one unit_product call expands.
    """
    _check_args(a, b)
    alpha, beta = a.exponent, b.exponent
    denom = _lcm(alpha.denominator, beta.denominator)
    physical = order * denom
    ab_sign = a.sign * b.sign
    step = int((alpha + beta) * denom)
    g = [0] * physical
    for first_sign, first in (
        (-a.sign, int(alpha * denom)),
        (-b.sign, int(beta * denom)),
        (ab_sign, step),
    ):
        for i, k in enumerate(range(first, physical, step)):
            if first_sign * ab_sign ** i == 1:
                g[k] += 1
            else:
                g[k] -= 1
                if 2 * k < physical:
                    g[2 * k] += 1
    inner = unit_product(ExponentSequence(tuple(g[1:])), physical)
    return FracSeries.make(denom, 0, inner)


def phi(order: int) -> PowerSeries:
    """phi(q) = theta(q, q) = 1 + 2 sum q^(n^2)."""
    s = theta_sum(MonomialArg(1, 1), MonomialArg(1, 1), order)
    return _as_power_series(s, order)


def psi_neg_q2(order: int) -> PowerSeries:
    """psi(-q^2) = sum (-1)^(T_n) q^(2 T_n), by substitution into the sum form."""
    out = {}
    n = 0
    while n * (n + 1) <= order - 1:
        tri = n * (n + 1) // 2
        out[2 * tri] = -1 if tri % 2 else 1
        n += 1
    return PowerSeries.from_terms(out, order)


def _as_power_series(s: FracSeries, order: int) -> PowerSeries:
    if s.denom != 1:
        raise InvalidArgs("series has genuinely fractional exponents")
    out = [0] * order
    for e, c in s.support():
        if e < order:
            out[int(e)] = c
    return PowerSeries(tuple(out))


def eta256_block(order: int) -> ExponentSequence:
    """Exponents a_n of the conductor-256 building block, from point counting.

    f_256(q) = eta256(q^4) with eta256 = q^(1/4) prod (1 - q^n)^(a_n); the a_n
    are the extracted product exponents of f_256 read on the t=4 grid.
    """
    f = an_expansion(curve_from_quintuple(ETA256_CURVE), 4 * order + 2)
    profile = block_profile(extract_exponents(f), 1, 4)
    return ExponentSequence(profile.a[:order])


def eta256_series(order: int) -> FracSeries:
    """eta256(q) = q^(1/4) * prod (1 - q^n)^(a_n) with inner order as given."""
    inner = unit_product(eta256_block(order), order)
    return FracSeries.make(4, 1, inner.subst_monomial(1, 4))


def weight4_series(order: int) -> PowerSeries:
    """eta256^2(q^2) = q * prod(1 - q^(2n))^(2 a_n); integer exponents."""
    sq = frac_pow(frac_subst_scale(eta256_series(max(2, (order + 1) // 2)), 2), 2)
    return _as_power_series(sq, order)


WEIGHT4_PRINTED = {
    1: 1, 3: -8, 5: 10, 7: 16, 9: 37, 11: 40,
    13: 50, 15: -80, 17: -30, 19: -40, 21: -128,
}


def verify_weight4(order: int) -> dict:
    """Check the printed weight-4 coefficients and odd-index multiplicativity."""
    if order < 22:
        raise ValueError("weight-4 check needs order >= 22")
    w = weight4_series(order)
    printed_failures = [
        n for n, v in WEIGHT4_PRINTED.items() if w.coeffs[n] != v
    ]
    mult_failures = []
    for m in range(3, order, 2):
        for n in range(m + 2, order, 2):
            if m * n >= order:
                break
            if math.gcd(m, n) == 1 and w.coeffs[m * n] != w.coeffs[m] * w.coeffs[n]:
                mult_failures.append((m, n))
    return {
        "printed_ok": not printed_failures,
        "printed_failures": printed_failures,
        "multiplicative_ok": not mult_failures,
        "multiplicative_failures": mult_failures,
    }


def verify_eta256_identities(order: int) -> tuple[bool, bool, object]:
    """Both closed forms for eta256^2, checked as exact series equalities.

    Identity 1: q^(-1/2) eta256^2(q) = phi^2(q^2) psi^2(-q^2) (phi^4(q^2) - 8q psi^4(-q^2))
    Identity 2: eta256^2(q) = (eta^12(-q^2) - 8 eta^12(q^4)) / (eta^2(-q^2) eta^2(q^4))

    Identity 2 is sensitive to the branch convention for eta(-q^2); with the
    positive-branch prefactor q^(1/12) used by eta_signed, the second
    numerator term carries no monomial factor (a parity count on the two
    sides forces this: the inner products are even in q, so any extra odd
    q-power on one numerator term is inconsistent).

    Returns (ok1, ok2, first mismatch exponent or None).
    """
    if order < 4:
        raise ValueError("identity check needs order >= 4")
    e256_sq = frac_pow(eta256_series(order + 1), 2)

    phi_q2 = phi(order + 1).subst_monomial(1, 2, order + 1)
    psi_m = psi_neg_q2(order + 1)
    q = PowerSeries.from_terms({1: 1}, order + 1)
    rhs1 = (
        phi_q2.pow_int(2)
        * psi_m.pow_int(2)
        * (phi_q2.pow_int(4) - q * psi_m.pow_int(4).scale(8))
    )
    lhs1 = frac_shift(e256_sq, Fraction(-1, 2))
    ok1, at1 = frac_equal_to(lhs1, FracSeries.from_power_series(rhs1), order)

    inner = order // 2 + 2
    eta_m_q2 = eta_signed(2, -1, inner)
    eta_q4 = frac_subst_scale(dedekind_eta(order // 4 + 2), 4)
    numer = frac_sub(
        frac_pow(eta_m_q2, 12),
        frac_scale(frac_pow(eta_q4, 12), 8),
    )
    denom = frac_mul(frac_pow(eta_m_q2, 2), frac_pow(eta_q4, 2))
    rhs2 = frac_mul(numer, frac_pow(denom, -1))
    ok2, at2 = frac_equal_to(e256_sq, rhs2, order)
    first = at1 if at1 is not None else at2
    return ok1, ok2, first
