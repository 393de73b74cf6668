"""Ramanujan theta functions with signed monomial arguments, and the
conductor-256 building-block identities.

theta(a, b) = sum_{n in Z} a^(n(n+1)/2) b^(n(n-1)/2)
            = (-a; ab)_inf (-b; ab)_inf (ab; ab)_inf      (Jacobi triple product)

Arguments are restricted to sign * q^(num/den); that covers every
specialization needed here and keeps everything in single-variable series.

Every product here (the triple product and the eta powers of identity 2)
is written as prod (1 - q^k)^(g_k) and expanded by one unit_product call.
A factor 1 + x becomes (1 - x^2)/(1 - x), and a prefactor q^(t r/24) of
eta^r(+-q^t) is carried as an exponent, not as a series.  eta256^2 needs
no product at all: point counting gives eta256 in coefficient form, and one
series squaring gives its square.  Series powers remain only for that
square and the powers of phi(q^2) and psi(-q^2) in identity 1, which are
both theta_sum specializations, as is Euler's product f(-q, -q^2).

Each identity check compares integer lists on the grid its two sides
share: q^(1/d) for the triple product, and the integer grid for the eta256
identities once their prefactor q^(1/2) is divided out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .elliptic import an_expansion, curve_from_quintuple
from .errors import BlockMismatch
from .products import ExponentSequence, unit_product
from .qseries import FracSeries, PowerSeries, _regrid

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


def theta_sum(a: MonomialArg, b: MonomialArg, order: int) -> FracSeries:
    """Bilateral sum over n on the q^(1/D) grid, D = lcm(a.den, b.den): term n
    sits at index A T_n + B T_(n-1), A = a.num D / a.den and B likewise, and
    term -k is term k with a and b exchanged.  Indices grow with |n|, so each
    direction stops at its first index >= order D."""
    denom = math.lcm(a.den, b.den)
    terms: dict[int, int] = {}
    for x, y, first in ((a, b, 0), (b, a, 1)):
        step_x, step_y = x.num * denom // x.den, y.num * denom // y.den
        for n in count(first):
            tri_up, tri_dn = n * (n + 1) // 2, n * (n - 1) // 2
            k = step_x * tri_up + step_y * tri_dn
            if k >= order * denom:
                break
            terms[k] = terms.get(k, 0) + x.sign ** (tri_up % 2) * y.sign ** (tri_dn % 2)
    return FracSeries.make(denom, 0, PowerSeries.from_terms(terms, order * denom))


def theta_product(a: MonomialArg, b: MonomialArg, order: int) -> FracSeries:
    """Triple-product side: (-a; ab)_inf (-b; ab)_inf (ab; ab)_inf.

    Every factor is 1 - eps q^(k/denom) with eps = +-1, so the three
    products become exponents on the q^(1/denom) grid, which one
    unit_product call expands.
    """
    alpha, beta = a.exponent, b.exponent
    denom = math.lcm(alpha.denominator, beta.denominator)
    ab_sign = a.sign * b.sign
    step = int((alpha + beta) * denom)
    g = [0] * (order * denom)
    _add_signed_factors(g, int(alpha * denom), step, -a.sign, ab_sign, 1)
    _add_signed_factors(g, int(beta * denom), step, -b.sign, ab_sign, 1)
    _add_signed_factors(g, step, step, ab_sign, ab_sign, 1)
    return FracSeries.make(denom, 0, _expand(g))


def _add_signed_factors(g: list, first: int, step: int, sign: int, ratio: int, r: int) -> None:
    """Add to g the exponents of prod_{i>=0} (1 - sign ratio^i q^(first + i step))^r.

    g[k] is the exponent of (1 - q^k) for 1 <= k < len(g).  A factor with
    sign -1 is 1 + x = (1 - x^2)/(1 - x), so it adds -r at k and r at 2k.
    """
    eps = sign
    for k in range(first, len(g), step):
        if eps == 1:
            g[k] += r
        else:
            g[k] -= r
            if 2 * k < len(g):
                g[2 * k] += r
        eps *= ratio


def _expand(g: list) -> PowerSeries:
    """prod_{1 <= k < len(g)} (1 - q^k)^(g[k]) to order len(g)."""
    return unit_product(ExponentSequence(tuple(g[1:])), len(g))


def _eta256_squared(order: int) -> PowerSeries:
    """q^(-1/2) eta256^2 = U^2 to the given order.

    f_256(q) = eta256(q^4) = q U(q^4) with U = q^(-1/4) eta256(q), so U is
    read off the point count at every n = 1 (mod 4).
    """
    f = an_expansion(curve_from_quintuple(ETA256_CURVE), 4 * order - 2)
    for n, c in enumerate(f.coeffs):
        if n % 4 != 1 and c != 0:
            raise BlockMismatch(f"f_{n} = {c} nonzero off n = 1 (mod 4)")
    u = PowerSeries(f.coeffs[1::4])
    return u * u


def weight4_series(order: int) -> PowerSeries:
    """eta256^2(q^2) = q U(q^2)^2; integer exponents."""
    c = [0] * order
    c[1::2] = _eta256_squared(max(1, order // 2)).coeffs[: order // 2]
    return PowerSeries(tuple(c))


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


def verify_eta256_identities(order: int) -> tuple[bool, bool, tuple]:
    """Both closed forms for eta256^2, checked as exact series equalities.

    Identity 1: q^(-1/2) eta256^2(q) = phi^2(q^2) psi^2(-q^2) (phi^4(q^2) - 8q psi^4(-q^2))
    Identity 2: eta256^2(q) = (eta^12(-q^2) - 8 eta^12(q^4)) / (eta^2(-q^2) eta^2(q^4))

    Each eta power eta^r(+-q^t) is q^(t r/24) times a product, so the
    prefactors are q^(1/2) for eta256^2 (eta256 = q^(1/4) U),
    q^1 for eta^12(-q^2), q^2 for eta^12(q^4), and q^(1/6) q^(1/3) = q^(1/2)
    for the denominator.  Dividing identity 2 by q^(1/2) leaves
    P = X - 8q Y in integer series, with P = U^2, X = eta^12(-q^2) / D and
    Y = eta^12(q^4) / D stripped of their prefactors, and D the
    denominator; X and Y are each one unit_product call on combined
    exponents.

    Identity 2 is sensitive to the branch convention for eta(-q^2); with the
    positive-branch prefactor q^(1/12) used by eta_signed, the second
    numerator term carries no monomial factor (a parity count on the two
    sides forces this: the inner products are even in q, so any extra odd
    q-power on one numerator term is inconsistent).

    Returns (ok1, ok2, (at1, at2)), each at the first mismatch exponent of
    its identity or None; at1 is read in q^(-1/2) eta256^2 and at2 in
    eta256^2.
    """
    if order < 4:
        raise ValueError("identity check needs order >= 4")
    lhs = _eta256_squared(order)

    # phi(q^2) = theta(q^2, q^2) and psi(-q^2) = theta(-q^2, -q^6) lie on the integer
    # grid with constant term 1, so their normal form is the summed series itself
    phi_q2 = theta_sum(MonomialArg(1, 2), MonomialArg(1, 2), order).series
    psi_m = theta_sum(MonomialArg(-1, 2), MonomialArg(-1, 6), order).series
    q_psi4 = PowerSeries((0,) + psi_m.pow_int(4).coeffs[:-1])
    rhs1 = phi_q2.pow_int(2) * psi_m.pow_int(2) * (phi_q2.pow_int(4) - q_psi4.scale(8))
    at1 = _first_mismatch(lhs, rhs1)

    g_x, g_y = [0] * order, [0] * order
    _add_signed_factors(g_x, 2, 2, -1, -1, 12 - 2)
    _add_signed_factors(g_y, 2, 2, -1, -1, -2)
    for k in range(4, order, 4):
        g_x[k] -= 2
        g_y[k] += 12 - 2
    q_y = PowerSeries((0,) + _expand(g_y).coeffs[:-1])
    at2 = _first_mismatch(lhs, _expand(g_x) - q_y.scale(8))
    if at2 is not None:
        at2 += Fraction(1, 2)
    return at1 is None, at2 is None, (at1, at2)


def verify_triple_product(a: MonomialArg, b: MonomialArg, order: int) -> tuple[bool, Fraction | None]:
    """(ok, first mismatch or None) of theta_sum = theta_product below q^order.
    Both start at q^0 with constant term 1, so on their common grid q^(1/d)
    they are integer lists of length order * d."""
    s, p = theta_sum(a, b, order), theta_product(a, b, order)
    d = math.lcm(s.denom, p.denom)
    at = _first_mismatch(_regrid(s, d).series, _regrid(p, d).series)
    return at is None, None if at is None else at / d


def _first_mismatch(a: PowerSeries, b: PowerSeries) -> Fraction | None:
    """The first exponent where a and b differ, or None where they agree."""
    return next((Fraction(n) for n, (x, y) in enumerate(zip(a.coeffs, b.coeffs)) if x != y), None)
