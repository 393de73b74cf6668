"""Dedekind eta, signed-argument eta, eta quotients, and the E2 identity.

An eta quotient prod_t eta(q^t)^(r_t) is q^(sum t r_t / 24) times
prod_n (1 - q^n)^(g_n) with g_n = sum_{t | n} r_t, so it is expanded from
those exponents by one unit_product call, and the rational prefactor is
attached to the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .products import ExponentSequence, _logder_coefficients, unit_product
from .qseries import FracSeries, PowerSeries


@dataclass(frozen=True)
class EtaQuotient:
    """Finite product prod_t eta(q^t)^{r_t}, stored as (t, r) terms, t ascending."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = 0
        for t, r in self.terms:
            if t <= prev or r == 0:
                raise ValueError("terms must have ascending unique t and nonzero r")
            prev = t

    @property
    def weight_numerator(self) -> int:
        """Twice the modular weight: sum of the exponents r_t."""
        return sum(r for _, r in self.terms)

    @property
    def leading_exponent(self) -> Fraction:
        return Fraction(sum(t * r for t, r in self.terms), 24)

    def __str__(self):
        return " * ".join(f"eta(q^{t})^{r}" for t, r in self.terms) or "1"


def euler_product(order: int) -> PowerSeries:
    """prod_{n>=1} (1 - q^n) truncated, via Euler's pentagonal number theorem."""
    if order < 1:
        raise ValueError("order must be >= 1")
    terms = {0: 1}
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 >= order and e2 >= order:
            break
        sign = -1 if k % 2 else 1
        if e1 < order:
            terms[e1] = sign
        if e2 < order:
            terms[e2] = sign
        k += 1
    return PowerSeries.from_terms(terms, order)


def dedekind_eta(order: int) -> FracSeries:
    """eta(q) = q^(1/24) * prod (1 - q^n), inner product to the given order."""
    return FracSeries.make(24, 1, euler_product(order).subst_monomial(1, 24))


def eta_signed(t: int, sign: int, order: int) -> FracSeries:
    """eta(sign * q^t) = q^(t/24) * prod (1 - sign^n q^(t n)).

    The 24th-root-of-unity ambiguity of (-q^t)^(1/24) is resolved by keeping
    the positive-branch prefactor; the theta-identity checks pin this choice.
    """
    return FracSeries.make(24, t, euler_product(order).subst_monomial(sign, 24 * t))


def eta_quotient_series(eq: EtaQuotient, order: int) -> FracSeries:
    """Expand the quotient with inner products carried to the given q-order."""
    g = [0] * order
    for t, r in eq.terms:
        for n in range(t, order, t):
            g[n] += r
    inner = unit_product(ExponentSequence(tuple(g[1:])), order)
    e = eq.leading_exponent
    return FracSeries.make(e.denominator, e.numerator, inner.subst_monomial(1, e.denominator))


def e2_series(order: int) -> PowerSeries:
    """E2 = 1/24 - sum sigma_1(n) q^n, exact; only the constant is rational."""
    if order < 1:
        raise ValueError("order must be >= 1")
    c = [0] * order
    for d in range(1, order):
        for m in range(d, order, d):
            c[m] -= d
    c[0] = Fraction(1, 24)
    return PowerSeries(tuple(c))


def verify_e2_identity(order: int) -> bool:
    """Check q (d eta / dq) / eta = E2 to the given order.

    The fractional prefactor q^(1/24) contributes the constant 1/24, so the
    check reduces to 1/24 + q P'/P = E2 with P the Euler product, where the
    log-derivative kernel gives q P'/P = -sum c_m q^m in integers.
    """
    c = _logder_coefficients(euler_product(order))
    lhs = (Fraction(1, 24),) + tuple(-v for v in c[1:])
    return lhs == e2_series(order).coeffs
