"""Signed-argument eta, eta quotients, and the E2 identity.

Euler's product prod (1 - q^n) is the theta_sum specialization f(-q, -q^2),
and eta(sign * q^t) reads its product off f(-sign * q^t, -q^(2t)) likewise.
An eta quotient prod_t eta(q^t)^(r_t) is q^(sum t r_t / 24) times
prod_n (1 - q^n)^(g_n), with g_n = sum_{t | n} r_t: eta(q^t) is q^(t/24)
times the block whose a_n are all 1, so `EtaQuotient.exponents` combines
those blocks, and one unit_product call expands the result.  A series with
a rational prefactor is the pair (prefactor, PowerSeries in q).

The E2 identity is checked in integers: the log-derivative kernel's c_m
on the Euler product must equal sigma_1(m).
"""

from __future__ import annotations

from fractions import Fraction

from .products import (
    ExponentSequence,
    _combined_exponents,
    _divisor_sums,
    _logder_coefficients,
    unit_product,
)
from .qseries import Frozen, PowerSeries
from .theta import MonomialArg, theta_sum


class EtaQuotient(Frozen):
    """Finite product prod_t eta(q^t)^{r_t}, stored as (t, r) terms, t ascending."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...]):
        prev = 0
        for t, r in terms:
            if t <= prev or r == 0:
                raise ValueError("terms must have ascending unique t and nonzero r")
            prev = t
        super().__init__(terms)

    @property
    def weight_numerator(self) -> int:
        """Twice the modular weight: sum of the exponents r_t."""
        return sum(r for _, r in self.terms)

    @property
    def leading_exponent(self) -> Fraction:
        return Fraction(sum(t * r for t, r in self.terms), 24)

    def exponents(self, length: int) -> list:
        """g_n = sum_{t | n} r_t for 1 <= n < length; index 0 is unused."""
        return _combined_exponents(
            (((1,) * ((length - 1) // t), r, t) for t, r in self.terms), length
        )

    def __str__(self):
        return " * ".join(f"eta(q^{t})^{r}" for t, r in self.terms) or "1"


def euler_product(order: int) -> PowerSeries:
    """prod_{n>=1} (1 - q^n) truncated: Ramanujan's theta f(-q, -q^2), whose
    terms are Euler's pentagonal numbers."""
    return theta_sum(MonomialArg(-1, 1), MonomialArg(-1, 2), order)


def eta_signed(t: int, sign: int, order: int) -> tuple[Fraction, PowerSeries]:
    """eta(sign * q^t) = q^(t/24) * prod (1 - sign^n q^(t n)), as the pair
    (t/24, product); the product is known to order t * order.

    The product is Euler's f(-q, -q^2) at q -> sign * q^t, which is the
    theta sum f(-sign * q^t, -q^(2t)).  The 24th-root-of-unity ambiguity of
    (-q^t)^(1/24) is resolved by keeping the positive-branch prefactor; the
    theta-identity checks pin this choice.
    """
    return Fraction(t, 24), theta_sum(MonomialArg(-sign, t), MonomialArg(-1, 2 * t), t * order)


def eta_quotient_series(eq: EtaQuotient, order: int) -> tuple[Fraction, PowerSeries]:
    """The pair (leading exponent, prod_n (1 - q^n)^(g_n) to the given q-order)."""
    g = ExponentSequence(tuple(eq.exponents(order)[1:]))
    return eq.leading_exponent, unit_product(g, order)


def verify_e2_identity(order: int) -> bool:
    """Check q (d eta / dq) / eta = E2 = 1/24 - sum sigma_1(m) q^m to the given order.

    eta's prefactor q^(1/24) gives the constant 1/24, and the rest is
    q P'/P = -sum c_m q^m for P = prod (1 - q^n), whose exponents are all 1,
    so the kernel's c_m on P must equal their divisor sums sigma_1(m).
    """
    return _logder_coefficients(euler_product(order)) == _divisor_sums([0] + [1] * (order - 1))
