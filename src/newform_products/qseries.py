"""Exact truncated power series and fractional-exponent series.

A PowerSeries of order T knows the coefficients of q^0 .. q^(T-1) exactly
(Python ints; a Fraction only where a rational constant is unavoidable, as
in E2).  Every binary operation truncates to the minimum of the input
orders; no operation ever fabricates coefficients beyond what the inputs
justify.  Inversion needs constant term +1 or -1.

A FracSeries represents q^(offset/denom) * S(q^(1/denom)).  It is kept in a
normal form (leading coefficient of S nonzero, gcd of denom/offset/support
stride reduced out) so that equal values have equal representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import IncompatibleExponent, NonUnitConstantTerm, PrecisionExceeded


@dataclass(frozen=True)
class PowerSeries:
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("PowerSeries needs order >= 1")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def zero(order: int) -> "PowerSeries":
        return PowerSeries((0,) * order)

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries((1,) + (0,) * (order - 1))

    @staticmethod
    def from_terms(terms: dict, order: int) -> "PowerSeries":
        """Series from {exponent: coefficient}; terms at/above order are dropped."""
        c = [0] * order
        for n, v in terms.items():
            if 0 <= n < order:
                c[n] = v
        return PowerSeries(tuple(c))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def nonzero_items(self) -> list[tuple[int, object]]:
        return [(i, c) for i, c in enumerate(self.coeffs) if c != 0]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        T = min(self.order, other.order)
        return PowerSeries(tuple(a + b for a, b in zip(self.coeffs[:T], other.coeffs[:T])))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        T = min(self.order, other.order)
        return PowerSeries(tuple(a - b for a, b in zip(self.coeffs[:T], other.coeffs[:T])))

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-c for c in self.coeffs))

    def scale(self, k) -> "PowerSeries":
        return PowerSeries(tuple(k * c for c in self.coeffs))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        T = min(self.order, other.order)
        out = [0] * T
        a_items = self.nonzero_items()
        b_items = other.nonzero_items()
        if len(b_items) < len(a_items):
            a_items, b_items = b_items, a_items
        for i, ci in a_items:
            if i >= T:
                break
            for j, cj in b_items:
                k = i + j
                if k >= T:
                    break
                out[k] += ci * cj
        return PowerSeries(tuple(out))

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse at the same order; needs constant term +-1."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise NonUnitConstantTerm(f"series needs constant term +-1, got {c0}")
        T = self.order
        out = [0] * T
        out[0] = c0
        items = [(i, c) for i, c in enumerate(self.coeffs) if c != 0 and i > 0]
        for n in range(1, T):
            s = 0
            for i, c in items:
                if i > n:
                    break
                s += c * out[n - i]
            out[n] = -c0 * s
        return PowerSeries(tuple(out))

    def pow_int(self, g: int) -> "PowerSeries":
        """A^g at the same order by square-and-multiply; g < 0 inverts first."""
        base = self if g >= 0 else self.inverse()
        e = abs(g)
        result = PowerSeries.one(self.order)
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def subst_monomial(self, sign: int, t: int, max_order: int | None = None) -> "PowerSeries":
        """q -> sign * q^t; output order is input order * t, capped at max_order."""
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        if t < 1:
            raise ValueError("scale must be a positive integer")
        T = self.order * t
        if max_order is not None:
            T = min(T, max_order)
        out = [0] * T
        for n, c in enumerate(self.coeffs):
            k = n * t
            if k >= T:
                break
            out[k] = c if (sign == 1 or n % 2 == 0) else -c
        return PowerSeries(tuple(out))

    def __str__(self):
        parts = [f"{c}*q^{n}" for n, c in self.nonzero_items()[:8]]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(q^{self.order})"


@dataclass(frozen=True)
class FracSeries:
    """q^(offset/denom) * series(q^(1/denom)), normalized (see module docstring)."""

    denom: int
    offset: int
    series: PowerSeries

    @staticmethod
    def make(denom: int, offset: int, series: PowerSeries) -> "FracSeries":
        if denom < 1:
            raise ValueError("denom must be >= 1")
        return _normalize(denom, offset, series)

    @staticmethod
    def from_power_series(ps: PowerSeries) -> "FracSeries":
        return FracSeries.make(1, 0, ps)

    def exponent_bound(self) -> Fraction:
        """Exponents are known (exactly) strictly below this bound."""
        return Fraction(self.offset + self.series.order, self.denom)

    def is_zero(self) -> bool:
        return self.series.is_zero()

    def coeff_at(self, exponent) -> object:
        """Coefficient of q^exponent (a Fraction or int)."""
        e = Fraction(exponent)
        k = e * self.denom - self.offset
        if k.denominator != 1:
            raise IncompatibleExponent(
                f"exponent {e} not on the q^(1/{self.denom}) grid of this series"
            )
        k = int(k)
        if k >= self.series.order:
            raise PrecisionExceeded(f"exponent {e} beyond truncation bound {self.exponent_bound()}")
        if k < 0:
            return 0
        return self.series.coeffs[k]

    def support(self) -> list[tuple[Fraction, object]]:
        return [
            (Fraction(self.offset + k, self.denom), c) for k, c in self.series.nonzero_items()
        ]

    def __str__(self):
        parts = [f"{c}*q^({e})" for e, c in self.support()[:8]]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(q^({self.exponent_bound()}))"


def _normalize(denom: int, offset: int, series: PowerSeries) -> FracSeries:
    items = series.nonzero_items()
    if not items:
        # canonical zero: integer grid, offset 0, order preserved conservatively
        return FracSeries(1, 0, PowerSeries.zero(max(1, series.order // denom)))
    lead = items[0][0]
    if lead:
        offset += lead
        series = PowerSeries(series.coeffs[lead:])
        items = [(k - lead, c) for k, c in items]
    g = denom
    g = math.gcd(g, offset)
    for k, _ in items:
        g = math.gcd(g, k)
        if g == 1:
            break
    if g > 1:
        order = max(1, series.order // g)
        out = [0] * order
        for k, c in items:
            if k // g < order:
                out[k // g] = c
        return FracSeries(denom // g, offset // g, PowerSeries(tuple(out)))
    return FracSeries(denom, offset, series)


def _on_common_grid(a: FracSeries, b: FracSeries) -> tuple[int, FracSeries, FracSeries]:
    d = a.denom * b.denom // math.gcd(a.denom, b.denom)
    return d, _regrid(a, d), _regrid(b, d)


def _regrid(a: FracSeries, denom: int) -> FracSeries:
    s = denom // a.denom
    if s == 1:
        return a
    out = [0] * (a.series.order * s)
    for k, c in a.series.nonzero_items():
        out[k * s] = c
    # bypass normalization: this is an internal non-canonical widening
    return FracSeries(denom, a.offset * s, PowerSeries(tuple(out)))


def frac_scale(a: FracSeries, k) -> FracSeries:
    return _normalize(a.denom, a.offset, a.series.scale(k))


def frac_sub(a: FracSeries, b: FracSeries) -> FracSeries:
    """a - b on the common grid, known below the smaller exponent bound.

    A zero operand is taken as exact, so it does not truncate the other.
    """
    if b.is_zero():
        return a
    if a.is_zero():
        return frac_scale(b, -1)
    d, ga, gb = _on_common_grid(a, b)
    bound = min(ga.offset + ga.series.order, gb.offset + gb.series.order)
    offset = min(ga.offset, gb.offset)
    out = [0] * max(1, bound - offset)
    for sign, g in ((1, ga), (-1, gb)):
        for k, c in g.series.nonzero_items():
            if g.offset + k < bound:
                out[g.offset + k - offset] += sign * c
    return _normalize(d, offset, PowerSeries(tuple(out)))


def frac_mul(a: FracSeries, b: FracSeries) -> FracSeries:
    d, ga, gb = _on_common_grid(a, b)
    prod = ga.series * gb.series
    return _normalize(d, ga.offset + gb.offset, prod)


def frac_pow(a: FracSeries, r: int) -> FracSeries:
    if r == 0:
        return FracSeries.from_power_series(PowerSeries.one(a.series.order))
    if a.is_zero():
        if r < 0:
            raise NonUnitConstantTerm("cannot invert the zero series")
        return a
    inner = a.series.pow_int(r)
    return _normalize(a.denom, a.offset * r, inner)


def frac_subst_scale(a: FracSeries, t: int) -> FracSeries:
    """q -> q^t on a fractional series: every exponent scales by t."""
    if t < 1:
        raise ValueError("scale must be a positive integer")
    return _normalize(a.denom, a.offset * t, a.series.subst_monomial(1, t))


def frac_shift(a: FracSeries, exponent) -> FracSeries:
    """Multiply by the exact monomial q^exponent (no truncation loss)."""
    e = Fraction(exponent)
    d = a.denom * e.denominator // math.gcd(a.denom, e.denominator)
    ga = _regrid(a, d)
    return _normalize(d, ga.offset + int(e * d), ga.series)


def frac_equal_to(a: FracSeries, b: FracSeries, bound) -> tuple[bool, Fraction | None]:
    """Compare all coefficients at exponents < bound; returns (ok, first mismatch)."""
    bound = Fraction(bound)
    if a.exponent_bound() < bound or b.exponent_bound() < bound:
        raise PrecisionExceeded(
            f"comparison to exponent {bound} exceeds truncation "
            f"({a.exponent_bound()}, {b.exponent_bound()})"
        )
    exps = sorted(
        {e for e, _ in a.support() if e < bound} | {e for e, _ in b.support() if e < bound}
    )
    for e in exps:
        ca = a.coeff_at(e) if (e * a.denom - a.offset).denominator == 1 else 0
        cb = b.coeff_at(e) if (e * b.denom - b.offset).denominator == 1 else 0
        if ca != cb:
            return False, e
    return True, None
