"""Product-formula machinery: exponent extraction and reconstruction.

A monic-at-q integer series f = q + ... determines unique integers g_n with
f = q * prod (1 - q^n)^{g_n}.  One kernel serves both directions: for
u = f/q the logarithmic derivative q u'/u = -sum c_m q^m has
c_m = sum_{d|m} d*g_d, and n u_n = -sum_{k<=n} c_k u_{n-k} links u and c.
Extraction solves that recurrence for c and inverts the divisor sums by an
in-place Moebius sieve; expansion sieves the divisor sums of g and runs the
recurrence forwards.  A slower peel-off extraction is checked against this
one in the tests.  A product of blocks is checked in exponent space only:
`_combined_exponents` gives its g, which search compares with the target's.

Both directions run the recurrence on the stride t of the input's support:
the gcd of the positive indices where u, or g, is nonzero (the divisor sums
c of g have the same stride as g).  Then u(q) = v(q^t), and c is zero off
the t-grid with c_{t*m} = t * c^v_m, where c^v belongs to v; so the
recurrence runs on v = u[::t], or on c[::t] // t, and a block on the t-grid
costs (N/t)^2 multiplications, not N^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .errors import (
    BlockMismatch,
    InternalIntegralityFailure,
    NonMonicSeries,
    PrecisionExceeded,
    ZeroSequence,
)
from .qseries import PowerSeries, _spread, _stride


@dataclass(frozen=True)
class ExponentSequence:
    """Exponents g_1..g_upto of the infinite-product form."""

    g: tuple

    @property
    def upto(self) -> int:
        return len(self.g)

    def at(self, n: int):
        if not 1 <= n <= self.upto:
            raise PrecisionExceeded(f"g_{n} beyond computed range {self.upto}")
        return self.g[n - 1]


@dataclass(frozen=True)
class BlockProfile:
    """Result of reading an exponent sequence as r * a_{n/t} on the t-grid."""

    r_check: int
    t_check: int
    a: tuple
    gcd_prefix: int
    monotone_report: tuple


def _monic_unit_part(f: PowerSeries) -> PowerSeries:
    if f.coeffs[0] != 0 or f.order < 2 or f.coeffs[1] != 1:
        raise NonMonicSeries("series must have shape q + O(q^2)")
    return PowerSeries(f.coeffs[1:])


def _logder_coefficients(u: PowerSeries) -> list:
    """c_1..c_{T-1} of q u'/u = -sum c_m q^m for u = 1 + O(q), T = order(u).

    Solves n u_n = -sum_{k=1}^{n} c_k u_{n-k} for c_n, with no division, on
    v = u[::t] for the stride t of u; then c_{t*m} = t * c^v_m and c is zero
    off the t-grid.  Index 0 of the returned list is an unused 0.
    """
    u = u.coeffs
    t = _stride(u)
    v = u[::t] if t > 1 else u
    c = [0] * len(v)
    for n in range(1, len(v)):
        c[n] = -n * v[n] - sum(map(mul, c[1:n], v[n - 1 : 0 : -1]))
    return _spread([t * x for x in c] if t > 1 else c, t, len(u))


def _divisor_sums(lam: list) -> list:
    """c_m = sum_{d|m} d * lam_d for 1 <= m < len(lam); index 0 is unused."""
    c = [0] * len(lam)
    for d in range(1, len(lam)):
        v = d * lam[d]
        if v:
            for m in range(d, len(lam), d):
                c[m] += v
    return c


def log_derivative_quotient(f: PowerSeries) -> PowerSeries:
    """E_f = q f'/f for f = q + O(q^2); constant term 1, order = order(f) - 1.

    Computed in integer arithmetic as 1 - sum c_m q^m = 1 + q u'/u, u = f/q.
    """
    c = _logder_coefficients(_monic_unit_part(f))
    return PowerSeries((1,) + tuple(-v for v in c[1:]))


def extract_exponents(f: PowerSeries) -> ExponentSequence:
    """Exponents g_n with f = q * prod (1-q^n)^{g_n}, for n < order(f) - 1."""
    c = _logder_coefficients(_monic_unit_part(f))
    # c_m = sum_{d|m} d * g_d: once c_d = d * g_d is final, remove it from
    # every multiple of d (an in-place Moebius inversion)
    for d in range(1, len(c)):
        if c[d] % d != 0:
            raise InternalIntegralityFailure(
                f"Moebius inversion gave non-integer exponent at n={d}"
            )
        for m in range(2 * d, len(c), d):
            c[m] -= c[d]
    return ExponentSequence(tuple(c[d] // d for d in range(1, len(c))))


def reconstruct(g: ExponentSequence, order: int) -> PowerSeries:
    """q * prod_{n <= order-1} (1 - q^n)^{g_n}, truncated to the given order."""
    if order > g.upto + 1:
        raise PrecisionExceeded(
            f"reconstruction to order {order} needs exponents up to {order - 1}, "
            f"have {g.upto}"
        )
    u = unit_product(g, order - 1) if order > 1 else PowerSeries.one(1)
    return PowerSeries((0,) + u.coeffs[: order - 1])


def unit_product(g: ExponentSequence, order: int) -> PowerSeries:
    """prod_{n < order} (1 - q^n)^{g_n} truncated to the given order.

    Runs the log-derivative recurrence forwards: c from the divisor sums of
    g, then n u_n = -sum_{k=1}^{n} c_k u_{n-k}, dividing exactly by n.  For
    the stride t of c it runs on c[::t] // t, which is exact, and spreads u
    back onto the t-grid.
    """
    if order > g.upto + 1:
        raise PrecisionExceeded(
            f"product to order {order} needs exponents up to {order - 1}, have {g.upto}"
        )
    c = _divisor_sums([0, *g.g[: order - 1]])
    t = _stride(c)
    if t > 1:
        c = [v // t for v in c[::t]]
    u = [1] + [0] * (len(c) - 1)
    for n in range(1, len(c)):
        u[n], rem = divmod(-sum(map(mul, c[1 : n + 1], u[n - 1 :: -1])), n)
        if rem:
            raise InternalIntegralityFailure(f"product coefficient q^{t * n} not integral")
    return PowerSeries(tuple(_spread(u, t, order)))


def block_profile(g: ExponentSequence, r_check: int, t_check: int) -> BlockProfile:
    """Read g as g_{t*n} = r * a_n (zero off the t-grid); report shape violations.

    Monotonicity/positivity of a_n is expected but not guaranteed, so it is
    reported, never asserted: some known rows start at zero or plateau.
    """
    if r_check < 1 or t_check < 1:
        raise ValueError("r_check and t_check must be positive")
    for m in range(1, g.upto + 1):
        if m % t_check != 0 and g.at(m) != 0:
            raise BlockMismatch(f"g_{m} = {g.at(m)} nonzero off the t={t_check} grid")
    a = []
    for n in range(1, g.upto // t_check + 1):
        v = g.at(t_check * n)
        if v % r_check != 0:
            raise BlockMismatch(f"g_{t_check * n} = {v} not divisible by r={r_check}")
        a.append(v // r_check)
    violations = []
    for i, v in enumerate(a, start=1):
        if v <= 0 or (i >= 2 and v <= a[i - 2]):
            violations.append(i)
    return BlockProfile(
        r_check=r_check,
        t_check=t_check,
        a=tuple(a),
        gcd_prefix=math.gcd(*a) if a else 0,
        monotone_report=tuple(violations),
    )


def infer_block(g: ExponentSequence) -> tuple[int, int]:
    """Infer (r, t): t = gcd of the support indices, r = gcd of the values."""
    if not any(g.g):
        raise ZeroSequence("cannot infer a block from the zero sequence")
    return math.gcd(*g.g), _stride((0, *g.g))


def _combined_exponents(blocks, length: int) -> list:
    """lam_d = sum_{t_i | d} r_i * a_{i, d/t_i} for 1 <= d < length; index 0 is unused.

    blocks: iterable of (a_values, r_i, t_i), each a_values holding at least
    (length - 1) // t_i terms; the caller refuses a shorter block.  For blocks
    B_i = q^(e_i) prod (1 - q^n)^(a_{i,n}), the product prod_i B_i(q^(t_i))^(r_i)
    is q^(sum r_i t_i e_i) prod (1 - q^d)^(lam_d).
    """
    lam = [0] * length
    for a_values, r_i, t_i in blocks:
        for j in range(1, (length - 1) // t_i + 1):
            lam[j * t_i] += r_i * a_values[j - 1]
    return lam
