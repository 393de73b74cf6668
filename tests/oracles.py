"""Brute-force routes and closed formulas that the tests check the library against.

Each one computes what a library function computes, by a slower method
that shares none of its algorithm, except the coefficient route of search:
it expands each candidate with the library's product kernel and compares
coefficients, where the library compares product exponents.

The trial-division helpers `Factorization`, `factor` and `divisors` have
no library counterpart: only these routes and the tests need a whole
factorization or divisor list.

A series with a rational prefactor is the library's pair (e, S) for
q^e * S(q), S a PowerSeries in q; a bare PowerSeries reads as prefactor 0.
The pair operations at the end (support, coefficient lookup, powers and
substitution) serve only these routes, as `nonzero_items` does.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from newform_products.arith import is_prime
from newform_products.elliptic import an_expansion, curve_from_quintuple
from newform_products.errors import (
    InternalIntegralityFailure,
    NonUnitConstantTerm,
    PrecisionExceeded,
    SingularCurve,
)
from newform_products.eta import EtaQuotient, eta_signed
from newform_products.products import (
    ExponentSequence,
    _combined_exponents,
    _monic_unit_part,
    block_profile,
    extract_exponents,
    unit_product,
)
from newform_products.qseries import PowerSeries, frac_mul
from newform_products.search import (
    MATCH,
    MISMATCH,
    UNDECIDED,
    OVERLAP_FLOOR,
    _atom,
    _common_scale,
    _constraint_sums,
)
from newform_products.theta import ETA256_CURVE, MonomialArg, theta_sum


def binomial(g: int, k: int) -> int:
    """C(g, k) for any integer g and k >= 0: (1 - x)^g = sum_k C(g, k) (-x)^k."""
    if g >= 0:
        return math.comb(g, k)
    return (-1) ** k * math.comb(k - g - 1, k)


def q_d_dq(a: PowerSeries) -> PowerSeries:
    """The operator q d/dq: the coefficient at q^n is n * c_n."""
    return PowerSeries(tuple(n * c for n, c in enumerate(a.coeffs)))


def primes_upto(limit: int) -> list[int]:
    """All primes p <= limit, by the sieve of Eratosthenes: the reference
    for `is_prime` and for the primes of `smallest_prime_factors`."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(limit + 1) if sieve[p]]


@dataclass(frozen=True)
class Factorization:
    """Canonical prime factorization: primes strictly increasing, exponents >= 1."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        prev = 0
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError(f"non-canonical factorization for {self.value}")
            prev = p
            prod *= p ** e
        if prod != self.value:
            raise ValueError(f"factors do not multiply to {self.value}")


@lru_cache(maxsize=None)
def factor(n: int) -> Factorization:
    """Trial-division factorization; intended for n up to ~10^7."""
    if n < 1:
        raise ValueError(f"factor() needs n >= 1, got {n}")
    m = n
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    if n < 1:
        raise ValueError(f"divisors() needs n >= 1, got {n}")
    divs = [1]
    for p, e in factor(n).factors:
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def count_points_naive(c, p: int) -> int:
    """#E~(F_p) by a full (x, y) double loop plus infinity."""
    n = 1
    for x in range(p):
        rhs = (x ** 3 + c.a2 * x * x + c.a4 * x + c.a6) % p
        for y in range(p):
            if (y * y + c.a1 * x * y + c.a3 * y - rhs) % p == 0:
                n += 1
    return n


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, via Euler's criterion."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"legendre() needs an odd prime modulus, got {p}")
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r == p - 1 else r


@lru_cache(maxsize=None)
def euler_criterion_table(p: int) -> tuple:
    """(d/p) for 0 <= d < p, each by `legendre`; one table per odd prime p."""
    return tuple(legendre(d, p) for d in range(p))


def count_points_legendre(c, p: int) -> int:
    """#E~(F_p) for odd p: one Legendre symbol of the completed square per x."""
    chi = euler_criterion_table(p)
    n = p + 1
    for x in range(p):
        d = (c.a1 * x + c.a3) ** 2 + 4 * (x ** 3 + c.a2 * x * x + c.a4 * x + c.a6)
        n += chi[d % p]
    return n


def reject_nonminimal_by_factoring(c4: int, disc: int) -> None:
    """Raise SingularCurve at the smallest p >= 5 with p^4 | c4 and p^12 | disc,
    found by factoring the whole |disc|."""
    for p, e in factor(abs(disc)).factors:
        if p >= 5 and e >= 12 and (c4 == 0 or c4 % p ** 4 == 0):
            raise SingularCurve(
                f"model is not minimal at p={p} (p^4 | c4 and p^12 | disc)"
            )


def substitute(quint, u, r, s, t) -> tuple:
    """The coefficients a_i' of the model reached by x = u^2 x' + r,
    y = u^3 y' + s u^2 x' + t, as Fractions (Silverman, AEC, Table 3.1)."""
    a1, a2, a3, a4, a6 = quint
    u = Fraction(u)
    return (
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u ** 2,
        (a3 + r * a1 + 2 * t) / u ** 3,
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u ** 4,
        (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) / u ** 6,
    )


def nonminimal_by_substitution(quint, p: int) -> bool:
    """Whether some substitution with u = p makes every a_i' integral.
    Following it by an integral one (1, r0, s0, t0) moves s by p s0, r by
    p^2 r0 and t by p^3 t0 + s p^2 r0, so s mod p, r mod p^2 and t mod p^3
    reach every substitution with u = p.  a1' depends on s alone, a2' on
    (r, s) and a3' on (r, t), so a choice is dropped as soon as one of them
    is not integral: no such choice makes all five integral, and the check
    of all five is still made on every choice that is kept."""
    a1, a2, a3, _, _ = quint
    return any(
        all(a.denominator == 1 for a in substitute(quint, p, r, s, t))
        for s in range(p)
        if (a1 + 2 * s) % p == 0
        for r in range(p * p)
        if (a2 - s * a1 + 3 * r - s * s) % p ** 2 == 0
        for t in range(p ** 3)
        if (a3 + r * a1 + 2 * t) % p ** 3 == 0
    )


def logder_coefficients_dense(u: PowerSeries) -> list:
    """c_1..c_{T-1} of q u'/u = -sum c_m q^m for u = 1 + O(q), by the recurrence
    n u_n = -sum_{k=1}^{n} c_k u_{n-k} over every index; index 0 is an unused 0."""
    u = u.coeffs
    c = [0] * len(u)
    for n in range(1, len(u)):
        c[n] = -n * u[n] - sum(map(mul, c[1:n], u[n - 1 : 0 : -1]))
    return c


def unit_from_logder_dense(c: list) -> list:
    """u_0 = 1 and n u_n = -sum_{k=1}^{n} c_k u_{n-k} solved for u_n, 1 <= n < len(c), by one
    dot product per term over every index; InternalIntegralityFailure at the first
    u_n that is not an integer."""
    u = [1] + [0] * (len(c) - 1)
    for n in range(1, len(c)):
        u[n], rem = divmod(-sum(map(mul, c[1 : n + 1], u[n - 1 :: -1])), n)
        if rem:
            raise InternalIntegralityFailure(f"product coefficient q^{n} not integral")
    return u


def extract_exponents_peeling(f: PowerSeries) -> ExponentSequence:
    """The g_n of f = q * prod (1 - q^m)^{g_m}, by successively dividing f/q
    by (1 - q^m)^{g_m}."""
    h = _monic_unit_part(f)
    g = []
    for m in range(1, h.order):
        gm = -h.coeffs[m]
        g.append(gm)
        if gm != 0:
            # (1 - q^m)^(-1) is the geometric series, so no series is inverted
            terms = {0: 1, m: -1} if gm < 0 else dict.fromkeys(range(0, h.order, m), 1)
            h = h * PowerSeries.from_terms(terms, h.order).pow_int(abs(gm))
        if any(h.coeffs[1 : m + 1]):
            raise InternalIntegralityFailure(f"peeling left a nonzero term at m={m}")
    return ExponentSequence(tuple(g))


def euler_product_dense(order: int) -> PowerSeries:
    """prod_{n>=1} (1 - q^n) by literal factor-by-factor multiplication."""
    p = PowerSeries.one(order)
    for n in range(1, order):
        p = p * PowerSeries.from_terms({0: 1, n: -1}, order)
    return p


def eta256_block(order: int) -> ExponentSequence:
    """Exponents a_n of the conductor-256 building block, from point counting.

    f_256(q) = eta256(q^4) with eta256 = q^(1/4) prod (1 - q^n)^(a_n); the a_n
    are the extracted product exponents of f_256 read on the t=4 grid.
    """
    f = an_expansion(curve_from_quintuple(ETA256_CURVE), 4 * order + 2)
    profile = block_profile(extract_exponents(f), 1, 4)
    return ExponentSequence(profile.a[:order])


def psi(order: int) -> PowerSeries:
    """psi(q) = theta(q, q^3), supported on the triangular numbers; both
    arguments lie on the integer grid."""
    return theta_sum(MonomialArg(1, 1), MonomialArg(1, 3), order)


def mul_schoolbook(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """a * b by the double loop over nonzero terms."""
    T = min(a.order, b.order)
    out = [0] * T
    a_items = nonzero_items(a)
    b_items = nonzero_items(b)
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


def inverse_by_recurrence(a: PowerSeries) -> PowerSeries:
    """1/a term by term: out_n = -c0 * sum_{i=1}^{n} a_i out_{n-i}."""
    c0 = a.coeffs[0]
    if c0 not in (1, -1):
        raise NonUnitConstantTerm(f"series needs constant term +-1, got {c0}")
    T = a.order
    out = [0] * T
    out[0] = c0
    items = [(i, c) for i, c in enumerate(a.coeffs) if c != 0 and i > 0]
    for n in range(1, T):
        s = 0
        for i, c in items:
            if i > n:
                break
            s += c * out[n - i]
        out[n] = -c0 * s
    return PowerSeries(tuple(out))


def frac_equal_to_by_exponents(a, b, bound):
    """(ok, first mismatch) of a and b below bound, walking the union of
    their supports as Fraction exponents; each is a pair or a PowerSeries."""
    bound = Fraction(bound)
    if exponent_bound(a) < bound or exponent_bound(b) < bound:
        raise PrecisionExceeded(
            f"comparison to exponent {bound} exceeds truncation "
            f"({exponent_bound(a)}, {exponent_bound(b)})"
        )
    for e in sorted({e for e, _ in support(a) + support(b) if e < bound}):
        if coeff_at(a, e) != coeff_at(b, e):
            return False, e
    return True, None


def eta_quotient_series_by_powers(eq: EtaQuotient, order: int) -> tuple:
    """The quotient as a product of powers of substituted eta series: each
    eta(q^t)^r raised by square-and-multiply (after inverse_by_recurrence for r < 0)."""
    result = None
    for t, r in eq.terms:
        part = frac_pow(frac_subst_scale(eta_signed(1, 1, max(order // t + 1, 2)), t), r)
        result = part if result is None else frac_mul(result, part)
    if result is None:
        return Fraction(0), PowerSeries.one(order)
    return result


def eta_quotient_by_divisors(g: ExponentSequence, level: int) -> list[EtaQuotient]:
    """The eta quotients that eta_quotient_search accepts for the exponents g
    at this level, solved divisor by divisor: r_t = g_t - sum_{d|t, d<t} r_d
    for each t | level, then the quotient is re-expanded and compared with
    every g_n."""
    r = {}
    for t in divisors(level):
        if t > g.upto:
            break
        r[t] = g.g[t - 1] - sum(r[d] for d in divisors(t) if d != t)
    eq = EtaQuotient(tuple((t, rt) for t, rt in r.items() if rt != 0))
    if eq.exponents(g.upto + 1)[1:] != list(g.g):
        return []
    if eq.weight_numerator != 4 or eq.leading_exponent != 1:
        return []
    return [eq]


def assemble_series(cand, blocks, order: int) -> tuple:
    """Expand the candidate product exactly, as q * prod (1 - q^m)^(G_m).

    The constraints make the leading exponent 1, and the product exponents
    are G_m = sum_{t_i | m} r_i a_{i, m/t_i}.  The expansion is known below
    q^(1 + n), n = min_i t_i (ceil(order / t_i) + 1), as when each part is
    expanded to ceil(order / t_i) + 1 terms and multiplied out.
    """
    by_id = {rec.conductor: rec for rec in blocks}
    scale = _common_scale(by_id.values())
    atoms = [_atom(part, by_id, scale) for part in cand.parts]
    if _constraint_sums(atoms) != (scale, scale):
        raise ValueError(f"candidate {cand.parts} violates the linear constraints")
    factors = []
    bounds = []
    for conductor, r, t in cand.parts:
        rec = by_id[conductor]
        inner_order = -(-order // t) + 1
        available = len(rec.a_extended or rec.a_printed)
        if available < inner_order - 1:
            raise PrecisionExceeded(
                f"block {conductor} extends to a_{available}, candidate needs "
                f"a_{inner_order - 1} at t={t}; extend the block first"
            )
        factors.append((rec.a_extended or rec.a_printed, r, t))
        bounds.append(t * inner_order)
    n = min(bounds)
    g = ExponentSequence(tuple(_combined_exponents(factors, n)[1:]))
    return Fraction(1), unit_product(g, n)


def match_series(cand, series: tuple, target: PowerSeries):
    """Fill the candidate verdict by coefficient comparison against the target.

    target must be monic at q.  A nonzero coefficient at a fractional
    exponent is a mismatch at that exponent.
    """
    if target.coeffs[0] != 0 or target.order < 2 or target.coeffs[1] != 1:
        raise ValueError("target must be monic at q")
    overlap = min(int(exponent_bound(series)), target.order)
    for e, c in support(series):
        if e >= overlap:
            break
        if e.denominator != 1:
            return cand._replace(verdict=MISMATCH, mismatch_at=e)
        n = int(e)
        if target.coeffs[n] != c:
            return cand._replace(verdict=MISMATCH, mismatch_at=e)
    # zero coefficients of the series against nonzero target entries
    for n in range(1, overlap):
        c = coeff_at(series, n)
        if c != target.coeffs[n]:
            return cand._replace(verdict=MISMATCH, mismatch_at=Fraction(n))
    if overlap - 1 < OVERLAP_FLOOR:
        return cand._replace(verdict=UNDECIDED, match_order=overlap - 1)
    return cand._replace(verdict=MATCH, match_order=overlap - 1)


def _pair(series) -> tuple:
    """(e, S) for a pair, (0, S) for a bare PowerSeries S."""
    return (Fraction(0), series) if isinstance(series, PowerSeries) else series


def exponent_bound(series) -> Fraction:
    """Exponents are known (exactly) strictly below this bound."""
    e, s = _pair(series)
    return e + s.order


def nonzero_items(s: PowerSeries) -> list[tuple[int, object]]:
    """(n, c_n) of every nonzero coefficient of s, n ascending."""
    return [(n, c) for n, c in enumerate(s.coeffs) if c != 0]


def support(series) -> list[tuple[Fraction, object]]:
    """(exponent, coefficient) of every nonzero term, exponents ascending."""
    e, s = _pair(series)
    return [(e + n, c) for n, c in nonzero_items(s)]


def coeff_at(series, exponent):
    """The coefficient of q^exponent in series: 0 below its prefactor and
    off the grid prefactor + Z."""
    e, s = _pair(series)
    k = Fraction(exponent) - e
    if k >= s.order:
        raise PrecisionExceeded(f"exponent {exponent} is beyond {exponent_bound(series)}")
    return s.coeffs[int(k)] if k >= 0 and k.denominator == 1 else 0


def frac_pow(a: tuple, r: int) -> tuple:
    """a^r for a pair; r < 0 inverts by inverse_by_recurrence, which needs
    constant term +-1."""
    base = a[1] if r >= 0 else inverse_by_recurrence(a[1])
    return a[0] * r, base.pow_int(abs(r))


def subst_monomial(s: PowerSeries, sign: int, t: int) -> PowerSeries:
    """s(sign * q^t), term by term; output order is input order * t."""
    out = [0] * (s.order * t)
    for n, c in enumerate(s.coeffs):
        out[n * t] = sign ** n * c
    return PowerSeries(tuple(out))


def frac_subst_scale(a: tuple, t: int) -> tuple:
    """q -> q^t on a pair: every exponent scales by t."""
    return a[0] * t, subst_monomial(a[1], 1, t)
