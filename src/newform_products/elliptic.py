"""Weierstrass curves over Q: invariants, point counting, a_p, newform coefficients.

The coefficient sequence f_n is built from point counts via the standard
multiplicative structure (Hecke recurrence at prime powers).  Input models
must be globally minimal.  A sanity check rejects obviously non-minimal
models at primes >= 5; minimality at 2 and 3 is not checked, and a model
that is not minimal there gives wrong f_n without an error (for example
[0,0,8,-16,0], which is 37a rescaled by u = 2, gives f_2 = 0, not -2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import factor, is_prime, legendre, primes_upto
from .errors import InternalIntegralityFailure, SingularCurve, UnsupportedReduction
from .qseries import PowerSeries

GOOD = "good"
MULT_SPLIT = "multiplicative_split"
MULT_NONSPLIT = "multiplicative_nonsplit"
ADDITIVE = "additive"


@dataclass(frozen=True)
class Curve:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    disc: int

    @property
    def quintuple(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __str__(self):
        return f"[{self.a1},{self.a2},{self.a3},{self.a4},{self.a6}]"


@dataclass(frozen=True)
class ReductionInfo:
    prime: int
    kind: str
    ap: int


def curve_from_quintuple(a) -> Curve:
    """Curve y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 with derived invariants.

    The fifth quintuple entry is a6 (there is no a5 in the Weierstrass form).
    """
    a1, a2, a3, a4, a6 = (int(v) for v in a)
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if disc == 0:
        raise SingularCurve(f"quintuple {list(a)} defines a singular curve")
    _reject_nonminimal(c4, disc)
    return Curve(a1, a2, a3, a4, a6, b2, b4, b6, b8, c4, c6, disc)


def _reject_nonminimal(c4: int, disc: int) -> None:
    # cheap sanity check for p >= 5 only; 2 and 3 need Tate's algorithm
    for p, e in factor(abs(disc)).factors:
        if p >= 5 and e >= 12 and (c4 == 0 or c4 % p ** 4 == 0):
            raise SingularCurve(
                f"model is not minimal at p={p} (p^4 | c4 and p^12 | disc)"
            )


def count_points(c: Curve, p: int) -> int:
    """#E(F_p) including the point at infinity.

    Odd p: 4*(RHS) completed-square character sum.  p = 2: exhaustive.
    """
    if not is_prime(p):
        raise ValueError(f"count_points needs a prime, got {p}")
    if p == 2:
        return 1 + sum(
            1
            for x in range(2)
            for y in range(2)
            if (y * y + c.a1 * x * y + c.a3 * y - (x ** 3 + c.a2 * x * x + c.a4 * x + c.a6)) % 2
            == 0
        )
    n = p + 1
    for x in range(p):
        d = (c.a1 * x + c.a3) ** 2 + 4 * (x ** 3 + c.a2 * x * x + c.a4 * x + c.a6)
        n += legendre(d, p)
    return n


def count_points_naive(c: Curve, p: int) -> int:
    """Independent oracle: full (x, y) double loop plus infinity."""
    n = 1
    for x in range(p):
        rhs = (x ** 3 + c.a2 * x * x + c.a4 * x + c.a6) % p
        for y in range(p):
            if (y * y + c.a1 * x * y + c.a3 * y - rhs) % p == 0:
                n += 1
    return n


def reduction_at(c: Curve, p: int) -> ReductionInfo:
    """Reduction type and a_p at prime p."""
    if c.disc % p != 0:
        ap = p + 1 - count_points(c, p)
        if ap * ap > 4 * p:
            raise InternalIntegralityFailure(f"Hasse bound violated at p={p}: a_p = {ap}")
        return ReductionInfo(p, GOOD, ap)
    if c.c4 % p == 0:
        return ReductionInfo(p, ADDITIVE, 0)
    if p < 5:
        raise UnsupportedReduction(
            f"multiplicative reduction at p={p}: split/nonsplit not decided here"
        )
    kind = MULT_SPLIT if legendre(-c.c6, p) == 1 else MULT_NONSPLIT
    return ReductionInfo(p, kind, 1 if kind == MULT_SPLIT else -1)


@lru_cache(maxsize=None)
def _cached_reduction(quintuple: tuple, p: int) -> ReductionInfo:
    return reduction_at(curve_from_quintuple(quintuple), p)


def an_expansion(c: Curve, order: int) -> PowerSeries:
    """Newform q-expansion sum f_n q^n to the given truncation order.

    f_1 = 1; f_p from reduction data; prime powers by the weight-two Hecke
    recurrence (good p) or f_p^k (bad p); multiplicative across coprime parts.
    """
    if order < 2:
        raise ValueError("an_expansion needs order >= 2")
    f = [0] * order
    f[1] = 1
    for p in primes_upto(order - 1):
        red = _cached_reduction(c.quintuple, p)
        ap = red.ap
        good = red.kind == GOOD
        # fill f at powers of p
        pk = p
        prev, prev2 = 1, 0  # f_{p^{k-1}}, f_{p^{k-2}}
        while pk < order:
            if pk == p:
                val = ap
            elif good:
                val = ap * prev - p * prev2
            else:
                val = ap * prev
            f[pk] = val
            prev2, prev = prev, val
            pk *= p
    # multiply prime-power parts together
    for n in range(2, order):
        fs = factor(n).factors
        if len(fs) > 1:
            v = 1
            for p, e in fs:
                v *= f[p ** e]
            f[n] = v
    return PowerSeries(tuple(f))
