"""Weierstrass curves over Q: invariants, point counting, a_p, newform coefficients.

At every prime p, a_p = p + 1 - #E~(F_p), where E~ is the reduction of the
model mod p and the count includes its singular point if it has one.  On a
model minimal at p this gives a_p at good p and 1, -1, 0 at split,
nonsplit, additive p.  The count has three regimes.  At a good p > 229
it is found by Shanks-Mestre baby-step/giant-step on points of E and of
its quadratic twist, in O(p^(1/4)) group operations per point: Mestre's
theorem makes #E(F_p) the one value in the Hasse interval that those point
orders allow for every p > 229 (Cohen, "A Course in Computational Algebraic
Number Theory", GTM 138, section 7.4.3; Schoof, "Counting points on
elliptic curves over finite fields", J. Theor. Nombres Bordeaux 7 (1995)).
At p = 2 every (x, y) is tried.  At odd p <= 229, where the theorem does
not hold, and at bad p, where the singular point must be counted,
completing the square gives y^2 = d(x) = 4x^3 + b2*x^2 + 2*b4*x + b6, and
the count is 1 plus the number of square roots of d(x) mod p over all x,
read from a table of squares mod p.
The coefficient sequence f_n follows from the a_p by the Hecke recurrence
at prime powers and multiplicativity in one pass over a smallest-prime-factor
sieve.  Input models must be globally minimal, and a model that is not is
refused (SingularCurve).  It is not minimal at p exactly when p^4 | c4,
p^6 | c6 and (c4/p^4, c6/p^6) meet Kraus's conditions for the invariants
of an integral model, which at p >= 5 always hold; so [0,0,8,-16,0], 37a
rescaled by u = 2, is refused at p = 2.  The primes come from trial
division of gcd(c4^3, c6^2) up to 10^6; a model whose gcd keeps a factor
that this bound cannot decide is refused too (ValueError).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

from .arith import is_prime, smallest_prime_factors
from .errors import InternalIntegralityFailure, SingularCurve
from .qseries import PowerSeries

GOOD = "good"
MULT_SPLIT = "multiplicative_split"
MULT_NONSPLIT = "multiplicative_nonsplit"
ADDITIVE = "additive"

# Mestre's theorem: for p > 229, E or its quadratic twist over F_p has a
# point whose order has one multiple in the Hasse interval (Cohen, GTM 138,
# section 7.4.3), so baby-step/giant-step pins #E(F_p) at every good p above it
_MESTRE_BOUND = 229


class Curve(NamedTuple):
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


class ReductionInfo(NamedTuple):
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
    _reject_nonminimal(c4, c6)
    return Curve(a1, a2, a3, a4, a6, b2, b4, b6, b8, c4, c6, disc)


# Trial divisors of gcd(c4^3, c6^2) stop here, so every gcd below
# (10^6)^12 = 10^72 is decided exactly and no input makes the check run long.
_MINIMALITY_TRIAL_BOUND = 10 ** 6


def _reject_nonminimal(c4: int, c6: int) -> None:
    # not minimal at p exactly when p^4 | c4, p^6 | c6 and (c4/p^4, c6/p^6)
    # are the invariants of an integral model, which Kraus's conditions decide
    # (Kraus, Acta Arith. 54 (1989); Cremona, "Algorithms for Modular Elliptic
    # Curves", 1997, 3.2).  "p^4 | c4 and p^6 | c6" is p^12 | gcd(c4^3, c6^2).
    g = math.gcd(c4 ** 3, c6 ** 2)
    # trial division by d = 2, 3, 5, 7, 9, ...: each d that divides g is
    # prime, as its prime factors were divided out before it.  Past the bound,
    # a p^12 dividing g could only have p > bound, which is left undecided.
    for d in itertools.chain((2,), itertools.count(3, 2)):
        if d ** 12 > g:
            return
        if d > _MINIMALITY_TRIAL_BOUND:
            raise ValueError(
                f"cannot decide minimality: gcd(c4^3, c6^2) keeps a {g.bit_length()}-bit "
                f"cofactor with no prime factor up to the trial-division bound "
                f"{_MINIMALITY_TRIAL_BOUND}"
            )
        if g % d == 0:
            if g % d ** 12 == 0:
                c4p, c6p = c4 // d ** 4, c6 // d ** 6
                if (
                    (c4p ** 3 - c6p ** 2) % 1728 == 0
                    and (c6p % 9 or c6p % 27 == 0)
                    and (c6p % 4 == 3 or (c4p % 16 == 0 and c6p % 32 in (0, 8)))
                ):
                    raise SingularCurve(
                        f"model is not minimal at p={d} "
                        f"(Kraus's conditions hold for c4/p^4, c6/p^6)"
                    )
            while g % d == 0:
                g //= d


def count_points(c: Curve, p: int) -> int:
    """#E~(F_p): affine solutions mod p, a singular one included, plus infinity.

    The regimes are described in the module docstring: exhaustive at p = 2,
    `_count_bsgs` at good p > 229, and a table of squares mod p elsewhere.
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
    if p > _MESTRE_BOUND and c.disc % p:
        return _count_bsgs(-27 * c.c4 % p, -54 * c.c6 % p, p)
    roots = bytearray(p)  # roots[v] = #{y mod p : y^2 = v}
    roots[0] = 1
    for y in range(1, p // 2 + 1):
        roots[y * y % p] = 2
    return 1 + sum(roots[(((4 * x + c.b2) * x + 2 * c.b4) * x + c.b6) % p] for x in range(p))


def _count_bsgs(A: int, B: int, p: int) -> int:
    """#E(F_p) for the short model E: y^2 = x^3 + A*x + B, good at p > 229.

    For each x0 with f = x0^3 + A*x0 + B != 0, P = (x0*f, f^2) lies on
    y^2 = x^3 + A*f^2*x + B*f^3, which is E if f is a square mod p and its
    quadratic twist otherwise; a twist count m stands for 2p + 2 - m on E.
    Every m in the Hasse interval with [m]P = O is found by baby steps
    j*P, j < s, and giant steps of s*P from [lo]P.  The candidates are
    intersected over x0 until one is left.
    """
    w = math.isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    s = math.isqrt(2 * w) + 1
    left = None
    for x0 in range(p):
        f = (x0 * x0 * x0 + A * x0 + B) % p
        if f == 0:
            continue
        a = A * f * f % p
        P = (x0 * f % p, f * f % p)
        # keys are -j*P, so that [lo + i*s]P = -j*P gives m = lo + i*s + j
        baby, R = {None: 0}, None
        for j in range(1, s):
            R = _point_add(R, P, a, p)
            if R is None:  # the order of P is j
                found = set(range(-(-lo // j) * j, hi + 1, j))
                break
            baby[(R[0], -R[1] % p)] = j
        else:
            G = _point_add(R, P, a, p)  # s*P
            found = set()
            R = _point_mul(lo, P, a, p)
            for i in range(lo, hi + 1, s):
                j = baby.get(R)
                if j is not None and i + j <= hi:
                    found.add(i + j)
                R = _point_add(R, G, a, p)
        if pow(f, (p - 1) // 2, p) != 1:
            found = {2 * p + 2 - m for m in found}
        left = found if left is None else left & found
        if len(left) == 1:
            return left.pop()
    raise InternalIntegralityFailure(
        f"baby-step/giant-step left {sorted(left or ())} as #E(F_{p}) candidates"
    )


def _point_add(P, Q, a: int, p: int):
    """P + Q on y^2 = x^3 + a*x + b over F_p; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _point_mul(k: int, P, a: int, p: int):
    """[k]P for k >= 0 by double-and-add."""
    R = None
    for bit in bin(k)[2:]:
        R = _point_add(R, R, a, p)
        if bit == "1":
            R = _point_add(R, P, a, p)
    return R


def reduction_at(c: Curve, p: int) -> ReductionInfo:
    """Reduction type and a_p = p + 1 - #E~(F_p) at prime p.

    The count includes the singular point of a bad reduction, so one rule
    covers every reduction type; the kind is read from (p | disc, a_p).
    """
    ap = p + 1 - count_points(c, p)
    good = c.disc % p != 0
    # a singular cubic has p, p - 1 or p + 1 nonsingular points
    if ap * ap > (4 * p if good else 1):
        raise InternalIntegralityFailure(f"Hasse bound violated at p={p}: a_p = {ap}")
    if good:
        return ReductionInfo(p, GOOD, ap)
    return ReductionInfo(p, {1: MULT_SPLIT, -1: MULT_NONSPLIT, 0: ADDITIVE}[ap], ap)


@lru_cache(maxsize=None)
def _cached_reduction(c: Curve, p: int) -> ReductionInfo:
    return reduction_at(c, p)


def an_expansion(c: Curve, order: int) -> PowerSeries:
    """Newform q-expansion sum f_n q^n to the given truncation order.

    One pass over n = 2 .. order - 1, with p the smallest prime factor of n
    from one sieve and p^e its full power in n: f_p = a_p from `reduction_at`
    (asked once per prime, p increasing), f_{p^k} = a_p*f_{p^(k-1)} -
    [p does not divide disc]*p*f_{p^(k-2)}, and f_n = f_{p^e} * f_{n/p^e} otherwise.
    """
    if order < 2:
        raise ValueError("an_expansion needs order >= 2")
    f = [0] * order
    f[1] = 1
    spf = smallest_prime_factors(order - 1)
    pe = [1] * order  # pe[n] = the full power of spf[n] dividing n
    for n in range(2, order):
        p = spf[n]
        m = n // p
        pe[n] = pe[m] * p if spf[m] == p else p
        if pe[n] != n:
            f[n] = f[pe[n]] * f[n // pe[n]]
        elif m == 1:
            f[n] = _cached_reduction(c, p).ap
        else:
            f[n] = f[p] * f[m] - (p if c.disc % p else 0) * f[m // p]
    return PowerSeries(tuple(f))
