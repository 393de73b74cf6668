"""Exact truncated power series.

A PowerSeries of order T knows the coefficients of q^0 .. q^(T-1) exactly,
as Python ints.  Every binary operation truncates to the minimum of the
input orders; no operation ever fabricates coefficients beyond what the
inputs justify.  Inversion needs constant term +1 or -1.

PowerSeries, `eta.EtaQuotient` and `theta.MonomialArg` are `Frozen`:
immutable values, compared, hashed and pickled by their fields, that are
not tuples.

A fractional exponent appears only as an eta prefactor: q^e * S(q) is the
pair (e, S), with e a Fraction, and `frac_mul` multiplies two such pairs.

Every series product runs through one routine, `_middle`, the middle
product r_k = sum_i a_i T[k - i + n - 1] of an n-term a and a (2n-1)-term T
(Hanrot, Quercia and Zimmermann, "The middle product algorithm I", Appl.
Algebra Engrg. Comm. Comput. 14 (2004)).  A truncated product a(q) b(q) is
the middle product with T = n - 1 zeros followed by b.  `_middle` decides
the width once.  Terms whose products fit 64 bits go through one product of
two Python ints (Kronecker substitution; Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44 (2009)): each sequence is packed by one `struct` call into slots of 1,
2, 4 or 8 bytes, CPython multiplies the two ints in C (Karatsuba), and the
product's slots are read back the same way.  Wider terms go through
`_toeplitz`, a Karatsuba split along the index, so a wide term is only
added or multiplied by a narrow one and never padded to a slot.  The
series product first compresses both operands by the common stride t of
their supports, so a(q^t) b(q^t) costs a product of length T/t.

Every triangular solve x_n = step(n, sum_{j<n} x_j y_{n-j}), the inverse
here and both directions of the log-derivative recurrence in `products`,
runs through `_recurrence`.  It solves on the stride of y and divides and
conquers as relaxed multiplication does (van der Hoeven, "Relax, but don't
be too lazy", J. Symbolic Comput. 34 (2002)): each solved left half adds
its contributions to the right half's sums in one middle product.
"""

from __future__ import annotations

import math
import struct
from itertools import compress, islice
from operator import add, mul, sub

from .errors import NonUnitConstantTerm

_BLOCK = 32  # ranges this short are solved term by term


class Frozen:
    """An immutable value whose fields are its __slots__, in constructor
    order: compared, hashed, shown and pickled by those fields."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class PowerSeries(Frozen):
    """Coefficients of q^0 .. q^(order-1), a tuple of ints."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        if not coeffs:
            raise ValueError("PowerSeries needs order >= 1")
        super().__init__(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

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

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        T = min(self.order, other.order)
        return PowerSeries(tuple(a + b for a, b in zip(self.coeffs[:T], other.coeffs[:T])))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        T = min(self.order, other.order)
        return PowerSeries(tuple(a - b for a, b in zip(self.coeffs[:T], other.coeffs[:T])))

    def scale(self, k) -> "PowerSeries":
        return PowerSeries(tuple(k * c for c in self.coeffs))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        T = min(self.order, other.order)
        t = math.gcd(_stride(self.coeffs[:T]), _stride(other.coeffs[:T]))
        a, b = self.coeffs[:T:t], other.coeffs[:T:t]
        return PowerSeries(tuple(_spread(_middle((0,) * (len(a) - 1) + b, a), t, T)))

    def inverse(self) -> "PowerSeries":
        """1/a at the same order, for a_0 = +-1: h_0 = a_0, h_n = -a_0 sum_{j<n} h_j a_{n-j}."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise NonUnitConstantTerm(f"series needs constant term +-1, got {c0}")
        return PowerSeries(tuple(_recurrence(self.coeffs, c0, lambda n, s: -c0 * s)))

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


def _stride(seq) -> int:
    """The gcd of the indices n >= 1 with seq[n] != 0; len(seq) if there are none."""
    return math.gcd(*compress(range(1, len(seq)), islice(seq, 1, None))) or len(seq)


def _spread(c, t: int, order: int):
    """The series c(q^t) to the given order, for len(c) = ceil(order / t); c itself if t = 1."""
    if t == 1:
        return c
    out = [0] * order
    out[::t] = c
    return out


def _recurrence(y, x0, step) -> list:
    """x_0 = x0 and x_n = step(n, sum_{0 <= j < n} x_j y_{n-j}) for 1 <= n < len(y).

    Solves on z = y[::t] for the stride t of y, calling step with the true
    n, and spreads x back onto the t-grid.  That is exact when step(n, 0) = 0
    wherever y_n = 0, as x and every sum then vanish off the grid.  Terms
    are solved in increasing n, so `step` sees (and may reject) the first
    bad one.
    """
    t = _stride(y)
    z = y[::t]
    # until x_m is solved, x[m] holds the part of its sum added so far
    x = [x0 * v for v in z]
    x[0] = x0

    def solve(lo, hi):
        if hi - lo <= _BLOCK:
            for m in range(lo, hi):
                x[m] = step(t * m, x[m] + sum(map(mul, x[lo:m], z[m - lo : 0 : -1])))
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        # target mid + k takes sum_i x_(lo+i) z_(k-i+L) for i < L: the middle
        # product with T = z_(L-n+1) .. z_(L+n-1), where n - L is 0 or 1
        L, n = mid - lo, hi - mid
        cross = _middle(z[L - n + 1 : L + n], x[lo:mid] + [0] * (n - L))
        x[mid:hi] = map(add, x[mid:hi], cross)
        solve(mid, hi)

    solve(1, len(z))
    return _spread(x, t, len(y))


def _middle(T, a) -> list:
    """r_k = sum_i a_i T[k - i + n - 1] for 0 <= k < n = len(a), where len(T) = 2n - 1.

    r_k is the coefficient of q^(n-1+k) in a(q) T(q).  When its terms fit 64
    bits, that product is one product of two ints (Kronecker substitution):
    with slots of w = 1, 2, 4 or 8 bytes, where 2^(8w-1) exceeds every
    coefficient of a(q) T(q), each sequence becomes sum c_i 2^(8wi), and
    adding 2^(8w-1) to every slot of the product makes each slot
    nonnegative, so one `struct` call reads slots n-1 .. 2n-2 back.  Wider
    terms go to `_toeplitz`, so a narrow operand is never padded to the
    slots of a wide one.
    """
    n = len(a)
    bits = _slot_bits(T, a)
    if bits >= 64:
        return _toeplitz(T, a)
    w = 1 << (bits // 8).bit_length()
    half = 1 << (8 * w - 1)
    slot = bytes(w - 1) + b"\x80"  # half, little-endian
    product = _pack(T, w, half, slot) * _pack(a, w, half, slot)
    packed = (product + int.from_bytes(slot * (2 * n - 1), "little")) >> (8 * w * (n - 1))
    raw = (packed & ((1 << (8 * w * n)) - 1)).to_bytes(w * n, "little")
    return [v - half for v in struct.unpack(f"<{n}{_SLOT_FORMATS[w]}", raw)]


def _toeplitz(T, a) -> list:
    """r_k = sum_i a_i T[k - i + n - 1] for 0 <= k < n = len(a), where len(T) = 2n - 1.

    The n x n Toeplitz matrix M[k][i] = T[k - i + n - 1] times a, by the 2 x 2
    Karatsuba split along the index: M11 = M00, so with P0 = M00 (a0 + a1),
    P1 = (M01 - M00) a1 and P2 = (M10 - M00) a0 the result is
    [P0 + P1, P0 + P2], three half-size products in place of four.  Each
    entry of a is only added to others or multiplied by a difference of
    entries of T.  Odd n pads both ends of T and the end of a with one 0;
    at n <= _BLOCK each r_k is one dot product.
    """
    n = len(a)
    if n <= _BLOCK:
        a = a[::-1]
        return [sum(map(mul, a, T[k : k + n])) for k in range(n)]
    if n % 2:
        return _toeplitz([0, *T, 0], [*a, 0])[:n]
    h = n // 2
    a0, a1 = a[:h], a[h:]
    m00 = T[h : 3 * h - 1]
    p0 = _toeplitz(m00, list(map(add, a0, a1)))
    p1 = _toeplitz(list(map(sub, T[: 2 * h - 1], m00)), a1)
    p2 = _toeplitz(list(map(sub, T[2 * h :], m00)), a0)
    return [*map(add, p0, p1), *map(add, p0, p2)]


def _slot_bits(a, b) -> int:
    """Bits that bound every coefficient of a(q) b(q): max|a| * max|b| * min(len a, len b)."""
    return (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
    )


_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _pack(c, w: int, half: int, slot: bytes) -> int:
    """sum c_i 2^(8wi) for |c_i| < half = 2^(8w-1), via one offset byte string."""
    raw = struct.pack(f"<{len(c)}{_SLOT_FORMATS[w]}", *[v + half for v in c])
    return int.from_bytes(raw, "little") - int.from_bytes(slot * len(c), "little")


def frac_mul(a: tuple, b: tuple) -> tuple:
    """(e1 + e2, S1 S2): the product of q^e1 S1(q) and q^e2 S2(q)."""
    return a[0] + b[0], a[1] * b[1]
