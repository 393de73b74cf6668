"""Exact truncated power series.

A PowerSeries of order T knows the coefficients of q^0 .. q^(T-1) exactly,
as Python ints.  Every binary operation truncates to the minimum of the
input orders; no operation ever fabricates coefficients beyond what the
inputs justify.  Inversion needs constant term +1 or -1.

A fractional exponent appears only as an eta prefactor: q^e * S(q) is the
pair (e, S), with e a Fraction, and `frac_mul` multiplies two such pairs.

Every series product is one product of two Python ints (Kronecker
substitution; Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", J. Symbolic Comput. 44 (2009)).  Both operands are
first compressed by the common stride t of their supports, so a(q^t) b(q^t)
costs a product of length T/t.  Each coefficient list is packed into one
int, in slots wide enough that no coefficient of the product overflows its
slot; CPython multiplies the two ints in C (Karatsuba), and the product's
slots are read back from its bytes.  Slots of up to 8 bytes are widened to
1, 2, 4 or 8 bytes, so that one `struct` call packs or unpacks a whole
sequence.

Every triangular solve x_n = step(n, sum_{j<n} x_j y_{n-j}), the inverse
here and both directions of the log-derivative recurrence in `products`,
runs through `_recurrence`.  It solves on the stride of y and divides and
conquers as relaxed multiplication does (van der Hoeven, "Relax, but don't
be too lazy", J. Symbolic Comput. 34 (2002)): each solved left half adds
its contributions to the right half's sums in one cross-product, a packed
product when its terms fit 64 bits and, when wider, a Toeplitz
matrix-vector product split by Karatsuba along the index (`_toeplitz`, the
transposed Karatsuba or middle product: Hanrot, Quercia and Zimmermann,
"The middle product algorithm I", Appl. Algebra Engrg. Comm. Comput. 14
(2004)), so a wide term is only added or multiplied by a narrow one.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import compress, islice
from operator import add, mul, sub

from .errors import NonUnitConstantTerm

_BLOCK = 32  # ranges this short are solved term by term


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
        a = self.coeffs[:T:t]
        b = a if other is self else other.coeffs[:T:t]
        cross = _packed_product(a, b, len(a), _slot_bits(a, b))
        return PowerSeries(tuple(_spread(cross, t, T)))

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

    def subst_monomial(self, sign: int, t: int) -> "PowerSeries":
        """q -> sign * q^t; output order is input order * t."""
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        if t < 1:
            raise ValueError("scale must be a positive integer")
        out = [0] * (self.order * t)
        for n, c in enumerate(self.coeffs):
            out[n * t] = c if (sign == 1 or n % 2 == 0) else -c
        return PowerSeries(tuple(out))


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
    wherever y_n = 0, as x and every sum then vanish off the grid.  Wider
    cross-products are not packed, since the slots of extraction's c of
    thousands of bits would pad its narrow u to their width; `_toeplitz`
    computes them instead.  Terms are solved in increasing n, so `step` sees
    (and may reject) the first bad one.
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
        # targets m in [mid, hi) take x_j z_{m-j} for j in [lo, mid), so the
        # window z_1 .. z_{hi-lo-1} covers every m - j
        left, window = x[lo:mid], z[1 : hi - lo]
        bits = _slot_bits(left, window)
        if bits < 64:
            cross = _packed_product(left, window, hi - lo - 1, bits)[mid - lo - 1 :]
        else:
            # target mid + k takes sum_i x_(lo+i) z_(k-i+L): the Toeplitz
            # product with T = z_(L-n+1) .. z_(L+n-1)
            L, n = mid - lo, hi - mid
            cross = _toeplitz(z[L - n + 1 : L + n], left + [0] * (n - L))
        x[mid:hi] = map(add, x[mid:hi], cross)
        solve(mid, hi)

    solve(1, len(z))
    return _spread(x, t, len(y))


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


def _packed_product(a, b, n: int, bits: int) -> list:
    """The first n coefficients of a(q) b(q), for integer sequences a and b of
    at most n terms, given bits = _slot_bits(a, b).

    Kronecker substitution: with slots of w bytes, where 2^(8w-1) exceeds
    max|a| * max|b| * min(len a, len b) and so every product coefficient,
    each sequence becomes the one int sum a_i 2^(8wi), and the two ints are
    multiplied once.  Adding 2^(8w-1) to every slot makes each slot
    nonnegative.  A slot of at most 8 bytes is widened to 1, 2, 4 or 8
    bytes, so that `struct` packs and unpacks all slots in one call; a
    wider one goes through `to_bytes`/`from_bytes` slot by slot.
    """
    w = bits // 8 + 1
    if w <= 8:
        w = 1 << (w - 1).bit_length()
    half = 1 << (8 * w - 1)
    slot = bytes(w - 1) + b"\x80"  # half, little-endian
    x = _pack(a, w, half, slot)
    y = x if b is a else _pack(b, w, half, slot)
    m = min(n, len(a) + len(b) - 1)
    packed = (x * y + int.from_bytes(slot * m, "little")) & ((1 << (8 * w * m)) - 1)
    raw = packed.to_bytes(w * m, "little")
    if w in _SLOT_FORMATS:
        out = [v - half for v in struct.unpack(f"<{m}{_SLOT_FORMATS[w]}", raw)]
    else:
        out = [int.from_bytes(raw[i : i + w], "little") - half for i in range(0, w * m, w)]
    return out + [0] * (n - m)


def _pack(c, w: int, half: int, slot: bytes) -> int:
    """sum c_i 2^(8wi) for |c_i| < half = 2^(8w-1), via one offset byte string."""
    if w in _SLOT_FORMATS:
        raw = struct.pack(f"<{len(c)}{_SLOT_FORMATS[w]}", *[v + half for v in c])
    else:
        raw = b"".join([(v + half).to_bytes(w, "little") for v in c])
    return int.from_bytes(raw, "little") - int.from_bytes(slot * len(c), "little")


def frac_mul(a: tuple, b: tuple) -> tuple:
    """(e1 + e2, S1 S2): the product of q^e1 S1(q) and q^e2 S2(q)."""
    return a[0] + b[0], a[1] * b[1]
