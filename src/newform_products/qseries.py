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
sequence; the log-derivative kernel in `products` takes this packed
product for its narrow cross-products.  The inverse runs Newton's iteration
h <- h (2 - a h), doubling the known length each step, on the same packed
product (von zur Gathen and Gerhard, "Modern Computer Algebra", section
9.1).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import compress, islice

from .errors import NonUnitConstantTerm


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
        t = math.gcd(_stride(self.coeffs[:T]), _stride(other.coeffs[:T]))
        a = self.coeffs[:T:t]
        b = a if other is self else other.coeffs[:T:t]
        return PowerSeries(tuple(_spread(_packed_product(a, b, len(a)), t, T)))

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse at the same order; needs constant term +-1.

        Newton's iteration h <- h + h (1 - a h) doubles the known length of
        h each step, on a = self[::t] for the stride t of the support.
        """
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise NonUnitConstantTerm(f"series needs constant term +-1, got {c0}")
        t = _stride(self.coeffs)
        a = self.coeffs[::t]
        h = [c0]
        while len(h) < len(a):
            n = min(2 * len(h), len(a))
            # a h = 1 + q^len(h) r, so h (1 - a h) = -q^len(h) h r
            r = _packed_product(a[:n], h, n)[len(h) :]
            h += [-x for x in _packed_product(h, r, len(r))]
        return PowerSeries(tuple(_spread(h, t, self.order)))

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

    def __str__(self):
        parts = [f"{c}*q^{n}" for n, c in self.nonzero_items()[:8]]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(q^{self.order})"


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


def _slot_bits(a, b) -> int:
    """Bits that bound every coefficient of a(q) b(q): max|a| * max|b| * min(len a, len b)."""
    return (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
    )


_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _packed_product(a, b, n: int) -> list:
    """The first n coefficients of a(q) b(q), for integer sequences a and b.

    Kronecker substitution: with slots of w bytes, where 2^(8w-1) exceeds
    max|a| * max|b| * min(len a, len b) and so every product coefficient,
    each sequence becomes the one int sum a_i 2^(8wi), and the two ints are
    multiplied once.  Adding 2^(8w-1) to every slot makes each slot
    nonnegative.  A slot of at most 8 bytes is widened to 1, 2, 4 or 8
    bytes, so that `struct` packs and unpacks all slots in one call; a
    wider one goes through `to_bytes`/`from_bytes` slot by slot.
    """
    a, b = a[:n], b[:n]
    w = _slot_bits(a, b) // 8 + 1
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
