"""Exact integer number theory: primality and a smallest-prime-factor sieve.

Everything here is pure and exact.  `is_prime` is a Miller-Rabin test that
is deterministic below 3.3 * 10^24 and refuses larger n.
"""

from __future__ import annotations

import math
from functools import lru_cache


# (n_max, k): the first k primes are a deterministic set of Miller-Rabin
# bases for every n < n_max (Jaeschke 1993; Sorenson and Webster 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.3 * 10^24, with the base set chosen by
    the size of n; ValueError above that, where no base set is proven."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    for n_max, k in _MR_BOUNDS:
        if n < n_max:
            break
    else:
        raise ValueError(f"is_prime() is deterministic only below {_MR_BOUNDS[-1][0]}, got {n}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * d, d odd
    d = (n - 1) >> s
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_factors(limit: int) -> list[int]:
    """spf[n] = the smallest prime dividing n, for 2 <= n <= limit (spf[0], spf[1] = 0, 1)."""
    spf = list(range(limit + 1))
    # descending, so the last write to each multiple is its smallest factor
    for d in range(math.isqrt(limit), 1, -1):
        spf[d * d :: d] = [d] * len(range(d * d, limit + 1, d))
    return spf
