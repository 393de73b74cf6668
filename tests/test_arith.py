import pytest

from newform_products.arith import is_prime, smallest_prime_factors
from newform_products.elliptic import count_points, curve_from_quintuple

from oracles import Factorization, divisors, factor, legendre, primes_upto


class TestFactor:
    def test_one_is_empty_product(self):
        assert factor(1) == Factorization(1, ())

    def test_twelve(self):
        assert factor(12).factors == ((2, 2), (3, 1))

    def test_table_conductor_2304(self):
        # oracle: trial division by hand, 2304 = 2^8 * 3^2
        assert factor(2304).factors == ((2, 8), (3, 2))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor(0)

    def test_roundtrip_products(self):
        for n in range(1, 2000):
            f = factor(n)
            prod = 1
            for p, e in f.factors:
                assert is_prime(p)
                prod *= p ** e
            assert prod == n


class TestDivisors:
    def test_examples(self):
        assert divisors(1) == [1]
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
        assert divisors(37) == [1, 37]

    def test_count_matches_factorization(self):
        for n in range(1, 3000):
            expected = 1
            for _, e in factor(n).factors:
                expected *= e + 1
            assert len(divisors(n)) == expected


class TestLegendre:
    def test_examples(self):
        assert legendre(1, 7) == 1
        assert legendre(0, 5) == 0
        assert legendre(2, 7) == 1  # 3^2 = 2 mod 7

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            legendre(1, 2)
        with pytest.raises(ValueError):
            legendre(1, 15)

    def test_against_square_enumeration(self):
        # brute-force oracle: a is a QR mod p iff some x^2 = a
        for p in primes_upto(101):
            if p == 2:
                continue
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in squares else -1)
                assert legendre(a, p) == expected



class TestIsPrime:
    def test_agrees_with_sieve(self):
        # the uncached function, so the test leaves no 2 * 10^5 cache entries
        primes = primes_upto(200000)
        assert [n for n in range(-3, 200001) if is_prime.__wrapped__(n)] == primes

    @pytest.mark.parametrize(
        "n, p",
        [
            # strong pseudoprimes to every base of the next smaller set
            (2047, 23),
            (1373653, 829),
            (25326001, 2251),
            (3215031751, 151),
            (2152302898747, 6763),
            (3474749660383, 1303),
            (341550071728321, 10670053),
            (3825123056546413051, 149491),
            (318665857834031151167461, 399165290221),
            # Carmichael numbers
            (561, 3),
            (1105, 5),
            (1729, 7),
            (41041, 7),
            (825265, 5),
            (321197185, 5),
            (5394826801, 7),
            (232250619601, 7),
            (9746347772161, 7),
        ],
    )
    def test_composites_that_fool_weaker_tests(self, n, p):
        assert n % p == 0 and 1 < p < n
        assert not is_prime.__wrapped__(n)

    @pytest.mark.parametrize(
        "p", [2, 3, 41, 43, 2 ** 31 - 1, 10 ** 12 + 39, 2 ** 61 - 1, 10 ** 24 + 7]
    )
    def test_primes(self, p):
        assert is_prime.__wrapped__(p)

    @pytest.mark.parametrize("n", [3317044064679887385961981, 2 ** 89 - 1])
    def test_refuses_above_bound(self, n):
        # the first is a strong pseudoprime to bases 2..41 and the first n
        # that Miller-Rabin with them does not decide; the second is prime
        with pytest.raises(ValueError, match="3317044064679887385961981"):
            is_prime.__wrapped__(n)
        with pytest.raises(ValueError, match="3317044064679887385961981"):
            count_points(curve_from_quintuple((0, 0, 1, -1, 0)), n)


class TestSmallestPrimeFactors:
    @pytest.mark.parametrize(
        "limit, expected", [(0, [0]), (1, [0, 1]), (2, [0, 1, 2]), (3, [0, 1, 2, 3])]
    )
    def test_small_limits(self, limit, expected):
        assert smallest_prime_factors(limit) == expected

    def test_against_factor_and_sieve(self):
        spf = smallest_prime_factors(10 ** 4)
        assert len(spf) == 10 ** 4 + 1
        for n in range(2, 10 ** 4 + 1):
            assert spf[n] == factor(n).factors[0][0], n
        assert [n for n in range(2, 10 ** 4 + 1) if spf[n] == n] == primes_upto(10 ** 4)
