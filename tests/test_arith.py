import pytest

from newform_products.arith import (
    Factorization,
    divisors,
    factor,
    is_prime,
    legendre,
    primes_upto,
)


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

