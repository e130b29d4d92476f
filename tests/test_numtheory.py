"""The counting kernel's private `_totient`, and the `binomial`,
`divisors` and `totient` helpers of the reference route in
`tests/reference/`, which the package does not ship.  The reference
`totient` counts coprime j straight from the definition, so `_totient`'s
trial-division route is checked against arithmetic it does not share."""

import math

import pytest

from dna_necklace.counting import _totient as totient
from reference.cycle_index import divisors, totient as totient_by_definition
from reference.series import binomial


class TestBinomial:
    def test_known_values(self):
        assert binomial(5, 4) == 5
        assert binomial(7, 4) == 35
        assert binomial(3, 5) == 0

    def test_choose_zero_is_one(self):
        for n in (0, 1, 2, 17, 100):
            assert binomial(n, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(-1, 0) == 0
        assert binomial(-3, -2) == 0

    def test_pascal_rule_exhaustive(self):
        for n in range(1, 61):
            for k in range(1, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_symmetry_exhaustive(self):
        for n in range(61):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n, n - k)

    def test_no_overflow_at_large_inputs(self):
        value = binomial(5000, 2500)
        assert value > 10**1000
        assert value == binomial(5000, 2499) * 2501 // 2500


class TestTotient:
    def test_known_values(self):
        assert totient(1) == 1
        assert totient(5) == 4
        assert totient(12) == 4

    def test_multiplicative_on_coprime_pairs(self):
        for m in range(1, 101):
            for n in range(1, 101):
                if math.gcd(m, n) == 1:
                    assert totient(m * n) == totient(m) * totient(n)

    def test_divisor_sum_identity(self):
        for n in range(1, 501):
            assert sum(totient(d) for d in divisors(n)) == n

    def test_reference_satisfies_divisor_sum_identity(self):
        # Gauss's identity checks the reference phi without the kernel's.
        for n in range(1, 501):
            assert sum(totient_by_definition(d) for d in divisors(n)) == n

    def test_matches_gcd_count_definition(self):
        for n in range(1, 2001):
            assert totient(n) == totient_by_definition(n), n

    def test_factorization_path_matches_scan(self):
        # Past the exhaustive range: the primes 10 007 and 65 537, the
        # semiprime 10 001 = 73 * 137, 12 288 = 2^12 * 3 and the primorial
        # 30 030 = 2 * 3 * 5 * 7 * 11 * 13.
        for n in (10_001, 10_007, 12_288, 30_030, 65_537):
            assert totient(n) == totient_by_definition(n)


class TestDivisors:
    def test_known_values(self):
        assert divisors(5) == [1, 5]
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisors(0)
        with pytest.raises(ValueError):
            divisors(-12)

    def test_matches_trial_division(self):
        for n in range(1, 201):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
