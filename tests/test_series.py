import pytest

from reference.series import (
    SeriesFactor,
    binomial,
    binary_weight_coeff,
    product_weight_coeff,
    weight_coeff,
)


def expand_power(stride, power, limit):
    """Truncated coefficients of (x^stride + x^{2 stride} + ...)^power.

    Deliberately naive polynomial arithmetic: this is the independent
    reference the closed form is checked against.
    """
    one = [1] + [0] * limit
    base = [0] * (limit + 1)
    for exponent in range(stride, limit + 1, stride):
        base[exponent] = 1
    result = one
    for _ in range(power):
        result = multiply_truncated(result, base, limit)
    return result


def multiply_truncated(p, q, limit):
    out = [0] * (limit + 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j in range(min(limit - i, limit) + 1):
            if q[j]:
                out[i + j] += a * q[j]
    return out


LIMIT = 40


class TestWeightCoeff:
    def test_known_values(self):
        assert weight_coeff(8, (1, 5)) == 35
        assert weight_coeff(6, (2, 2)) == 2
        assert weight_coeff(5, (2, 1)) == 0
        assert weight_coeff(0, (1, 0)) == 1

    def test_power_zero_is_constant_one(self):
        for stride in range(0, 5):
            assert weight_coeff(0, (stride, 0)) == 1
            for r in range(1, 10):
                assert weight_coeff(r, (stride, 0)) == 0

    def test_matches_truncated_expansion(self):
        for a in range(1, 9):
            for b in range(0, 9):
                reference = expand_power(a, b, LIMIT)
                for r in range(LIMIT + 1):
                    assert weight_coeff(r, (a, b)) == reference[r], (r, a, b)

    def test_geometric_power_identity(self):
        # [x^{n+k}] f(x)^n reduces to a single binomial.
        for n in range(1, 13):
            for k in range(0, 21):
                assert weight_coeff(n + k, (1, n)) == binomial(n + k - 1, n - 1)

    def test_vanishes_below_lowest_term(self):
        for a in range(1, 7):
            for b in range(1, 7):
                for r in range(a * b):
                    assert weight_coeff(r, (a, b)) == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            weight_coeff(4, (0, 2))
        with pytest.raises(ValueError):
            weight_coeff(-1, (1, 1))
        with pytest.raises(ValueError):
            weight_coeff(4, (1, -1))
        with pytest.raises(ValueError):
            weight_coeff(4, (-2, 0))

    def test_accepts_named_factors(self):
        assert weight_coeff(8, SeriesFactor(1, 5)) == 35


class TestBinaryWeightCoeff:
    def test_known_values(self):
        assert binary_weight_coeff(6, (1, 1), (2, 2)) == 1
        assert binary_weight_coeff(8, (1, 1), (2, 2)) == 3
        assert binary_weight_coeff(3, (2, 1), (2, 1)) == 0

    def test_matches_truncated_expansion(self):
        for a1, b1 in [(1, 1), (2, 2), (3, 1), (1, 4), (2, 0)]:
            for a2, b2 in [(1, 2), (2, 1), (4, 2), (1, 0)]:
                reference = multiply_truncated(
                    expand_power(a1, b1, LIMIT), expand_power(a2, b2, LIMIT), LIMIT
                )
                for r in range(LIMIT + 1):
                    assert binary_weight_coeff(r, (a1, b1), (a2, b2)) == reference[r]

    def test_propagates_factor_errors(self):
        with pytest.raises(ValueError):
            binary_weight_coeff(4, (0, 2), (1, 1))


class TestProductWeightCoeff:
    def test_empty_product(self):
        assert product_weight_coeff(0, []) == 1
        for r in range(1, 6):
            assert product_weight_coeff(r, []) == 0

    def test_single_factor_reduces_to_weight_coeff(self):
        for r in range(0, 30):
            assert product_weight_coeff(r, [(1, 5)]) == weight_coeff(r, (1, 5))

    def test_two_factors_match_binary(self):
        partners = [(1, 2), (2, 1), (3, 4), (4, 0), (5, 2), (6, 6), (2, 3)]
        for a1 in range(1, 7):
            for b1 in range(0, 7):
                f2 = partners[(a1 * 7 + b1) % len(partners)]
                for r in range(0, LIMIT + 1, 3):
                    expected = binary_weight_coeff(r, (a1, b1), f2)
                    assert product_weight_coeff(r, [(a1, b1), f2]) == expected
                    # Padding with the constant series forces the general
                    # fold path without changing the value.
                    assert product_weight_coeff(r, [(a1, b1), f2, (1, 0)]) == expected

    def test_known_two_factor_value(self):
        assert product_weight_coeff(8, [(1, 1), (2, 2)]) == 3

    def test_three_factors_match_truncated_expansion(self):
        factors = [(1, 2), (2, 1), (3, 1)]
        reference = expand_power(1, 2, 30)
        reference = multiply_truncated(reference, expand_power(2, 1, 30), 30)
        reference = multiply_truncated(reference, expand_power(3, 1, 30), 30)
        for r in range(31):
            assert product_weight_coeff(r, factors) == reference[r]
