import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

from dna_necklace.counting import IntegralityError
from reference.cycle_index import (
    CycleTerm,
    count_orbits,
    dihedral_bipartite_index,
    divisors,
    product_weight_coeff,
    weight_coeff,
)


def term_set(terms):
    return {(t.coeff, t.x_cycles, t.y_cycles) for t in terms}


def weighted_size(monomial):
    return sum(d * e for d, e in monomial)


class TestDihedralIndex:
    def test_odd_case(self):
        assert term_set(dihedral_bipartite_index(5)) == {
            (Fraction(1, 10), ((1, 5),), ((1, 5),)),
            (Fraction(2, 5), ((5, 1),), ((5, 1),)),
            (Fraction(1, 2), ((1, 1), (2, 2)), ((1, 1), (2, 2))),
        }

    def test_smallest_case_keeps_both_halves(self):
        # The lone reflection acts like the identity on one container of
        # each color; its term is kept beside the identity's, not merged.
        half = CycleTerm(Fraction(1, 2), ((1, 1),), ((1, 1),))
        assert dihedral_bipartite_index(1) == (half, half)

    def test_even_case(self):
        assert term_set(dihedral_bipartite_index(2)) == {
            (Fraction(1, 4), ((1, 2),), ((1, 2),)),
            (Fraction(1, 4), ((2, 1),), ((2, 1),)),
            (Fraction(1, 4), ((1, 2),), ((2, 1),)),
            (Fraction(1, 4), ((2, 1),), ((1, 2),)),
        }

    def test_coefficients_sum_to_one(self):
        for m in range(1, 201):
            assert sum(t.coeff for t in dihedral_bipartite_index(m)) == 1, m

    def test_every_term_permutes_all_containers(self):
        for m in range(1, 201):
            for term in dihedral_bipartite_index(m):
                assert weighted_size(term.x_cycles) == m
                assert weighted_size(term.y_cycles) == m

    def test_every_monomial_has_one_or_two_cycle_lengths(self):
        # The coefficient extraction handles one or two factors.
        for m in range(1, 201):
            for term in dihedral_bipartite_index(m):
                assert 1 <= len(term.x_cycles) <= 2
                assert 1 <= len(term.y_cycles) <= 2


class TestCountOrbits:
    def test_worked_example(self):
        assert count_orbits(dihedral_bipartite_index(5), 8, 6) == 19

    def test_unique_two_bead_necklace(self):
        assert count_orbits(dihedral_bipartite_index(1), 1, 1) == 1

    def test_empty_container_impossible(self):
        assert count_orbits(dihedral_bipartite_index(3), 2, 5) == 0

    def test_color_swap_symmetry(self):
        for a in range(0, 31):
            for b in range(0, 31 - a):
                for m in range(1, min(a, b) + 1):
                    index = dihedral_bipartite_index(m)
                    assert count_orbits(index, a, b) == count_orbits(index, b, a)

    def test_vanishes_when_either_color_short(self):
        for m in range(1, 9):
            index = dihedral_bipartite_index(m)
            for a in range(13):
                for b in range(13):
                    if a < m or b < m:
                        assert count_orbits(index, a, b) == 0

    def test_malformed_index_trips_integrality_check(self):
        bad = (CycleTerm(Fraction(1, 3), ((1, 1),), ((1, 1),)),)
        with pytest.raises(IntegralityError):
            count_orbits(bad, 1, 1)


class TestDivisors:
    def test_known_values(self):
        assert divisors(5) == [1, 5]
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_matches_trial_division(self):
        for n in range(1, 201):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


# Coefficient extraction from the container weight series f(x) = x + x^2 + ...
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

    def test_matches_truncated_expansion(self):
        for a in range(1, 9):
            for b in range(1, 9):
                reference = expand_power(a, b, LIMIT)
                for r in range(LIMIT + 1):
                    assert weight_coeff(r, (a, b)) == reference[r], (r, a, b)

    def test_geometric_power_identity(self):
        # [x^{n+k}] f(x)^n reduces to a single binomial.
        for n in range(1, 13):
            for k in range(0, 21):
                assert weight_coeff(n + k, (1, n)) == math.comb(n + k - 1, n - 1)

    def test_vanishes_below_lowest_term(self):
        for a in range(1, 7):
            for b in range(1, 7):
                for r in range(a * b):
                    assert weight_coeff(r, (a, b)) == 0


class TestProductWeightCoeff:
    def test_single_factor_reduces_to_weight_coeff(self):
        for r in range(0, 30):
            assert product_weight_coeff(r, [(1, 5)]) == weight_coeff(r, (1, 5))

    def test_two_factors_match_truncated_expansion(self):
        for a1, b1 in [(1, 1), (2, 2), (3, 1), (1, 4)]:
            for a2, b2 in [(1, 2), (2, 1), (4, 2)]:
                reference = multiply_truncated(
                    expand_power(a1, b1, LIMIT), expand_power(a2, b2, LIMIT), LIMIT
                )
                for r in range(LIMIT + 1):
                    got = product_weight_coeff(r, [(a1, b1), (a2, b2)])
                    assert got == reference[r], (r, (a1, b1), (a2, b2))

    def test_known_values(self):
        assert product_weight_coeff(6, [(1, 1), (2, 2)]) == 1
        assert product_weight_coeff(8, [(1, 1), (2, 2)]) == 3
        assert product_weight_coeff(3, [(2, 1), (2, 1)]) == 0

    def test_third_factor_raises(self):
        # No dihedral monomial has three cycle lengths, so nothing folds a
        # third factor in.
        with pytest.raises(ValueError, match="at most two series factors, got 3"):
            product_weight_coeff(6, [(1, 2), (2, 1), (3, 1)])


def test_reference_imports_only_the_integrality_error_from_the_package():
    # The two routes to exact counts stay independent: the reference may
    # raise the package's IntegralityError, but takes no arithmetic from it.
    imported = set()
    for path in sorted((Path(__file__).parent / "reference").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {(alias.name, None) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported |= {(node.module, alias.name) for alias in node.names}
    from_package = {
        (module, name)
        for module, name in imported
        if module == "dna_necklace" or module.startswith("dna_necklace.")
    }
    assert from_package == {("dna_necklace.counting", "IntegralityError")}
