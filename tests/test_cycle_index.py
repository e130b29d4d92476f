from fractions import Fraction

import pytest

from dna_necklace.counting import IntegralityError
from reference.cycle_index import (
    BipartiteCycleIndex,
    CycleTerm,
    count_orbits,
    cyclic_bipartite_index,
    dihedral_bipartite_index,
)


def term_set(index):
    return {(t.coeff, t.x_cycles, t.y_cycles) for t in index.terms}


def weighted_size(monomial):
    return sum(d * e for d, e in monomial)


class TestCyclicIndex:
    def test_identity_only_group(self):
        assert term_set(cyclic_bipartite_index(1)) == {
            (Fraction(1), ((1, 1),), ((1, 1),))
        }

    def test_prime_container_count(self):
        assert term_set(cyclic_bipartite_index(5)) == {
            (Fraction(1, 5), ((1, 5),), ((1, 5),)),
            (Fraction(4, 5), ((5, 1),), ((5, 1),)),
        }

    def test_composite_container_count(self):
        assert term_set(cyclic_bipartite_index(4)) == {
            (Fraction(1, 4), ((1, 4),), ((1, 4),)),
            (Fraction(1, 4), ((2, 2),), ((2, 2),)),
            (Fraction(1, 2), ((4, 1),), ((4, 1),)),
        }

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclic_bipartite_index(0)


class TestDihedralIndex:
    def test_odd_case(self):
        assert term_set(dihedral_bipartite_index(5)) == {
            (Fraction(1, 10), ((1, 5),), ((1, 5),)),
            (Fraction(2, 5), ((5, 1),), ((5, 1),)),
            (Fraction(1, 2), ((1, 1), (2, 2)), ((1, 1), (2, 2))),
        }

    def test_smallest_case_merges_to_identity(self):
        # The lone reflection coincides with the identity on one container
        # of each color, so the two halves merge.
        assert term_set(dihedral_bipartite_index(1)) == {
            (Fraction(1), ((1, 1),), ((1, 1),))
        }

    def test_even_case(self):
        assert term_set(dihedral_bipartite_index(2)) == {
            (Fraction(1, 4), ((1, 2),), ((1, 2),)),
            (Fraction(1, 4), ((2, 1),), ((2, 1),)),
            (Fraction(1, 4), ((1, 2),), ((2, 1),)),
            (Fraction(1, 4), ((2, 1),), ((1, 2),)),
        }

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dihedral_bipartite_index(-1)

    def test_coefficients_sum_to_one(self):
        for m in range(1, 201):
            for build in (cyclic_bipartite_index, dihedral_bipartite_index):
                total = sum(t.coeff for t in build(m).terms)
                assert total == 1, (build.__name__, m)

    def test_every_term_permutes_all_containers(self):
        for m in range(1, 201):
            for term in dihedral_bipartite_index(m).terms:
                assert weighted_size(term.x_cycles) == m
                assert weighted_size(term.y_cycles) == m

    def test_rendering(self):
        assert str(dihedral_bipartite_index(5)) == (
            "1/10·x1^5·y1^5 + 2/5·x5·y5 + 1/2·x1·x2^2·y1·y2^2"
        )
        assert str(dihedral_bipartite_index(1)) == "1·x1·y1"


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

    def test_rejects_negative_bead_counts(self):
        with pytest.raises(ValueError):
            count_orbits(dihedral_bipartite_index(2), -1, 4)

    def test_malformed_index_trips_integrality_check(self):
        bad = BipartiteCycleIndex(
            (CycleTerm(Fraction(1, 3), ((1, 1),), ((1, 1),)),)
        )
        with pytest.raises(IntegralityError):
            count_orbits(bad, 1, 1)
