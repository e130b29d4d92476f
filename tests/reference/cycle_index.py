"""Pólya's route to necklace counts, kept as the tests' reference.

A necklace with 2M alternations is M white and M black containers placed
alternately around a circle.  Its rotations and reflections permute the
white containers among themselves and likewise the black ones, so each
group element is summarized by its d-cycles on each color class: a
monomial in x_d (white cycles) and y_d (black cycles).  The bipartite
cycle index sums these monomials with exact rational coefficients.

A container holds at least one bead, so containers are counted by bead
content by f(x) = x + x^2 + ... = x / (1 - x).  Replacing x_d by f(x^d)
and y_d by f(y^d) and reading off one coefficient counts the necklaces
(de Bruijn, "Pólya's theory of counting", 1964), and the powers of f have
the closed form [x^r] f(x^a)^b = C(r/a - 1, b - 1) when a | r and
r >= a*b, else 0.

`counting.count_necklaces` evaluates the same Burnside sum in closed form
with integers only.  This module is the independent reference the tests
check it against, so it shares no arithmetic with it (even Euler's phi is
its own, from the definition), and it is only as general as those
comparisons need: it does not validate inputs that they never pass
(M or n below 1, negative bead counts, indices or powers, strides
below 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from dna_necklace.counting import IntegralityError

# A monomial in one variable family: sorted ((subscript d, exponent), ...).
# As a series it is the product of the factors f(x^d)^exponent.
Monomial = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CycleTerm:
    coeff: Fraction
    x_cycles: Monomial
    y_cycles: Monomial


@dataclass(frozen=True)
class BipartiteCycleIndex:
    terms: tuple[CycleTerm, ...]


def divisors(n: int) -> list[int]:
    """All divisors of n in increasing order, including 1 and n."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def totient(d: int) -> int:
    """Euler's phi by its definition: the j in 1..d with gcd(j, d) = 1."""
    return sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)


def _monomial(exponents: dict[int, int]) -> Monomial:
    return tuple(sorted((d, e) for d, e in exponents.items() if e > 0))


def dihedral_bipartite_index(m: int) -> BipartiteCycleIndex:
    """Index of the full rotation+reflection action on the 2M containers.

    The M rotations whose container permutation splits into d-cycles
    number phi(d) for each divisor d of M, contributing phi(d)/2M
    x_d^{M/d} y_d^{M/d}.  The M reflections depend on parity: for odd M
    every axis fixes one white and one black container and pairs the rest,
    contributing (1/2) x1 y1 x2^{(M-1)/2} y2^{(M-1)/2}; for even M half the
    axes pass through two white containers and half through two black
    ones, contributing (1/4) x1^2 x2^{(M-2)/2} y2^{M/2} plus the
    color-swapped term.  Terms with equal monomials (only at M = 1) are
    left unmerged: the substitution is linear in the terms.
    """
    terms = [
        CycleTerm(Fraction(totient(d), 2 * m), ((d, m // d),), ((d, m // d),))
        for d in divisors(m)
    ]
    if m % 2 == 1:
        half = _monomial({1: 1, 2: (m - 1) // 2})
        terms.append(CycleTerm(Fraction(1, 2), half, half))
    else:
        through = _monomial({1: 2, 2: (m - 2) // 2})
        across = _monomial({2: m // 2})
        terms.append(CycleTerm(Fraction(1, 4), through, across))
        terms.append(CycleTerm(Fraction(1, 4), across, through))
    return BipartiteCycleIndex(tuple(terms))


def weight_coeff(r: int, factor: tuple[int, int]) -> int:
    """Coefficient of x^r in f(x^stride)^power; power 0 is the constant 1."""
    stride, power = factor
    if power == 0:
        return 1 if r == 0 else 0
    if r % stride != 0 or r < stride * power:
        return 0
    return math.comb(r // stride - 1, power - 1)


def product_weight_coeff(r: int, factors: Monomial) -> int:
    """Coefficient of x^r in the product of at most two factors.

    A dihedral monomial has one cycle length (a rotation) or the lengths 1
    and 2 (a reflection), so one factor is a closed form and two are one
    convolution of closed forms.  A third factor raises ValueError rather
    than being folded in.  The empty product is the constant series 1.
    """
    if len(factors) > 2:
        raise ValueError(f"at most two series factors, got {len(factors)}")
    if len(factors) < 2:
        return weight_coeff(r, factors[0] if factors else (1, 0))
    first, second = factors
    return sum(
        weight_coeff(k, first) * weight_coeff(r - k, second) for k in range(r + 1)
    )


def count_orbits(index: BipartiteCycleIndex, n_at: int, n_gc: int) -> int:
    """Number of distinct colorings with bead totals (n_at, n_gc).

    Substitutes the weight series f for every variable and extracts the
    coefficient of x^n_at y^n_gc: per term the x- and y-monomials factor
    independently, so the coefficient is a product of two
    ``product_weight_coeff`` extractions.  The rational accumulation is
    exact; a non-integer total raises IntegralityError.
    """
    total = Fraction(0)
    for term in index.terms:
        cx = product_weight_coeff(n_at, term.x_cycles)
        cy = product_weight_coeff(n_gc, term.y_cycles)
        total += term.coeff * cx * cy
    if total.denominator != 1:
        raise IntegralityError(
            f"orbit total {total} is not an integer; malformed cycle index"
        )
    return int(total)
