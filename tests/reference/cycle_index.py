"""Bipartite cycle indices of the container symmetry groups.

A necklace with 2M alternations is M white and M black containers placed
alternately around a circle.  Rotating or reflecting the necklace permutes
the white containers among themselves and likewise the black ones, so each
group element is summarized by how many d-cycles its permutation has on
each color class.  A bipartite cycle index collects these as monomials in
two indexed variable families, x_d for white-container cycles and y_d for
black-container cycles, with exact rational coefficients.

Indices are materialized as explicit term lists so the counting
substitution (replace x_d by f(x^d), y_d by f(y^d) and read off one
coefficient) stays a generic, separately testable step.  Production
counts do not take this route: `counting.count_necklaces` evaluates the
same Burnside sum in closed form with integers only.  This module is the
independent reference the tests check that kernel against, so it shares
no arithmetic with it: even Euler's phi is its own, from the definition.

``str(index)`` renders a human-readable polynomial for debugging, e.g.
``1/10·x1^5·y1^5 + 2/5·x5·y5 + 1/2·x1·y1·x2^2·y2^2``.  The format is for
eyes, not parsers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from dna_necklace.counting import IntegralityError

from .series import product_weight_coeff

# A monomial in one variable family: sorted ((subscript d, exponent), ...).
Monomial = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CycleTerm:
    coeff: Fraction
    x_cycles: Monomial
    y_cycles: Monomial


@dataclass(frozen=True)
class BipartiteCycleIndex:
    terms: tuple[CycleTerm, ...]

    def __str__(self) -> str:
        return " + ".join(_render_term(t) for t in self.terms)


def _render_vars(name: str, mono: Monomial) -> list[str]:
    return [
        f"{name}{d}" if e == 1 else f"{name}{d}^{e}" for d, e in mono
    ]


def _render_term(term: CycleTerm) -> str:
    parts = _render_vars("x", term.x_cycles) + _render_vars("y", term.y_cycles)
    return "·".join([str(term.coeff)] + parts) if parts else str(term.coeff)


def divisors(n: int) -> list[int]:
    """All divisors of n in increasing order, including 1 and n."""
    if n <= 0:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    large.reverse()
    return small + large


def totient(d: int) -> int:
    """Euler's phi by its definition: the j in 1..d with gcd(j, d) = 1."""
    return sum(1 for j in range(1, d + 1) if gcd(j, d) == 1)


def _monomial(exponents: dict[int, int]) -> Monomial:
    return tuple(sorted((d, e) for d, e in exponents.items() if e > 0))


def _merged(
    raw: list[tuple[Fraction, Monomial, Monomial]]
) -> tuple[CycleTerm, ...]:
    # Equal monomials (they arise for small M) merge by summing coefficients.
    acc: dict[tuple[Monomial, Monomial], Fraction] = {}
    order: list[tuple[Monomial, Monomial]] = []
    for coeff, xm, ym in raw:
        key = (xm, ym)
        if key not in acc:
            order.append(key)
            acc[key] = Fraction(0)
        acc[key] += coeff
    return tuple(CycleTerm(acc[k], k[0], k[1]) for k in order)


def cyclic_bipartite_index(m: int) -> BipartiteCycleIndex:
    """Index of the rotation-only action on M white and M black containers.

    Rotations act symmetrically on the two color classes; the rotations
    whose container permutation splits into d-cycles number totient(d) for
    each divisor d of M, giving (1/M) sum over d|M of phi(d) x_d^{M/d} y_d^{M/d}.
    """
    if m <= 0:
        raise ValueError(f"container count must be >= 1, got {m}")
    raw = [
        (Fraction(totient(d), m), _monomial({d: m // d}), _monomial({d: m // d}))
        for d in divisors(m)
    ]
    return BipartiteCycleIndex(_merged(raw))


def dihedral_bipartite_index(m: int) -> BipartiteCycleIndex:
    """Index of the full rotation+reflection action on the 2M containers.

    Half the group elements are the rotations of the cyclic index (their
    coefficients halve to phi(d)/2M).  The M reflections depend on parity:
    for odd M every axis fixes one white and one black container and pairs
    the rest, contributing (1/2) x1 y1 x2^{(M-1)/2} y2^{(M-1)/2}; for even M
    half the axes pass through two white containers and half through two
    black ones, contributing (1/4) x1^2 x2^{(M-2)/2} y2^{M/2} plus the
    color-swapped term.
    """
    if m <= 0:
        raise ValueError(f"container count must be >= 1, got {m}")
    raw = [
        (
            Fraction(totient(d), 2 * m),
            _monomial({d: m // d}),
            _monomial({d: m // d}),
        )
        for d in divisors(m)
    ]
    if m % 2 == 1:
        half = _monomial({1: 1, 2: (m - 1) // 2})
        raw.append((Fraction(1, 2), half, half))
    else:
        through = _monomial({1: 2, 2: (m - 2) // 2})
        across = _monomial({2: m // 2})
        raw.append((Fraction(1, 4), through, across))
        raw.append((Fraction(1, 4), across, through))
    return BipartiteCycleIndex(_merged(raw))


def count_orbits(index: BipartiteCycleIndex, n_at: int, n_gc: int) -> int:
    """Number of distinct colorings with bead totals (n_at, n_gc).

    Substitutes the weight series f for every variable and extracts the
    coefficient of x^n_at y^n_gc: per term the x- and y-monomials factor
    independently, so the coefficient is a product of two
    ``product_weight_coeff`` extractions.  The rational accumulation is
    exact; a non-integer total raises IntegralityError.
    """
    if n_at < 0 or n_gc < 0:
        raise ValueError(f"bead counts must be >= 0, got ({n_at}, {n_gc})")
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
