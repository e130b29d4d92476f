"""Exact necklace counts by alternation number, and their distributions.

Two circular chains count as the same necklace when one is a rotation or
reflection of the other.  Counts here are class-uniform: each distinct
necklace contributes once, however many raw chains fold onto it.  The
Monte Carlo sampler in `montecarlo` is chain-uniform instead (every
arrangement equally likely); at the sizes studied the two weightings agree
to well within sampling noise, but they are not identical measures.

Production counts come from a closed-form integer Burnside sum over the
dihedral group acting on the 2M containers (`necklace_count`).  The
general route that substitutes the weight series into the bipartite cycle
index gives the same numbers; it lives with the tests
(``tests/reference``), which compare the two.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, gcd

from .numtheory import binomial, divisors, totient


class IntegralityError(ArithmeticError):
    """An orbit total failed to reduce to an integer.

    Burnside averages over a genuine group action are always integers, so
    this firing means the fixed-point sum (or cycle index) is malformed.
    """


# The package's records are namedtuple subclasses, not dataclasses:
# `dataclasses` loads `inspect`, `ast` and `dis` and execs generated
# methods, which made every command start noticeably slower.  The class
# annotations document the field types; the namedtuple defines the fields.
class NecklaceSpec(namedtuple("NecklaceSpec", "n_at n_gc")):
    """Bead content of a necklace: n_at white (AT) and n_gc black (GC)."""

    __slots__ = ()
    n_at: int
    n_gc: int

    def __new__(cls, n_at: int, n_gc: int) -> NecklaceSpec:
        if n_at < 0 or n_gc < 0:
            raise ValueError(f"bead counts must be >= 0, got ({n_at}, {n_gc})")
        if n_at + n_gc == 0:
            raise ValueError("the empty necklace (0, 0) is not defined")
        return tuple.__new__(cls, (n_at, n_gc))

    @classmethod
    def _make(cls, iterable) -> NecklaceSpec:
        # namedtuple's _make (and _replace, which calls it) skips __new__.
        return cls(*iterable)

    @property
    def total(self) -> int:
        return self.n_at + self.n_gc

    @property
    def max_alternations(self) -> int:
        return 2 * min(self.n_at, self.n_gc)


def necklace_count(m: int, spec: NecklaceSpec) -> int:
    """Distinct necklaces with exactly 2M alternations and the given content.

    Zero whenever M exceeds min(n_at, n_gc): some container would be empty.

    Burnside's lemma over the 2M rotations and reflections of the
    containers, each fixed-point count in closed form (a container holds
    at least one bead, so these are the coefficients of the dihedral cycle
    index with f(x) = x + x^2 + ... substituted):

    * the rotations with d-cycles number phi(d), and fix an assignment
      only when d divides g = gcd(M, n_at, n_gc): C(n_at/d-1, M/d-1)
      choices of white totals times the same for black.  The identity
      (d = 1) always contributes; when g = 1, the usual case, it is the
      only rotation that does, and no divisor or totient is computed;
    * for odd M each axis fixes one container of each color and pairs
      the rest, [x^r] f(x) f(x^2)^k = C((r-1)//2, k) with k = (M-1)/2;
    * for even M, with k = M/2, k of the M axes pass through two white
      containers and k through two black ones.  The color with the fixed
      containers gives [x^r] f(x)^2 f(x^2)^(k-1) = C(r//2, k) +
      C((r-1)//2, k); the other color, paired throughout, gives
      [x^r] f(x^2)^k = C(r/2-1, k-1) for even r and 0 otherwise.

    Once 1 <= M <= min(n_at, n_gc) no binomial argument is negative, and
    math.comb already gives 0 for k > n.  The fixed-point total must
    divide by the group order 2M; a remainder raises IntegralityError.
    """
    if m <= 0:
        raise ValueError(f"container count must be >= 1, got M={m}")
    n_at, n_gc = spec.n_at, spec.n_gc
    if m > min(n_at, n_gc):
        return 0
    fixed = comb(n_at - 1, m - 1) * comb(n_gc - 1, m - 1)
    g = gcd(m, n_at, n_gc)
    if g > 1:
        for d in divisors(g)[1:]:
            fixed += (
                totient(d)
                * comb(n_at // d - 1, m // d - 1)
                * comb(n_gc // d - 1, m // d - 1)
            )
    if m % 2 == 1:
        k = (m - 1) // 2
        fixed += m * comb((n_at - 1) // 2, k) * comb((n_gc - 1) // 2, k)
    else:
        k = m // 2
        if n_gc % 2 == 0:
            through = comb(n_at // 2, k) + comb((n_at - 1) // 2, k)
            fixed += k * through * comb(n_gc // 2 - 1, k - 1)
        if n_at % 2 == 0:
            through = comb(n_gc // 2, k) + comb((n_gc - 1) // 2, k)
            fixed += k * through * comb(n_at // 2 - 1, k - 1)
    orbits, remainder = divmod(fixed, 2 * m)
    if remainder:
        raise IntegralityError(
            f"Burnside total {fixed} not divisible by group order {2 * m}"
        )
    return orbits


def zero_alternation_count(spec: NecklaceSpec) -> int:
    """Necklaces with no alternations: exactly the homogeneous ones."""
    return 1 if (spec.n_at == 0) != (spec.n_gc == 0) else 0


def count_necklaces(spec: NecklaceSpec, alpha: int) -> int:
    """Distinct necklaces with exactly `alpha` alternations.

    Walking the cycle returns to its start, so alternations always come in
    pairs; an odd alpha is a caller error, not a zero.
    """
    if alpha < 0:
        raise ValueError(f"alternation count must be >= 0, got {alpha}")
    if alpha % 2 != 0:
        raise ValueError(f"alternation count must be even, got {alpha}")
    if alpha == 0:
        return zero_alternation_count(spec)
    return necklace_count(alpha // 2, spec)


def alternation_distribution(spec: NecklaceSpec) -> dict[int, int]:
    """Counts for every alpha in {0, 2, ..., 2*min(n_at, n_gc)}.

    Entries may be zero (alpha = 0 is zero whenever both colors are
    present).  Keys are exactly the even integers in range.
    """
    dist = {0: zero_alternation_count(spec)}
    for m in range(1, min(spec.n_at, spec.n_gc) + 1):
        dist[2 * m] = necklace_count(m, spec)
    return dist


def bracelet_count_direct(spec: NecklaceSpec) -> int:
    """Total distinct necklaces, by a Burnside average over bead positions.

    This bypasses the container construction entirely: the rotation and
    reflection group of the N bead positions is averaged directly, giving
    an independent derivation of the sum of `alternation_distribution`'s
    counts.  Kept as a cross-check oracle.
    """
    n = spec.total
    n_at = spec.n_at
    fixed = 0
    # Rotations with cycle length d (and n/d cycles) number totient(d);
    # fixed arrangements need every cycle monochrome, so d must divide n_at.
    for d in divisors(n):
        if n_at % d == 0:
            fixed += totient(d) * binomial(n // d, n_at // d)
    if n % 2 == 1:
        # Each axis fixes one bead and pairs the rest; the fixed bead's
        # color is forced by the parity of n_at.
        fixed += n * binomial((n - 1) // 2, n_at // 2)
    else:
        half = n // 2
        # Axes between beads: all positions paired.
        if n_at % 2 == 0:
            fixed += half * binomial(half, n_at // 2)
        # Axes through two beads: the pair of fixed beads absorbs the
        # parity of n_at.
        if n_at % 2 == 0:
            fixed += half * (
                binomial(half - 1, n_at // 2) + binomial(half - 1, (n_at - 2) // 2)
            )
        else:
            fixed += half * 2 * binomial(half - 1, (n_at - 1) // 2)
    orbits, remainder = divmod(fixed, 2 * n)
    if remainder:
        raise ArithmeticError(
            f"Burnside total {fixed} not divisible by group order {2 * n}"
        )
    return orbits
