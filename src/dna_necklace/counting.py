"""Exact necklace counts by alternation number, and their distributions.

Two circular chains count as the same necklace when one is a rotation or
reflection of the other.  Counts here are class-uniform: each distinct
necklace contributes once, however many raw chains fold onto it.  The
Monte Carlo sampler in `montecarlo` is chain-uniform instead (every
arrangement equally likely).  The two are not identical measures: for
balanced chains the L1 distance between the pdfs, in exact arithmetic, is
0.116 at (6, 6), 0.0143 at (10, 10), 2.9e-5 at (20, 20) and 6.7e-14 at
(50, 50).

Production counts come from a closed-form integer Burnside sum over the
dihedral group acting on the 2M containers (`count_necklaces`).  The
general route that substitutes the weight series into the bipartite cycle
index gives the same numbers; it lives with the tests
(``tests/reference``), which compare the two.  Counts are plain Python
ints, so they never overflow.  The tests check totals exactly against an
independent Burnside sum over bead positions (`bracelet_count_direct`) up
to chains of 3 000 base pairs, and the command line prints counts of more
than 4 300 digits exactly (chains of 15 000 and 52 500 base pairs).
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, gcd

# Bound once, as namedtuple's own generated __new__ does.
_tuple_new = tuple.__new__


class IntegralityError(ArithmeticError):
    """An orbit total failed to reduce to an integer.

    Burnside averages over a genuine group action are always integers, so
    this firing means the fixed-point sum (or cycle index) is malformed.
    """


def _digits(count: int) -> str:
    """The exact decimal digits of a count, however many there are.

    `str` refuses ints past the interpreter's digit limit
    (`sys.get_int_max_str_digits()`, 4 300 by default); `decimal` converts
    them exactly without changing that limit, and is loaded only then.
    """
    try:
        return str(count)
    except ValueError:
        import decimal

        return str(decimal.Decimal(count))


def _not_divisible(fixed: int, order: int) -> IntegralityError:
    """IntegralityError for a Burnside total the group order does not divide."""
    return IntegralityError(
        f"Burnside total {_digits(fixed)} not divisible by group order {order}"
    )


def _totient(n: int) -> int:
    """Euler's totient of n >= 1: the number of integers in [1, n] coprime to n.

    Computed as n * prod(1 - 1/p) over the prime factors p of n, found by
    trial division in O(sqrt(n)) steps.  Callers pass rotation classes d >= 2.
    """
    result = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


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
        return _tuple_new(cls, (n_at, n_gc))

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


def count_necklaces(spec: NecklaceSpec, alpha: int) -> int:
    """Distinct necklaces with the given content and exactly `alpha` alternations.

    Walking the cycle returns to its start, so alternations come in pairs
    and a negative or odd alpha is a caller error, not a zero.  alpha = 2M
    alternations bound M containers of each color; M > min(n_at, n_gc)
    would leave one empty, so the count is 0.  M = 0 is the homogeneous
    necklace: 1 when exactly one color is present, else 0.

    Burnside's lemma over the 2M rotations and reflections of the
    containers, each fixed-point count in closed form (a container holds
    at least one bead, so these are the coefficients of the dihedral cycle
    index with f(x) = x + x^2 + ... substituted):

    * the rotations with d-cycles number phi(d), and fix an assignment
      only when d divides g = gcd(M, n_at, n_gc): C(n_at/d-1, M/d-1)
      choices of white totals times the same for black.  The identity
      (d = 1) always contributes; when g = 1, the usual case, it is the
      only rotation that does.  Otherwise d walks 2..g, and each d with
      g % d == 0 adds its term with one totient call;
    * for odd M each axis fixes one container of each color and pairs
      the rest, [x^r] f(x) f(x^2)^k = C((r-1)//2, k) with k = (M-1)/2;
    * for even M, with k = M/2, k of the M axes pass through two white
      containers and k through two black ones.  The color with the fixed
      containers gives [x^r] f(x)^2 f(x^2)^(k-1) = C(r//2, k) +
      C((r-1)//2, k); the other color, paired throughout, gives
      [x^r] f(x^2)^k = C(r/2-1, k-1) for even r and 0 otherwise.  The
      sum folds into one term: its halves are equal for odd r, and for
      r = 2a Pascal's rule with C(a-1, k) = ((a-k)/k) C(a-1, k-1) gives
      C(a, k) + C(a-1, k) = ((2a-k)/k) C(a-1, k-1).  So the axes fix
      (n_at + n_gc - M) C(n_at/2-1, k-1) C(n_gc/2-1, k-1) assignments
      when both colors are even, M C(odd//2, k) C(even/2-1, k-1) when
      exactly one is, and none when both are odd.

    Once 1 <= M <= min(n_at, n_gc) no argument of C is negative, and
    math.comb already gives 0 for k > n.  The fixed-point total must
    divide by the group order 2M; a remainder raises IntegralityError.
    """
    if alpha < 0:
        raise ValueError(f"alternation count must be >= 0, got {alpha}")
    if alpha & 1:
        raise ValueError(f"alternation count must be even, got {alpha}")
    m = alpha >> 1
    n_at, n_gc = spec
    if m > n_at or m > n_gc:
        return 0
    if not m:
        return 1 if (n_at == 0) != (n_gc == 0) else 0
    fixed = comb(n_at - 1, m - 1) * comb(n_gc - 1, m - 1)
    g = gcd(m, n_at, n_gc)
    if g > 1:
        for d in range(2, g + 1):
            if g % d == 0:
                fixed += (
                    _totient(d)
                    * comb(n_at // d - 1, m // d - 1)
                    * comb(n_gc // d - 1, m // d - 1)
                )
    k = m >> 1
    if m & 1:
        fixed += m * comb((n_at - 1) >> 1, k) * comb((n_gc - 1) >> 1, k)
    elif not n_at & 1:
        if n_gc & 1:
            fixed += m * comb(n_gc >> 1, k) * comb((n_at >> 1) - 1, k - 1)
        else:
            paired = comb((n_at >> 1) - 1, k - 1) * comb((n_gc >> 1) - 1, k - 1)
            fixed += (n_at + n_gc - m) * paired
    elif not n_gc & 1:
        fixed += m * comb(n_at >> 1, k) * comb((n_gc >> 1) - 1, k - 1)
    order = 2 * m
    if fixed % order:
        raise _not_divisible(fixed, order)
    return fixed // order


def alternation_distribution(spec: NecklaceSpec) -> dict[int, int]:
    """Counts for every alpha in {0, 2, ..., 2*min(n_at, n_gc)}.

    Entries may be zero (alpha = 0 is zero whenever both colors are
    present).  Keys are exactly the even integers in range.
    """
    return {a: count_necklaces(spec, a) for a in range(0, 2 * min(spec) + 1, 2)}


def bracelet_count_direct(spec: NecklaceSpec) -> int:
    """Total distinct necklaces, by a Burnside average over bead positions.

    This bypasses the container construction entirely: the rotation and
    reflection group of the N bead positions is averaged directly, giving
    an independent derivation of the sum of `alternation_distribution`'s
    counts.  Kept as a cross-check oracle.
    """
    n = spec.total
    n_at = spec.n_at
    # Rotations with cycle length d (and n/d cycles) number totient(d);
    # fixed arrangements need every cycle monochrome, so d must divide
    # g = gcd(n, n_at).  The identity (d = 1) always does.
    fixed = comb(n, n_at)
    g = gcd(n, n_at)
    for d in range(2, g + 1):
        if g % d == 0:
            fixed += _totient(d) * comb(n // d, n_at // d)
    # Each axis pairs the positions off it.  For odd n it passes through
    # one bead, whose color the parity of n_at forces.  For even n, half
    # the axes pass through two beads and half through none; for even n_at
    # Pascal's rule makes their counts equal, and for odd n_at only the
    # former, with two beads of different colors, fix any.
    p = n // 2 if n % 2 == 0 and n_at % 2 == 0 else (n - 1) // 2
    fixed += n * comb(p, n_at // 2)
    order = 2 * n
    if fixed % order:
        raise _not_divisible(fixed, order)
    return fixed // order
