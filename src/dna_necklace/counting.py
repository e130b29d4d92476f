"""Exact necklace counts by alternation number, and their distributions.

Two circular chains count as the same necklace when one is a rotation or
reflection of the other.  Counts here are class-uniform: each distinct
necklace contributes once, however many raw chains fold onto it.  The
Monte Carlo sampler in `montecarlo` is chain-uniform instead (every
arrangement equally likely).  The two are not identical measures: for
balanced chains the L1 distance between the pdfs, in exact arithmetic, is
0.116 at (6, 6), 0.0143 at (10, 10), 2.9e-5 at (20, 20) and 6.7e-14 at
(50, 50).

Production counts come from one closed-form integer Burnside sum over
the dihedral group acting on the 2M containers (`count_necklaces`).  When
both colors hold at most 128 beads, every binomial it reads is C(n, k)
with n <= 127, read from `_PASCAL`: rows 0..127 of Pascal's triangle,
built at import by additions alone (8 256 ints in about 0.36 MB, about
1 ms in a fresh process).  Larger contents read the same C(n, k) from
math.comb, as `bracelet_count_direct` always does.  The general route
that substitutes the weight series into the bipartite cycle index gives
the same numbers; it lives with the tests
(``tests/reference``), which compare the two.  Counts are plain Python
ints, so they never overflow.  Every distribution checks its total
exactly against an independent Burnside sum over bead positions
(`bracelet_count_direct`), and the tests do so up to chains of 3 000
base pairs.  The command line prints counts past the interpreter's digit
limit exactly: `count` at (7500, 7500), 4 507 digits past the default
4 300, and `pdf` at (1200, 1200), 720 digits past a limit lowered to
640.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, gcd
from operator import add

# Bound once, as namedtuple's own generated __new__ does.
_tuple_new = tuple.__new__


class IntegralityError(ArithmeticError):
    """An orbit total failed to reduce to an integer, or a distribution's
    counts failed to sum to the independent bead-position total.

    Burnside averages over a genuine group action are always integers, and
    both derivations count the same necklaces, so this firing means the
    fixed-point sum (or cycle index) is malformed.
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


@lru_cache(maxsize=256)
def _rotation_classes(g: int) -> tuple[tuple[int, int], ...]:
    """(d, phi(d)) for each divisor d >= 2 of g, memoized, in no set order.

    One trial division of g, O(sqrt(g)) steps, finds each prime power p^i;
    phi is multiplicative and phi(p^i) = p^(i-1) (p - 1).
    """
    classes = [(1, 1)]
    p = 2
    while g > 1:
        if p * p > g:
            p = g  # what is left of g is prime
        if g % p == 0:
            power, grown = 1, []
            while g % p == 0:
                g //= p
                phi = power * (p - 1)
                power *= p
                grown += [(d * power, f * phi) for d, f in classes]
            classes += grown
        p += 1 if p == 2 else 2
    return tuple(classes[1:])


def _pascal_rows(count: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..count-1 of Pascal's triangle: row n holds C(n, 0..n).

    Built by Pascal's rule alone, C(n, k) = C(n-1, k-1) + C(n-1, k), so
    it shares no arithmetic with math.comb, which the tests compare it to.
    """
    rows = [(1,)]
    while len(rows) < count:
        above = rows[-1]
        rows.append((1, *map(add, above, above[1:]), 1))
    return tuple(rows)


# Contents with at most this many beads of each color read their binomials
# from the table; a table read is a few times cheaper than math.comb.
_PASCAL_ROWS = 128
_PASCAL = _pascal_rows(_PASCAL_ROWS)


class _CombRow(int):
    """Row n of Pascal's triangle past the table: row[k] is comb(n, k)."""

    __slots__ = ()

    def __getitem__(self, k: int) -> int:
        return comb(self, k)


class _CombRows:
    """Reads as `_PASCAL` does, for any row: rows[n][k] is comb(n, k)."""

    __slots__ = ()

    def __getitem__(self, n: int) -> _CombRow:
        return _CombRow(n)


_COMB_ROWS = _CombRows()


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
        if n_at <= 0 or n_gc <= 0:
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
      only rotation that does.  `_rotation_classes(g)` lists the others;
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
      M C(odd//2, k) C(even/2-1, k-1) assignments when exactly one color
      is even, (n_at + n_gc - M) C(n_at/2-1, k-1) C(n_gc/2-1, k-1) when
      both are, and none when both are odd.  The sum tests the cases in
      that order, one branch each: the first is the commonest, and each
      parity test is a generic int operation.

    The sum reads every C(n, k) as c[n][k]: from `_PASCAL` when each
    color holds at most `_PASCAL_ROWS` beads, else from `_COMB_ROWS`,
    which calls math.comb.  Once 1 <= M <= min(n_at, n_gc) every read has
    0 <= k <= n, so each is an entry of its row.  The fixed-point total
    must divide by the group order 2M; a remainder raises IntegralityError.
    """
    if alpha < 0 or alpha & 1:
        if alpha < 0:
            raise ValueError(f"alternation count must be >= 0, got {alpha}")
        raise ValueError(f"alternation count must be even, got {alpha}")
    m = alpha >> 1
    n_at, n_gc = spec
    if m > n_at or m > n_gc:
        return 0
    if not m:
        return 1 if (n_at == 0) != (n_gc == 0) else 0
    g = gcd(m, n_at, n_gc)
    k = m >> 1
    c = _PASCAL if n_at <= _PASCAL_ROWS and n_gc <= _PASCAL_ROWS else _COMB_ROWS
    fixed = c[n_at - 1][m - 1] * c[n_gc - 1][m - 1]
    if g > 1:
        for d, phi in _rotation_classes(g):
            fixed += phi * c[n_at // d - 1][m // d - 1] * c[n_gc // d - 1][m // d - 1]
    if m & 1:
        fixed += m * c[(n_at - 1) >> 1][k] * c[(n_gc - 1) >> 1][k]
    elif (n_at ^ n_gc) & 1:
        odd, even = (n_at, n_gc) if n_at & 1 else (n_gc, n_at)
        fixed += m * c[odd >> 1][k] * c[(even >> 1) - 1][k - 1]
    elif not n_at & 1:
        paired = c[(n_at >> 1) - 1][k - 1] * c[(n_gc >> 1) - 1][k - 1]
        fixed += (n_at + n_gc - m) * paired
    order = 2 * m
    if fixed % order:
        raise _not_divisible(fixed, order)
    return fixed // order


def alternation_distribution(spec: NecklaceSpec) -> dict[int, int]:
    """Counts for every alpha in {0, 2, ..., 2*min(n_at, n_gc)}.

    Entries may be zero (alpha = 0 is zero whenever both colors are
    present).  Keys are exactly the even integers in range.  The counts
    must sum to `bracelet_count_direct(spec)`; a mismatch, which
    divisibility alone can miss, raises IntegralityError.
    """
    dist = {a: count_necklaces(spec, a) for a in range(0, spec.max_alternations + 1, 2)}
    total, direct = sum(dist.values()), bracelet_count_direct(spec)
    if total != direct:
        raise IntegralityError(
            f"distribution total {_digits(total)} is not the bead-position"
            f" total {_digits(direct)}"
        )
    return dist


def bracelet_count_direct(spec: NecklaceSpec) -> int:
    """Total distinct necklaces, by a Burnside average over bead positions.

    This bypasses the container construction entirely: the rotation and
    reflection group of the N bead positions is averaged directly, giving
    an independent derivation of the total `alternation_distribution`
    checks its counts against.
    """
    n, n_at = spec.total, spec.n_at
    # The phi(d) rotations with cycle length d (and n/d cycles) fix an
    # arrangement only if every cycle is monochrome, so d must divide
    # g = gcd(n, n_at): the identity (d = 1), and `_rotation_classes(g)`.
    fixed = comb(n, n_at)
    g = gcd(n, n_at)
    for d, phi in _rotation_classes(g):
        fixed += phi * comb(n // d, n_at // d)
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
