"""Arbitrary-precision combinatorial primitives.

Counts are plain Python ints, so they never overflow: the toolkit
routinely produces values around 10^25 and is exercised up to chain
lengths of several thousand base pairs.
"""

from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 for k < 0, k > n, or n < 0.

    The zero convention is load-bearing: `bracelet_count_direct` relies on
    out-of-range binomials vanishing to encode impossible bead assignments
    (e.g. two AT beads on a mirror axis when n_at = 0), so this is a total
    function rather than one that raises.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def totient(n: int) -> int:
    """Euler's totient: the number of integers in [1, n] coprime to n.

    Computed as n * prod(1 - 1/p) over the prime factors p of n, found by
    trial division in O(sqrt(n)) steps.
    """
    if n <= 0:
        raise ValueError(f"totient requires n >= 1, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


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
