"""Euler's totient, the one number-theoretic primitive the counts need.

Counts are plain Python ints, so they never overflow.  The tests check
totals exactly against an independent Burnside sum over bead positions up
to chains of 3 000 base pairs, and the command line prints counts of more
than 4 300 digits exactly (chains of 15 000 and 52 500 base pairs).
"""

from __future__ import annotations


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

