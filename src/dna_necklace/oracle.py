"""Brute-force ground truth on explicit bead strings (small N only).

Bead strings are plain '0'/'1' strings: '1' is a white bead (AT pair),
'0' a black bead (GC pair).  Everything here is written to be checkable
by inspection rather than fast: canonicalization takes a literal minimum
over all 2N rotated/reflected images, and enumeration walks every one of
the 2^N strings.  None of the production counting formulas are used, so
agreement with `counting` is a genuine two-route check.
"""

from __future__ import annotations

# 2^N strings are enumerated; past this the walk stops being interactive.
MAX_ENUMERATION_BITS = 18


def _check_bits(s: str) -> None:
    if not s:
        raise ValueError("bead string must be non-empty")
    if set(s) - {"0", "1"}:
        raise ValueError(f"bead string must contain only 0/1, got {s!r}")


def count_alternations(s: str) -> int:
    """Positions where a bead differs from its clockwise neighbor.

    The string is circular: the last bead neighbors the first.  The result
    is always even, and a single bead has no alternations.
    """
    _check_bits(s)
    n = len(s)
    return sum(1 for i in range(n) if s[i] != s[(i + 1) % n])


def canonical_form(s: str) -> str:
    """Lexicographically smallest of the 2N rotations of s and reversed s."""
    _check_bits(s)
    n = len(s)
    doubled = s + s
    rev = s[::-1]
    rev_doubled = rev + rev
    return min(
        min(doubled[i : i + n] for i in range(n)),
        min(rev_doubled[i : i + n] for i in range(n)),
    )


def enumerate_all(n: int) -> dict[tuple[int, int], int]:
    """Exact necklace counts per (whites, alternations) bucket at length n.

    Walks all 2^n strings and tallies those that are their own canonical
    form.  Fixed-width 0/1 strings order the same numerically and
    lexicographically, so each class is met first at its minimum.
    """
    if not 1 <= n <= MAX_ENUMERATION_BITS:
        raise ValueError(
            f"enumeration supports 1 <= n <= {MAX_ENUMERATION_BITS}, got {n}"
        )
    buckets: dict[tuple[int, int], int] = {}
    for value in range(2**n):
        s = format(value, f"0{n}b")
        if canonical_form(s) != s:
            continue
        key = (s.count("1"), count_alternations(s))
        buckets[key] = buckets.get(key, 0) + 1
    return buckets
