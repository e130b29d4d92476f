"""Necklaces as 0/1 bead strings, kept as the tests' reference for the oracle.

Bead strings are plain '0'/'1' strings: '1' is a white bead (AT pair),
'0' a black bead (GC pair).  Canonicalization takes a literal minimum
over all 2N rotated/reflected images, by slicing strings, and the
alternations are counted bead by bead.  `dna_necklace.oracle` does the
same on integers with shifts and masks; the tests check that its bucket
table equals the one these helpers give for every string.  This module
imports nothing from the package, and like `cycle_index` it does not
validate inputs the comparisons never pass (an empty string, a character
other than 0 or 1).
"""

from __future__ import annotations


def count_alternations(s: str) -> int:
    """Positions where a bead differs from its clockwise neighbor.

    The string is circular: the last bead neighbors the first.  The result
    is always even, and a single bead has no alternations.
    """
    n = len(s)
    return sum(1 for i in range(n) if s[i] != s[(i + 1) % n])


def canonical_form(s: str) -> str:
    """Lexicographically smallest of the 2N rotations of s and reversed s."""
    n = len(s)
    doubled = s + s
    rev = s[::-1]
    rev_doubled = rev + rev
    return min(
        min(doubled[i : i + n] for i in range(n)),
        min(rev_doubled[i : i + n] for i in range(n)),
    )
