"""Brute-force ground truth on every bead arrangement (small N only).

A chain of n beads is an n-bit integer: the first bead is the most
significant bit, a 1 bit a white bead (AT pair) and a 0 bit a black bead
(GC pair).  Rotating the chain by one bead rotates the integer left by
one bit, and reading it backwards reverses its n bits.  Everything here
is written to be checkable by inspection rather than clever: a value is
counted when none of its 2n rotated/reflected images is smaller, and the
enumeration walks every one of the 2^n values.  None of the production
counting formulas are used, so agreement with `counting` is a genuine
two-route check.
"""

from __future__ import annotations

# 2^N values are walked.  The bound is the `oracle` command's accepted
# range, a contract of the CLI; the walk itself would allow more.
MAX_ENUMERATION_BITS = 18


def _no_rotation_below(image: int, value: int, n: int) -> bool:
    """Whether every one of the n rotations of the n-bit `image` is at
    least `value`."""
    mask = (1 << n) - 1
    for _ in range(n):
        if image < value:
            return False
        image = ((image << 1) | (image >> (n - 1))) & mask
    return True


def enumerate_all(n: int) -> dict[tuple[int, int], int]:
    """Exact necklace counts per (whites, alternations) bucket at length n.

    Walks the 2^n values in increasing order and tallies those that no
    rotation of themselves or of their mirror image undercuts, so each
    class is counted once, where it is first met: at its minimum value.
    A value's whites are its 1 bits, and its alternations are the bits in
    which it differs from its rotation by one.  With the first bead as the
    most significant bit, values order as their 0/1 bead strings do, so
    the buckets come in the order of each class's least string.
    """
    if not 1 <= n <= MAX_ENUMERATION_BITS:
        raise ValueError(
            f"enumeration supports 1 <= n <= {MAX_ENUMERATION_BITS}, got {n}"
        )
    mask = (1 << n) - 1
    buckets: dict[tuple[int, int], int] = {}
    for value in range(1 << n):
        # The mirror image is formed only for values that pass their own
        # rotations, which most do not.
        if _no_rotation_below(value, value, n) and _no_rotation_below(
            int(format(value, f"0{n}b")[::-1], 2), value, n
        ):
            neighbour = ((value << 1) | (value >> (n - 1))) & mask
            key = (value.bit_count(), (value ^ neighbour).bit_count())
            buckets[key] = buckets.get(key, 0) + 1
    return buckets
