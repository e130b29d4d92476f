"""Coefficient extraction for the container weight series f(x) = x + x^2 + ...

A container is a maximal run of same-colored beads and must hold at least
one bead, so the series counting containers by bead content is
f(x) = x + x^2 + x^3 + ... = x / (1 - x).  Its powers have the closed form

    [x^r] f(x^a)^b = C(r/a - 1, b - 1)   when a | r and r >= a*b, else 0,

which replaces naive series expansion with a single binomial.  Products of
a few such powers are handled by convolving closed-form coefficients.

Production counts do not call into this module: `counting.necklace_count`
uses the closed forms of the four products the dihedral index yields.
This generic extraction, with `cycle_index`, is the reference route the
tests compare those counts against.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 for k < 0, k > n, or n < 0.

    A total function rather than one that raises, so the reference route
    can read impossible assignments as zero counts.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


class SeriesFactor(NamedTuple):
    """One factor f(x^stride)^power; power == 0 is the constant series 1."""

    stride: int
    power: int


# Plain (stride, power) tuples are accepted anywhere a SeriesFactor is.
FactorLike = "SeriesFactor | tuple[int, int]"


def _validated(factor: tuple[int, int]) -> SeriesFactor:
    stride, power = factor
    if power < 0:
        raise ValueError(f"series power must be >= 0, got {power}")
    if stride < 0:
        raise ValueError(f"series stride must be >= 0, got {stride}")
    if power >= 1 and stride < 1:
        raise ValueError(
            f"series stride must be >= 1 when power >= 1, got stride={stride}"
        )
    return SeriesFactor(stride, power)


def weight_coeff(r: int, factor: tuple[int, int]) -> int:
    """Coefficient of x^r in f(x^stride)^power."""
    if r < 0:
        raise ValueError(f"coefficient index must be >= 0, got {r}")
    stride, power = _validated(factor)
    if power == 0:
        return 1 if r == 0 else 0
    if r % stride != 0 or r < stride * power:
        return 0
    return binomial(r // stride - 1, power - 1)


def binary_weight_coeff(
    r: int, f1: tuple[int, int], f2: tuple[int, int]
) -> int:
    """Coefficient of x^r in the product of two factors, by convolution."""
    if r < 0:
        raise ValueError(f"coefficient index must be >= 0, got {r}")
    f1 = _validated(f1)
    f2 = _validated(f2)
    return sum(weight_coeff(k, f1) * weight_coeff(r - k, f2) for k in range(r + 1))


def product_weight_coeff(r: int, factors: Iterable[tuple[int, int]]) -> int:
    """Coefficient of x^r in the product of all factors.

    The empty product is the constant series 1.  One- and two-factor
    products take the closed-form / single-convolution fast paths; longer
    products fold coefficient arrays truncated at degree r.
    """
    if r < 0:
        raise ValueError(f"coefficient index must be >= 0, got {r}")
    fs = [_validated(f) for f in factors]
    if not fs:
        return 1 if r == 0 else 0
    if len(fs) == 1:
        return weight_coeff(r, fs[0])
    if len(fs) == 2:
        return binary_weight_coeff(r, fs[0], fs[1])
    coeffs = [weight_coeff(s, fs[0]) for s in range(r + 1)]
    for f in fs[1:]:
        fc = [weight_coeff(s, f) for s in range(r + 1)]
        coeffs = [
            sum(coeffs[k] * fc[s - k] for k in range(s + 1)) for s in range(r + 1)
        ]
    return coeffs[r]
