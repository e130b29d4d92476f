"""Alternation statistics for two-colored circular chains (DNA necklaces).

A circular chain of AT and GC base pairs is a two-colored necklace,
counted up to rotation and reflection.  This package computes, exactly,
how many distinct necklaces with a given content (n_at, n_gc) have a
given number of color alternations, and builds on that: full alternation
distributions, Gaussian-fit summaries, parameter sweeps, a seedable
Monte Carlo cross-check, and a brute-force enumeration oracle for small
chains.  All counts are exact arbitrary-precision integers.
"""

from .counting import (
    IntegralityError,
    NecklaceSpec,
    alternation_distribution,
    bracelet_count_direct,
    count_necklaces,
    necklace_count,
)
from .montecarlo import (
    MCConfig,
    PRNG_NAME,
    alternation_histogram,
    convergence_study,
    derive_subseed,
    empirical_pdf,
    sample_chains,
    total_abs_diff,
)
from .numtheory import totient
from .oracle import (
    MAX_ENUMERATION_BITS,
    canonical_form,
    count_alternations,
    enumerate_all,
)
from .stats import (
    DiscretePdf,
    GaussianFit,
    fit_gaussian,
    split_by_ratio,
    sweep_fixed_at,
    sweep_fixed_ratio,
    theoretical_pdf,
)

__version__ = "0.1.0"

__all__ = [
    "DiscretePdf",
    "GaussianFit",
    "IntegralityError",
    "MAX_ENUMERATION_BITS",
    "MCConfig",
    "NecklaceSpec",
    "PRNG_NAME",
    "alternation_distribution",
    "alternation_histogram",
    "bracelet_count_direct",
    "canonical_form",
    "convergence_study",
    "count_alternations",
    "count_necklaces",
    "derive_subseed",
    "empirical_pdf",
    "enumerate_all",
    "fit_gaussian",
    "necklace_count",
    "sample_chains",
    "split_by_ratio",
    "sweep_fixed_at",
    "sweep_fixed_ratio",
    "theoretical_pdf",
    "total_abs_diff",
    "totient",
]
