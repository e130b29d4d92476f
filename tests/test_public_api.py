"""The package's public names and its modules, pinned: adding or removing
one is a deliberate change that shows up as a diff of the lists below."""

import pkgutil

import dna_necklace

MODULES = [
    "__main__",
    "_lmdif",
    "cli",
    "counting",
    "montecarlo",
    "oracle",
    "stats",
]

PUBLIC = [
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
    "convergence_study",
    "count_necklaces",
    "derive_subseed",
    "empirical_pdf",
    "enumerate_all",
    "fit_gaussian",
    "sample_chains",
    "split_by_ratio",
    "sweep_fixed_at",
    "sweep_fixed_ratio",
    "theoretical_pdf",
    "total_abs_diff",
]


def test_modules_are_pinned():
    found = sorted(info.name for info in pkgutil.iter_modules(dna_necklace.__path__))
    assert found == MODULES


def test_all_is_pinned():
    assert sorted(dna_necklace.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in dna_necklace.__all__:
        assert getattr(dna_necklace, name) is not None, name
