"""The package's public names, pinned: adding or removing one is a
deliberate change that shows up as a diff of the list below."""

import dna_necklace

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


def test_all_is_pinned():
    assert sorted(dna_necklace.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in dna_necklace.__all__:
        assert getattr(dna_necklace, name) is not None, name
