import numpy as np
import pytest

from dna_necklace import montecarlo
from dna_necklace.counting import NecklaceSpec
from dna_necklace.montecarlo import (
    MCConfig,
    alternation_histogram,
    convergence_study,
    count_alternations_rows,
    derive_subseed,
    empirical_pdf,
    sample_chains,
    total_abs_diff,
)
from dna_necklace.stats import DiscretePdf


def rng_for(seed, *path):
    return np.random.default_rng(derive_subseed(seed, *path))


class TestSubseeds:
    def test_deterministic(self):
        assert derive_subseed(42, 3) == derive_subseed(42, 3)
        assert derive_subseed(42, 1, 2) == derive_subseed(42, 1, 2)

    def test_distinct_across_paths_and_seeds(self):
        seen = {derive_subseed(s, *p) for s in (0, 1, 9) for p in [(0,), (1,), (0, 0), (0, 1)]}
        assert len(seen) == 12


class TestSampling:
    def test_single_arrangement_is_forced(self):
        rng = rng_for(5, 0)
        assert sample_chains(NecklaceSpec(1, 0), 1, rng).tolist() == [[1]]
        assert sample_chains(NecklaceSpec(0, 3), 1, rng).tolist() == [[0, 0, 0]]

    def test_two_bead_chain_hits_both_arrangements(self):
        rng = rng_for(5, 0)
        chains = sample_chains(NecklaceSpec(1, 1), 64, rng)
        assert {tuple(chain) for chain in chains.tolist()} == {(1, 0), (0, 1)}

    def test_content_is_conserved(self):
        chains = sample_chains(NecklaceSpec(7, 5), 500, rng_for(11, 0))
        assert chains.shape == (500, 12)
        assert (chains.sum(axis=1) == 7).all()

    def test_alternation_counts_are_even(self):
        chains = sample_chains(NecklaceSpec(6, 9), 2000, rng_for(13, 0))
        assert (count_alternations_rows(chains) % 2 == 0).all()

    def test_mean_alternations_matches_expectation(self):
        # Each of the N adjacent pairs differs with probability
        # 2*n_at*n_gc / (N*(N-1)), so the mean is 2*n_at*n_gc/(N-1).
        runs = 100_000
        chains = sample_chains(NecklaceSpec(50, 50), runs, rng_for(17, 0))
        alternations = count_alternations_rows(chains)
        expected = 2 * 50 * 50 / 99
        stderr = alternations.std() / np.sqrt(runs)
        assert abs(alternations.mean() - expected) < 5 * stderr

    def test_arrangements_uniform_at_tiny_n(self):
        runs = 100_000
        chains = sample_chains(NecklaceSpec(2, 2), runs, rng_for(19, 0))
        codes = chains @ np.array([8, 4, 2, 1])
        _, counts = np.unique(codes, return_counts=True)
        assert len(counts) == 6
        stderr = np.sqrt((1 / 6) * (5 / 6) / runs)
        assert (abs(counts / runs - 1 / 6) < 5 * stderr).all()

    @pytest.mark.parametrize("spec", [NecklaceSpec(22, 18), NecklaceSpec(3, 1)])
    def test_block_histogram_matches_one_matrix(self, spec):
        # Runs that end one row into a third block: the blocks must draw the
        # chains one runs x N matrix would, from the same generator.
        runs = 2 * montecarlo._BLOCK_ROWS + 1
        whole = count_alternations_rows(sample_chains(spec, runs, rng_for(23, 0)))
        values, counts = np.unique(whole, return_counts=True)
        histogram = alternation_histogram(spec, runs, rng_for(23, 0))
        assert list(histogram.items()) == list(zip(values.tolist(), counts.tolist()))


class TestEmpiricalPdf:
    def test_forced_distributions(self):
        pdf = empirical_pdf(MCConfig(NecklaceSpec(1, 1), runs=100, seed=3))
        assert pdf.entries == {2: 1.0}
        assert pdf.provenance == "empirical"
        pdf = empirical_pdf(MCConfig(NecklaceSpec(0, 5), runs=100, seed=3))
        assert pdf.entries == {0: 1.0}

    def test_deterministic_for_fixed_seed(self):
        config = MCConfig(NecklaceSpec(30, 20), runs=5000, seed=99)
        assert empirical_pdf(config).entries == empirical_pdf(config).entries

    def test_sets_use_distinct_streams(self):
        config = MCConfig(NecklaceSpec(30, 20), runs=5000, seed=99)
        assert empirical_pdf(config, 0).entries != empirical_pdf(config, 1).entries

    @pytest.mark.parametrize("set_index", [2, 5, -1])
    def test_set_index_outside_the_sets_rejected(self, monkeypatch, set_index):
        monkeypatch.setattr(montecarlo, "_run_set", None)  # nothing is sampled
        config = MCConfig(NecklaceSpec(3, 4), runs=10, seed=1, sets=2)
        with pytest.raises(ValueError, match=rf"must be in range\(2\), got {set_index}$"):
            empirical_pdf(config, set_index)

    def test_pinned_seed_regression_distance(self):
        # Regression value frozen at the first run with this seed: the
        # 20000-run histogram sits well inside d < 0.1 of the exact pdf.
        from dna_necklace.stats import theoretical_pdf

        config = MCConfig(NecklaceSpec(50, 50), runs=20000, seed=1)
        d = total_abs_diff(empirical_pdf(config), theoretical_pdf(config.spec))
        assert d < 0.1
        assert abs(d - 0.0168575632640574) < 1e-12


class TestTotalAbsDiff:
    def test_identical_pdfs(self):
        p = DiscretePdf({2: 0.5, 4: 0.5}, "empirical")
        assert total_abs_diff(p, p) == 0.0

    def test_disjoint_supports(self):
        p = DiscretePdf({2: 1.0}, "empirical")
        q = DiscretePdf({4: 1.0}, "empirical")
        assert total_abs_diff(p, q) == 2.0

    def test_partial_overlap(self):
        p = DiscretePdf({2: 0.5, 4: 0.5}, "empirical")
        q = DiscretePdf({2: 1.0}, "empirical")
        assert total_abs_diff(p, q) == 1.0


class TestConvergenceStudy:
    def test_exact_for_forced_distribution(self):
        rows = convergence_study(NecklaceSpec(1, 1), [10, 100], sets=3, seed=4)
        assert [row.mean_d for row in rows] == [0.0, 0.0]

    def test_single_set_reports_zero_spread(self):
        rows = convergence_study(NecklaceSpec(10, 10), [500], sets=1, seed=4)
        assert rows[0].std_d == 0.0
        assert len(rows[0].d_values) == 1

    def test_deterministic(self):
        a = convergence_study(NecklaceSpec(20, 20), [200, 400], sets=2, seed=8)
        b = convergence_study(NecklaceSpec(20, 20), [200, 400], sets=2, seed=8)
        assert a == b

    def test_rejects_empty_and_invalid(self):
        with pytest.raises(ValueError):
            convergence_study(NecklaceSpec(2, 2), [], sets=2, seed=1)
        with pytest.raises(ValueError):
            convergence_study(NecklaceSpec(2, 2), [0], sets=2, seed=1)
        # The seed contract of MCConfig and `mc --seed`, with its message.
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="64-bit unsigned"):
                convergence_study(NecklaceSpec(2, 2), [10], sets=2, seed=seed)
