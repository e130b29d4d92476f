"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The ACCEPTANCE lines are written to the real stdout, so they appear in
any pytest run; ``pytest tests/test_acceptance.py -v`` gives both the
per-criterion lines and pytest's own verdicts.  Every tolerance is
pinned here; nothing is recalibrated at run time.
"""

import sys
import time
from contextlib import contextmanager
from itertools import combinations

from dna_necklace.counting import (
    NecklaceSpec,
    alternation_distribution,
    bracelet_count_direct,
    count_necklaces,
)
from dna_necklace.montecarlo import convergence_study
from dna_necklace.oracle import enumerate_all
from dna_necklace.stats import (
    fit_gaussian,
    sweep_fixed_at,
    sweep_fixed_ratio,
    theoretical_pdf,
)
from cli_harness import run_cli
from reference.bead_strings import canonical_form, count_alternations


@contextmanager
def criterion(number, title, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}", file=sys.__stdout__)
        raise
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE {number} PASS: {title} [{elapsed:.2f}s]", file=sys.__stdout__
    )
    assert elapsed < budget_seconds, f"criterion {number} overran {budget_seconds}s"


def test_criterion_1_worked_example_resolution():
    with criterion(
        1, "count(alpha=10, at=8, gc=6) = 19, confirmed by direct enumeration", 1.0
    ):
        code, out, _ = run_cli("--quiet", "count", "--alpha", "10", "--at", "8", "--gc", "6")
        assert code == 0
        assert out == "19\n"
        # Independent route: all C(14,6) = 3003 arrangements, canonicalized
        # under the 28-element dihedral action, filtered to 10 alternations.
        classes = set()
        for white_positions in combinations(range(14), 8):
            bits = ["0"] * 14
            for index in white_positions:
                bits[index] = "1"
            classes.add(canonical_form("".join(bits)))
        assert sum(1 for s in classes if count_alternations(s) == 10) == 19


def test_criterion_2_oracle_equivalence():
    with criterion(
        2, "Polya counts equal exhaustive enumeration for every N in [1, 14]", 60.0
    ):
        for n in range(1, 15):
            buckets = enumerate_all(n)
            for n_at in range(n + 1):
                dist = alternation_distribution(NecklaceSpec(n_at, n - n_at))
                observed = {
                    alpha: count
                    for (whites, alpha), count in buckets.items()
                    if whites == n_at
                }
                assert set(observed) <= set(dist), (n, n_at)
                for alpha, count in dist.items():
                    assert count == observed.get(alpha, 0), (n, n_at, alpha)


def test_criterion_3_independent_normalizer():
    with criterion(
        3, "distribution totals equal the direct Burnside bracelet count", 10.0
    ):
        grid = []
        for n in range(10, 201, 10):
            for n_at in {n // 5, n // 3, n // 2}:
                grid.append(NecklaceSpec(n_at, n - n_at))
        assert len(grid) >= 50
        for spec in grid:
            total = sum(alternation_distribution(spec).values())
            assert total == bracelet_count_direct(spec), spec


def test_criterion_4_balanced_chain_gaussian():
    with criterion(
        4,
        "Gaussian fit of the (50, 50) pdf: alpha0 in [50.3, 50.7], sigma in [4.9, 5.3]",
        5.0,
    ):
        fit = fit_gaussian(theoretical_pdf(NecklaceSpec(50, 50)))
        assert 50.3 <= fit.alpha0 <= 50.7, fit
        assert 4.9 <= fit.sigma <= 5.3, fit


def test_criterion_5_order_of_magnitude():
    with criterion(
        5, "count(alpha=50; 50, 50) is an exact integer in [1e25, 1e27)", 1.0
    ):
        count = count_necklaces(NecklaceSpec(50, 50), 50)
        assert 10**25 <= count < 10**27
        assert str(count) == "79898207099804793165091506"
        print(f"  count(alpha=50; 50, 50) = {count}", file=sys.__stdout__)


# Stochastic-method regression values, frozen at the first run with the
# pinned seed below.  They are reproducibility anchors, not target values.
MC_SEED = 12345
MC_RUN_COUNTS = [1000, 5000, 20000]
MC_FROZEN_MEAN_D = [0.0831667347926396, 0.03884943331938772, 0.018260436208969888]


def test_criterion_6_mc_convergence():
    with criterion(
        6,
        "mean d strictly decreases over N_MC in {1000, 5000, 20000}; d(20000) < 0.1",
        30.0,
    ):
        rows = convergence_study(
            NecklaceSpec(50, 50), MC_RUN_COUNTS, sets=5, seed=MC_SEED
        )
        means = [sum(row.d_values) / len(row.d_values) for row in rows]
        assert means[0] > means[1] > means[2]
        assert means[2] < 0.1
        for got, frozen in zip(means, MC_FROZEN_MEAN_D):
            assert abs(got - frozen) < 1e-12, (got, frozen)


def test_criterion_7_ratio_slopes():
    with criterion(
        7,
        "alpha0-vs-N slopes: 0.50/0.45/0.25 (+/- 0.01) for ratios 1:1, 2:1, 6:1",
        120.0,
    ):
        lengths = [84, 168, 252, 336, 420, 504, 588]
        for ratio, target in [((1, 1), 0.50), ((2, 1), 0.45), ((6, 1), 0.25)]:
            result = sweep_fixed_ratio(ratio, lengths)
            assert all(row.fit is not None for row in result.rows)
            assert abs(result.slope - target) <= 0.01, (ratio, result.slope)


def test_criterion_8_fixed_at_sweep_shape():
    with criterion(
        8,
        "fixed n_at=100 sweep: sigma peaks within n_gc in [100, 400]; alpha0 rises toward 200",
        60.0,
    ):
        gc_values = [25, 50, 100, 200, 400, 1000, 2500]
        rows = sweep_fixed_at(100, gc_values)
        assert all(row.fit is not None for row in rows)
        widths = [row.fit.sigma for row in rows]
        peak = widths.index(max(widths))
        assert 100 <= gc_values[peak] <= 400
        assert all(widths[i] < widths[i + 1] for i in range(peak))
        assert all(widths[i] > widths[i + 1] for i in range(peak, len(widths) - 1))
        centers = [row.fit.alpha0 for row in rows]
        assert all(centers[i] < centers[i + 1] for i in range(len(centers) - 1))
        assert all(center < 200 for center in centers)
