import math
import warnings

import pytest

from dna_necklace import stats
from dna_necklace.counting import NecklaceSpec
from dna_necklace.stats import (
    DiscretePdf,
    SweepRow,
    fit_gaussian,
    split_by_ratio,
    sweep_fixed_at,
    sweep_fixed_ratio,
    theoretical_pdf,
)


def gaussian_samples(amplitude, alpha0, sigma, alphas):
    return DiscretePdf(
        {
            a: amplitude * math.exp(-((a - alpha0) ** 2) / (2 * sigma**2))
            for a in alphas
        },
        "theoretical",
    )


class TestTheoreticalPdf:
    def test_small_exact_values(self):
        pdf = theoretical_pdf(NecklaceSpec(2, 2))
        assert pdf.entries == {0: 0.0, 2: 0.5, 4: 0.5}
        assert pdf.provenance == "theoretical"

    def test_forced_single_alternation_pair(self):
        pdf = theoretical_pdf(NecklaceSpec(1, 1))
        assert pdf.prob(2) == 1.0
        assert pdf.prob(0) == 0.0

    def test_normalized_to_machine_precision(self):
        for a, b in [(50, 50), (40, 60), (100, 25), (3, 17), (0, 9)]:
            pdf = theoretical_pdf(NecklaceSpec(a, b))
            assert abs(sum(pdf.entries.values()) - 1.0) < 1e-12

    def test_mean_tracks_chain_uniform_mean(self):
        # Class-uniform and chain-uniform weightings agree closely at these
        # sizes; the window absorbs the orbit-size effects.
        for n in (10, 30, 60, 100):
            pdf = theoretical_pdf(NecklaceSpec(n, n))
            mean = sum(a * p for a, p in pdf.entries.items())
            assert 2 * n * n / (2 * n) - 2 <= mean <= 2 * n * n / (2 * n - 1) + 2

    def test_argmax_sits_at_the_fitted_center(self):
        pdf = theoretical_pdf(NecklaceSpec(50, 50))
        fit = fit_gaussian(pdf)
        argmax = max(pdf.entries, key=pdf.entries.get)
        assert abs(argmax - fit.alpha0) <= 2.0


class TestFitGaussian:
    def test_recovers_its_own_model(self):
        pdf = gaussian_samples(0.08, 50.0, 5.0, range(30, 71, 2))
        fit = fit_gaussian(pdf)
        assert abs(fit.amplitude - 0.08) < 1e-6 * 0.08
        assert abs(fit.alpha0 - 50.0) < 1e-6 * 50.0
        assert abs(fit.sigma - 5.0) < 1e-6 * 5.0
        assert fit.rmse < 1e-12

    def test_recovers_across_widths(self):
        for sigma in (1.0, 4.0, 20.0):
            alphas = range(0, 202, 2)
            pdf = gaussian_samples(0.1, 100.0, sigma, alphas)
            fit = fit_gaussian(pdf)
            assert abs(fit.sigma - sigma) < 1e-6 * sigma

    def test_symmetric_pdf_centers_exactly(self):
        # Three points, three parameters: the fit is exact.
        fit = fit_gaussian(DiscretePdf({2: 0.25, 4: 0.5, 6: 0.25}, "theoretical"))
        assert abs(fit.alpha0 - 4.0) < 1e-8

    def test_rejects_tiny_supports(self):
        with pytest.raises(ValueError, match="support too small"):
            fit_gaussian(theoretical_pdf(NecklaceSpec(1, 1)))
        with pytest.raises(ValueError, match="support too small"):
            fit_gaussian(DiscretePdf({2: 0.5, 4: 0.5}, "empirical"))

    def test_rejects_flat_pdf_without_warning(self):
        # (3, 3): alternations 2, 4 and 6 are equally likely, so the fitted
        # width runs off far beyond the support span of 4.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="exceeds the support span 4"):
                fit_gaussian(theoretical_pdf(NecklaceSpec(3, 3)))
        assert caught == []

    @pytest.mark.parametrize("n_at, n_gc", [(10, 10**15), (3, 2**63)])
    def test_rejects_width_left_at_the_floor(self, n_at, n_gc):
        # Nearly all the mass sits on the last point, 2 * n_at: the start
        # width is clamped to the floor, and the search hands it back unmoved.
        with pytest.raises(ValueError, match=r"width degenerated to 1e-06 or below"):
            fit_gaussian(theoretical_pdf(NecklaceSpec(n_at, n_gc)))

    @pytest.mark.parametrize("scale", [1e-320, 1e-310])
    def test_rejects_subnormal_pdf(self, scale):
        # At 1e-320 lmdif returned the start moments (sigma = sqrt 2) as a fit.
        pdf = DiscretePdf({0: scale, 2: 2 * scale, 4: scale}, "theoretical")
        with pytest.raises(ValueError, match="subnormal .* too small for floating"):
            fit_gaussian(pdf)

    @pytest.mark.parametrize(
        "entries, message",
        [
            pytest.param(dict.fromkeys((0, 2, 4), 1e308), "start moments not finite",
                         id="start-moments-overflow"),
            pytest.param({0: 1e200, 2: 3e200, 4: 1e200}, "fit residual not finite",
                         id="residual-overflow"),
            pytest.param({2: 1, 4: 0, 6: 1, 8: 0, 10: 1e-300},
                         "did not converge: Optimal parameters not found: Number of "
                         "calls to function has reached maxfev = 20000.",
                         id="evaluation-limit"),
            # MINPACK info 8, whose message (worded as scipy's) breaks its
            # line before "the Jacobian".
            pytest.param({0: 0.9, 4: 0.9, 18: 4.9406564584e-314, 22: 1e-15, 36: 1e-300},
                         "func(x) is orthogonal to the columns of\n  the Jacobian",
                         id="orthogonal-residual"),
        ],
    )
    def test_refusals(self, entries, message):
        # Overflow, too, is a ValueError: numpy's warnings about it would
        # be a second stderr line, so here they are errors.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refusal:
                fit_gaussian(DiscretePdf(entries, "theoretical"))
        assert message in str(refusal.value)

    def test_smallest_normal_peak_still_fits(self):
        fit = fit_gaussian(DiscretePdf({0: 1e-307, 2: 2e-307, 4: 1e-307}, "theoretical"))
        assert abs(fit.sigma - 1.69864360057603) < 1e-12

    def test_exact_three_point_fit_is_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_gaussian(DiscretePdf({2: 0.25, 4: 0.5, 6: 0.25}, "theoretical"))
        assert caught == []
        assert fit.sigma < 4


class TestSweepRows:
    def test_both_modes_return_sweep_rows_with_their_content(self):
        fixed_at = sweep_fixed_at(12, [3, 12, 40])
        fixed_ratio = sweep_fixed_ratio((6, 1), [84, 168]).rows
        for row in fixed_at + fixed_ratio:
            assert type(row) is SweepRow
            assert row.n == row.n_at + row.n_gc
        assert [(r.n_at, r.n_gc) for r in fixed_at] == [(12, 3), (12, 12), (12, 40)]
        assert [(r.n, r.n_at, r.n_gc) for r in fixed_ratio] == [
            (84, 12, 72),
            (168, 24, 144),
        ]

    def test_bad_length_raises_before_any_fit(self, monkeypatch):
        calls = []

        def spy(pdf):
            calls.append(pdf)
            return fit_gaussian(pdf)

        monkeypatch.setattr(stats, "fit_gaussian", spy)
        with pytest.raises(ValueError, match="total length must be >= 1, got 0"):
            sweep_fixed_ratio((6, 1), [84, 0])
        assert calls == []
        sweep_fixed_ratio((6, 1), [84])
        assert len(calls) == 1  # the spy does see the fits that run


class TestSweepFixedAt:
    def test_widens_then_narrows(self):
        rows = sweep_fixed_at(100, [25, 100, 200, 2500])
        assert all(row.fit is not None for row in rows)
        centers = [row.fit.alpha0 for row in rows]
        assert centers == sorted(centers)
        assert all(c < 200 for c in centers)
        widths = [row.fit.sigma for row in rows]
        assert widths[1] > widths[0] and widths[2] > widths[0]
        assert widths[3] < widths[2]

    def test_minority_pins_the_peak(self):
        # With a strong minority the support ends at twice the minority
        # count and the mass piles up toward that bound.
        for n_at, n_gc, bound in [(100, 25, 50), (100, 2500, 200)]:
            pdf = theoretical_pdf(NecklaceSpec(n_at, n_gc))
            assert max(a for a, p in pdf.entries.items() if p > 0) == bound
            assert max(pdf.entries, key=pdf.entries.get) >= 0.75 * bound
            assert sum(p for a, p in pdf.entries.items() if a >= 0.6 * bound) > 0.99

    def test_failed_rows_do_not_stop_the_sweep(self):
        rows = sweep_fixed_at(100, [1, 100])
        assert rows[0].fit is None
        assert "support too small" in rows[0].error
        assert rows[1].fit is not None

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sweep_fixed_at(0, [10])
        with pytest.raises(ValueError):
            sweep_fixed_at(10, [])
        # A bad count is an argument error, not a failed row.
        with pytest.raises(ValueError, match="bead counts must be >= 0"):
            sweep_fixed_at(10, [4, -1])


class TestSplitByRatio:
    def test_exact_splits(self):
        assert split_by_ratio((1, 1), 100) == (50, 50)
        assert split_by_ratio((2, 1), 84) == (28, 56)
        assert split_by_ratio((6, 1), 84) == (12, 72)

    def test_rounds_half_up_when_inexact(self):
        # 100 * 2/3 = 66.67 -> 67 GC
        assert split_by_ratio((2, 1), 100) == (33, 67)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            split_by_ratio((0, 1), 10)


class TestSweepFixedRatio:
    def test_width_grows_with_length_at_balanced_ratio(self):
        result = sweep_fixed_ratio((1, 1), list(range(40, 401, 40)))
        widths = [row.fit.sigma for row in result.rows]
        assert all(widths[i] < widths[i + 1] for i in range(len(widths) - 1))

    def test_slope_absent_when_rows_fail(self):
        result = sweep_fixed_ratio((1, 1), [2])
        assert result.rows[0].error is not None
        assert result.slope is None

    def test_slope_absent_when_fitted_rows_share_one_length(self):
        result = sweep_fixed_ratio((6, 1), [84, 84])
        assert all(row.fit is not None for row in result.rows)
        assert result.slope is None
        assert result.intercept is None

    def test_repeated_length_still_fits_with_a_second_length(self):
        result = sweep_fixed_ratio((6, 1), [84, 84, 168])
        assert result.slope is not None
        assert result.intercept is not None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sweep_fixed_ratio((1, 1), [])
