"""The in-tree MINPACK lmdif port against scipy's, bit for bit.

scipy is the test-only reference here, as the cycle-index route is for
the counts: `scipy_fit_gaussian` is `fit_gaussian` as it was written on
`scipy.optimize.curve_fit`, and every fit below must come out `==` to it,
or fail with the same error.
"""

import warnings

import numpy as np
import pytest

from dna_necklace import _lmdif
from dna_necklace._lmdif import lmdif
from dna_necklace.counting import NecklaceSpec
from dna_necklace.stats import (
    _SIGMA_FLOOR,
    DiscretePdf,
    GaussianFit,
    fit_gaussian,
    split_by_ratio,
    theoretical_pdf,
)

optimize = pytest.importorskip("scipy.optimize")


def _gaussian(x, amplitude, alpha0, sigma):
    return amplitude * np.exp(-((x - alpha0) ** 2) / (2.0 * sigma**2))


def _problem(pdf):
    points = sorted((a, p) for a, p in pdf.entries.items() if p > 0)
    if len(points) < 3:
        raise ValueError(
            f"support too small to fit: {len(points)} nonzero points, need 3"
        )
    x = np.array([a for a, _ in points], dtype=float)
    y = np.array([p for _, p in points], dtype=float)
    mean0 = float((x * y).sum() / y.sum())
    sigma0 = float(np.sqrt((y * (x - mean0) ** 2).sum() / y.sum()))
    sigma0 = max(sigma0, _SIGMA_FLOOR)
    return x, y, (float(y.max()), mean0, sigma0)


def scipy_fit_gaussian(pdf):
    x, y, start = _problem(pdf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", optimize.OptimizeWarning)
        params, _ = optimize.curve_fit(
            _gaussian, x, y, p0=start, maxfev=20000, xtol=1e-12, ftol=1e-12
        )
    amplitude, alpha0, sigma = (float(v) for v in params)
    sigma = abs(sigma)
    if sigma < _SIGMA_FLOOR:
        raise ValueError(f"fitted width degenerated below {_SIGMA_FLOOR}")
    span = float(x[-1] - x[0])
    if sigma > span:
        raise ValueError(
            f"fitted width {sigma:.6g} exceeds the support span {span:g}: "
            "the pdf has no peak to fit"
        )
    if not x[0] <= alpha0 <= x[-1]:
        raise ValueError(
            f"fitted centre {alpha0:.6g} lies outside the support "
            f"[{x[0]:g}, {x[-1]:g}]: the pdf has no peak to fit"
        )
    rmse = float(np.sqrt(np.mean((_gaussian(x, amplitude, alpha0, sigma) - y) ** 2)))
    return GaussianFit(alpha0=alpha0, sigma=sigma, amplitude=amplitude, rmse=rmse)


def _outcome(fit, pdf):
    try:
        return fit(pdf)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def assert_same_fits(pdfs):
    mismatches = [
        (key, ours, theirs)
        for key, pdf in pdfs
        if (ours := _outcome(fit_gaussian, pdf))
        != (theirs := _outcome(scipy_fit_gaussian, pdf))
    ]
    assert mismatches == []


def spec_pdfs(specs):
    return [(spec, theoretical_pdf(NecklaceSpec(*spec))) for spec in specs]


class TestBitIdentity:
    def test_every_spec_up_to_forty_of_each(self):
        assert_same_fits(
            spec_pdfs((a, b) for a in range(1, 41) for b in range(1, 41))
        )

    def test_ratio_sweep_specs(self):
        # The fixed-ratio sweeps of the benchmark: N = 7*r*k at 2:1, 3:1, 6:1.
        assert_same_fits(
            spec_pdfs(
                split_by_ratio(ratio, 7 * r * k)
                for ratio in ((2, 1), (3, 1), (6, 1))
                for r in range(6, 13)
                for k in range(1, 5)
            )
        )

    def test_specs_that_expose_a_pow_slip(self):
        # A single square computed with pow() instead of a product moves
        # these fits by an ulp: the three long crawls (thousands of
        # evaluations each) and (4, 99), the only spec in 1..120 squared
        # that catches it in qrsolv's Givens rotations.
        assert_same_fits(spec_pdfs([(3, 90), (3, 98), (5, 748), (4, 99)]))

    def test_failures_carry_the_same_message(self):
        spiky = DiscretePdf({2: 1.0, 6: 1.0, 10: 1e-300}, "file")
        flat = theoretical_pdf(NecklaceSpec(3, 3))
        assert_same_fits([("spiky", spiky), ("flat", flat)])
        assert _outcome(fit_gaussian, spiky)[0] == "RuntimeError"
        assert _outcome(fit_gaussian, flat)[0] == "ValueError"


@pytest.mark.parametrize("maxfev", [1, 4, 9, 14])
def test_gives_up_at_maxfev_like_leastsq(maxfev, monkeypatch):
    monkeypatch.setattr(_lmdif, "MAXFEV", maxfev)
    x, y, start = _problem(theoretical_pdf(NecklaceSpec(50, 50)))
    params, info = lmdif(lambda p: (_gaussian(x, *p) - y).tolist(), start)
    reference = optimize.leastsq(
        lambda p: _gaussian(x, *p) - y,
        start,
        full_output=True,
        ftol=1e-12,
        xtol=1e-12,
        maxfev=maxfev,
    )
    assert info == reference[-1] == 5
    assert params == reference[0].tolist()
