"""The in-tree MINPACK lmdif port against scipy's, bit for bit.

scipy is the test-only reference here, as the cycle-index route is for
the counts: `minpack` runs scipy's compiled MINPACK (`leastsq`, at the
settings `scipy.optimize.curve_fit` was given) in place of
`_lmdif.lmdif` inside the one `fit_gaussian`, and every fit below must
come out `==` to the one the port gives, or fail with the same error.
"""

import pytest

from dna_necklace import _lmdif
from dna_necklace._lmdif import lmdif
from dna_necklace.counting import NecklaceSpec
from dna_necklace.stats import (
    DiscretePdf,
    fit_gaussian,
    split_by_ratio,
    theoretical_pdf,
)

optimize = pytest.importorskip("scipy.optimize")


def minpack(fcn, x0, maxfev=20000):
    """scipy's MINPACK lmdif in the port's place; returns (x, info)."""
    params, _, _, message, info = optimize.leastsq(
        fcn, x0, full_output=True, ftol=1e-12, xtol=1e-12, maxfev=maxfev
    )
    if info in _lmdif.FAILURES and maxfev == 20000:
        # fit_gaussian words a give-up from FAILURES: it must be scipy's.
        assert _lmdif.FAILURES[info] == message
    return params.tolist(), info


def _outcome(pdf, solver=lmdif):
    """fit_gaussian's fit of `pdf`, or its error, with `solver` inside."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_lmdif, "lmdif", solver)
        try:
            return fit_gaussian(pdf)
        except ValueError as exc:
            return type(exc).__name__, str(exc)


def assert_same_fits(pdfs):
    mismatches = [
        (key, ours, theirs)
        for key, pdf in pdfs
        if (ours := _outcome(pdf)) != (theirs := _outcome(pdf, minpack))
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
        spiky = DiscretePdf({2: 1.0, 6: 1.0, 10: 1e-300}, "theoretical")
        flat = theoretical_pdf(NecklaceSpec(3, 3))
        assert_same_fits([("spiky", spiky), ("flat", flat)])
        assert _outcome(spiky)[0] == "ValueError"
        assert _outcome(flat)[0] == "ValueError"


@pytest.mark.parametrize("maxfev", [1, 4, 9, 14])
def test_gives_up_at_maxfev_like_leastsq(maxfev, monkeypatch):
    # The residual and start point fit_gaussian hands its solver.
    problems = []
    _outcome(
        theoretical_pdf(NecklaceSpec(50, 50)),
        lambda *problem: problems.append(problem) or lmdif(*problem),
    )
    monkeypatch.setattr(_lmdif, "MAXFEV", maxfev)
    params, info = lmdif(*problems[0])
    reference = minpack(*problems[0], maxfev=maxfev)
    assert info == reference[-1] == 5
    assert params == reference[0]
