"""Theoretical alternation pdfs, Gaussian fits, and parameter sweeps."""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .counting import NecklaceSpec, alternation_distribution

_SIGMA_FLOOR = 1e-6


class DiscretePdf(
    namedtuple("DiscretePdf", "entries provenance", defaults=("theoretical",))
):
    """Probability distribution over even alternation counts.

    `provenance` is "theoretical" (exact counts normalized), "empirical"
    (Monte Carlo frequencies) or "file" (read by `fit --pdf-file`).
    Theoretical pdfs carry the full support {0, 2, ..., 2*min(n_at, n_gc)}
    including zero-probability entries; empirical ones carry only observed
    values.
    """

    __slots__ = ()
    entries: dict[int, float]
    provenance: str

    def prob(self, alpha: int) -> float:
        return self.entries.get(alpha, 0.0)


class GaussianFit(namedtuple("GaussianFit", "alpha0 sigma amplitude rmse")):
    """A*exp(-(alpha - alpha0)^2 / (2 sigma^2)) fitted to a pdf.

    `amplitude` is the curve's peak value (its value at alpha0); `rmse` is
    the root-mean-square residual over the fitted support points.
    """

    __slots__ = ()
    alpha0: float
    sigma: float
    amplitude: float
    rmse: float


def theoretical_pdf(spec: NecklaceSpec) -> DiscretePdf:
    """P(alpha) = count(alpha) / total, one class-uniform weight per necklace.

    Probabilities come from exact integer ratios; floating point enters
    only in the final division (int/int division rounds correctly even for
    counts around 10^25).
    """
    dist = alternation_distribution(spec)
    total = sum(dist.values())
    return DiscretePdf(
        {alpha: count / total for alpha, count in dist.items()}, "theoretical"
    )


def fit_gaussian(pdf: DiscretePdf) -> GaussianFit:
    """Least-squares Gaussian through the pdf's nonzero support points.

    Initialized from the sample moments (weighted mean and standard
    deviation, amplitude from the peak entry) and refined by damped
    least squares (Levenberg-Marquardt, MINPACK's lmdif).  The amplitude
    is free, not constrained to normalize: the curve traces the pdf
    points.

    A fit whose width falls below a floor or exceeds the span of the
    fitted support (a flat pdf has no peak to fit), whose start moments
    or fitted fields are not finite (values too large for float64
    arithmetic), or whose largest probability is subnormal (too small for
    it), is rejected with ValueError; RuntimeError means the least-squares
    search gave up.
    """
    import numpy as np

    from ._lmdif import DWARF, FAILURES, lmdif

    points = sorted((a, p) for a, p in pdf.entries.items() if p > 0)
    if len(points) < 3:
        raise ValueError(
            f"support too small to fit: {len(points)} nonzero points, need 3"
        )
    x = np.array([a for a, _ in points], dtype=float)
    y = np.array([p for _, p in points], dtype=float)
    peak = float(y.max())
    if peak < DWARF:
        # Below MINPACK's smallest normal float, lmdif can hand back the
        # start moments unchanged as though they were a fit (a peak of
        # 2e-320 does), so no fit there is trusted.
        raise ValueError(
            f"largest probability subnormal (peak = {peak!r}): the pdf values "
            "are too small for floating-point arithmetic"
        )

    def gaussian(amplitude, alpha0, sigma):
        return amplitude * np.exp(-((x - alpha0) ** 2) / (2.0 * sigma**2))

    # Overflow shows up as inf or nan in the values checked below, so
    # numpy's warnings about it are redundant.
    with np.errstate(over="ignore", invalid="ignore"):
        mean0 = float((x * y).sum() / y.sum())
        sigma0 = float(np.sqrt((y * (x - mean0) ** 2).sum() / y.sum()))
        _require_finite("start moments", mean=mean0, sigma=sigma0)
        sigma0 = max(sigma0, _SIGMA_FLOOR)
        start = (peak, mean0, sigma0)
        params, info = lmdif(lambda p: (gaussian(*p) - y).tolist(), start)
        if info in FAILURES:
            raise RuntimeError("Optimal parameters not found: " + FAILURES[info])
        amplitude, alpha0, sigma = params
        sigma = abs(sigma)  # the model is even in sigma
        _require_finite(
            "fitted parameters", alpha0=alpha0, sigma=sigma, amplitude=amplitude
        )
        if sigma < _SIGMA_FLOOR:
            raise ValueError(f"fitted width degenerated below {_SIGMA_FLOOR}")
        span = float(x[-1] - x[0])
        if sigma > span:
            raise ValueError(
                f"fitted width {sigma:.6g} exceeds the support span {span:g}: "
                "the pdf has no peak to fit"
            )
        rmse = float(np.sqrt(np.mean((gaussian(amplitude, alpha0, sigma) - y) ** 2)))
        _require_finite("fit residual", rmse=rmse)
    return GaussianFit(alpha0=alpha0, sigma=sigma, amplitude=amplitude, rmse=rmse)


def _require_finite(what: str, **values: float) -> None:
    if not all(math.isfinite(value) for value in values.values()):
        shown = ", ".join(f"{name} = {value!r}" for name, value in values.items())
        raise ValueError(
            f"{what} not finite ({shown}): the pdf values are too large for "
            "floating-point arithmetic"
        )


class SweepRow(
    namedtuple("SweepRow", "n n_at n_gc fit error", defaults=(None, None))
):
    """One sweep row; `fit` is None when the row failed, with the reason."""

    __slots__ = ()
    n: int
    n_at: int
    n_gc: int
    fit: GaussianFit | None
    error: str | None


def sweep_fixed_at(n_at: int, gc_values: Sequence[int]) -> list[SweepRow]:
    """Gaussian characteristics as n_gc grows at fixed n_at.

    Row failures (e.g. supports too small to fit) are recorded on the row
    and the sweep continues.  A bad bead count is a ValueError before any
    fit, not a failed row.
    """
    if n_at <= 0:
        raise ValueError(f"n_at must be >= 1, got {n_at}")
    if not gc_values:
        raise ValueError("gc_values must be non-empty")
    return _sweep([NecklaceSpec(n_at, n_gc) for n_gc in gc_values])


def _sweep(specs: list[NecklaceSpec]) -> list[SweepRow]:
    """One row per content: its pdf's fit, or the reason the fit failed."""
    rows = []
    for spec in specs:
        try:
            fit, error = fit_gaussian(theoretical_pdf(spec)), None
        except (ValueError, RuntimeError) as exc:
            fit, error = None, str(exc)
        rows.append(SweepRow(spec.total, *spec, fit, error))
    return rows


class RatioSweepResult(
    namedtuple("RatioSweepResult", "rows slope intercept", defaults=(None, None))
):
    """Per-N fits at a fixed gc:at ratio plus the slope of alpha0 against N."""

    __slots__ = ()
    rows: list[SweepRow]
    slope: float | None
    intercept: float | None


def split_by_ratio(ratio_gc_to_at: tuple[int, int], n: int) -> tuple[int, int]:
    """(n_at, n_gc) realizing the gc:at ratio at total length n.

    Exact when (gc + at) divides n; otherwise n_gc is the half-up nearest
    integer to n*gc/(gc+at) and n_at takes the remainder.
    """
    gc_part, at_part = ratio_gc_to_at
    if gc_part <= 0 or at_part <= 0:
        raise ValueError(f"ratio parts must be >= 1, got {ratio_gc_to_at}")
    if n <= 0:
        raise ValueError(f"total length must be >= 1, got {n}")
    whole = gc_part + at_part
    n_gc = (2 * n * gc_part + whole) // (2 * whole)
    return n - n_gc, n_gc


def sweep_fixed_ratio(
    ratio_gc_to_at: tuple[int, int], n_values: Sequence[int]
) -> RatioSweepResult:
    """Gaussian characteristics as N grows at a fixed gc:at ratio.

    The slope is an ordinary least-squares fit of alpha0 against N over
    the successful rows (None unless they hold at least two distinct N).
    """
    import numpy as np

    if not n_values:
        raise ValueError("n_values must be non-empty")
    rows = _sweep(
        [NecklaceSpec(*split_by_ratio(ratio_gc_to_at, n)) for n in n_values]
    )
    fitted = [(row.n, row.fit.alpha0) for row in rows if row.fit is not None]
    if len({n for n, _ in fitted}) >= 2:
        slope, intercept = np.polyfit(
            [n for n, _ in fitted], [a for _, a in fitted], 1
        )
        return RatioSweepResult(rows, float(slope), float(intercept))
    return RatioSweepResult(rows)
