"""Seeded Monte Carlo sampling of random chains with fixed content.

Sampling is chain-uniform: each of the C(N, n_at) arrangements of the
fixed bead multiset is equally likely, drawn by an independent
Fisher-Yates shuffle per chain.  Randomness comes from numpy's PCG64.

Reproducibility contract: every consumer stream is derived from the master
seed by a counter-based spawn-key split,

    derive_subseed(seed, *path) =
        SeedSequence(entropy=seed, spawn_key=path).generate_state(2)
        read little-endian as one 128-bit integer,

and the generator for a stream is ``numpy.random.default_rng(subseed)``.
Paths in use: `empirical_pdf` and the `mc` command use (i,) for set i;
`convergence_study` uses (j, i) for run-count index j and set index i.
Any reported row is re-derivable from its emitted subseed alone.

`empirical_pdf` and `convergence_study` are the library's convergence
API; no command prints their records.  A `ConvergenceRow` holds one run
count's per-set distances, and their summary is the caller's to take.

Memory: a set's chains are drawn and counted in blocks of at most two
times _BLOCK_BYTES (one chain at the least), whatever the run count and
the chain length, and the histogram holds one slot per possible
alternation value, 0..2·min(n_at, n_gc), not one per bead.
"""

from __future__ import annotations

from collections import namedtuple

from .counting import NecklaceSpec
from .stats import DiscretePdf, theoretical_pdf

PRNG_NAME = "PCG64"

# Bytes of chains and counts in one `alternation_histogram` block.
_BLOCK_BYTES = 4 << 20


class MCConfig(namedtuple("MCConfig", "spec runs seed sets")):
    """One simulation request: spec, run count, master seed, set count."""

    __slots__ = ()
    spec: NecklaceSpec
    runs: int
    seed: int
    sets: int

    def __new__(cls, spec: NecklaceSpec, runs: int, seed: int, sets: int) -> MCConfig:
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        if sets < 1:
            raise ValueError(f"sets must be >= 1, got {sets}")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned value, got {seed}")
        return tuple.__new__(cls, (spec, runs, seed, sets))

    @classmethod
    def _make(cls, iterable) -> MCConfig:
        # namedtuple's _make (and _replace, which calls it) skips __new__.
        return cls(*iterable)


def derive_subseed(seed: int, *path: int) -> int:
    """Deterministic 128-bit subseed for the stream at `path` under `seed`."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    low, high = (int(w) for w in ss.generate_state(2, np.uint64))
    return low | (high << 64)


def sample_chains(
    spec: NecklaceSpec, runs: int, rng: np.random.Generator
) -> np.ndarray:
    """(runs, N) uint8 matrix of chains, one uniform arrangement per row."""
    import numpy as np

    base = np.concatenate(
        [np.ones(spec.n_at, np.uint8), np.zeros(spec.n_gc, np.uint8)]
    )
    chains = np.tile(base, (runs, 1))
    rng.permuted(chains, axis=1, out=chains)
    return chains


def count_alternations_rows(chains: np.ndarray) -> np.ndarray:
    """Circular alternation count of every row of a chain matrix; the
    wrap-around pair is counted apart, so no shifted copy is made."""
    return (chains[:, 1:] != chains[:, :-1]).sum(axis=1) + (
        chains[:, 0] != chains[:, -1]
    )


def alternation_histogram(
    spec: NecklaceSpec, runs: int, rng: np.random.Generator
) -> dict[int, int]:
    """Raw observation counts of alternation values over `runs` chains.

    Chains are drawn from `rng` in blocks of max(1, _BLOCK_BYTES // (N + 8))
    rows: a row is N one-byte beads and one 8-byte alternation count, and
    counting a block adds one matrix of N - 1 one-byte comparisons a row,
    so a block holds at most two budgets.  The shuffle consumes the
    generator row by row, so the blocks draw the same chains, in the same
    order, as one `runs`-row matrix would.  Keys are the observed values
    in increasing order.
    """
    import numpy as np

    rows = max(1, _BLOCK_BYTES // (spec.total + 8))
    support = spec.max_alternations + 1
    totals = np.zeros(support, np.int64)
    for start in range(0, runs, rows):
        chains = sample_chains(spec, min(rows, runs - start), rng)
        totals += np.bincount(count_alternations_rows(chains), minlength=support)
    return {alpha: count for alpha, count in enumerate(totals.tolist()) if count}


def _run_set(
    config: MCConfig, *path: int
) -> tuple[int, dict[int, int], DiscretePdf]:
    """Subseed, raw histogram and empirical pdf of the set at `path`.

    The one place a simulation set is run: the stream is
    derive_subseed(config.seed, *path), and the pdf holds each observed
    alternation value's count over config.runs.  `cli` uses it too.
    """
    import numpy as np

    subseed = derive_subseed(config.seed, *path)
    histogram = alternation_histogram(
        config.spec, config.runs, np.random.default_rng(subseed)
    )
    pdf = DiscretePdf(
        {alpha: count / config.runs for alpha, count in histogram.items()},
        "empirical",
    )
    return subseed, histogram, pdf


def empirical_pdf(config: MCConfig, set_index: int = 0) -> DiscretePdf:
    """Normalized alternation frequencies from one simulation set.

    Deterministic in (config, set_index): the stream is
    derive_subseed(config.seed, set_index).  The index must name one of
    the config's sets.
    """
    if not 0 <= set_index < config.sets:
        raise ValueError(
            f"set_index must be in range({config.sets}), got {set_index}"
        )
    return _run_set(config, set_index)[2]


def total_abs_diff(p: DiscretePdf, q: DiscretePdf) -> float:
    """L1 distance over the union support; lands in [0, 2]."""
    keys = set(p.entries) | set(q.entries)
    return sum(abs(p.prob(alpha) - q.prob(alpha)) for alpha in keys)


class ConvergenceRow(namedtuple("ConvergenceRow", "runs d_values")):
    """One run count's distances to the theoretical pdf, one per set."""

    __slots__ = ()
    runs: int
    d_values: tuple[float, ...]


def convergence_study(
    spec: NecklaceSpec,
    run_counts: list[int],
    sets: int,
    seed: int,
) -> list[ConvergenceRow]:
    """Distance to the theoretical pdf versus the number of runs.

    For each run count, `sets` independent simulations (stream (j, i) for
    run-count index j, set i) are compared against the theoretical pdf;
    the row carries the per-set distances in set order.  Each run count
    makes an `MCConfig`, so run counts, `sets` and `seed` are checked as
    there, before any sampling.
    """
    if not run_counts:
        raise ValueError("run_counts must be non-empty")
    configs = [MCConfig(spec, runs, seed, sets) for runs in run_counts]
    reference = theoretical_pdf(spec)
    return [
        ConvergenceRow(
            config.runs,
            tuple(
                total_abs_diff(_run_set(config, j, i)[2], reference)
                for i in range(sets)
            ),
        )
        for j, config in enumerate(configs)
    ]
