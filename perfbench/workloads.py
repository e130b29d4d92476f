"""Benchmark workloads: seeded inputs, one operation, output checks.

cli-cold and point-queries are timed; all four, dist-large and mc-sample
too, have a traced pass (see run.py).  Every workload is a closed loop
with one client: the next operation starts only after the previous one
returned, in one process.  Inputs are made from the seed alone
(`random.Random(f"{name}:{seed}")`), and the program only ever receives
those inputs.

A workload provides
  ops                 the seeded operation list: one pass;
  setup()             import, input objects and a warm-up operation;
  run(op)             one operation, returning its output;
  check(outputs)      (op index or None, message) for every wrong output,
                      given the outputs of one pass;
  digest(outputs)     sha256 of the outputs that the exactness contracts
                      pin (exact counts, CLI bytes, MC histograms);
  attach(tracer)      hooks that compute sizes from call arguments;
  layer_metrics(tr)   per-layer metrics {name: (value, unit)}.

Checks that hold for every seed: each exact distribution sums to the
independent `bracelet_count_direct`, specs with N <= 12 match the
brute-force oracle, Monte Carlo frequencies sum to one and stay inside a
loose sampling bound, and re-running a Monte Carlo subseed reproduces its
histogram.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import importlib
import io
import json
import math
import random
import statistics
import subprocess
import sys
from time import perf_counter

ORACLE_MAX_N = 12
# Reference times of the two calibrations below: about their fastest on
# the machine the baseline was measured on, a 2-vCPU Xeon VM with CPython
# 3.11.7.  Timed figures are given in seconds of a machine on which the
# calibration takes this long.
BARE_START_S = 0.046
ARITHMETIC_LOOP_S = 0.008
# `-X importtime` modules by top-level package -> import metric of self times.
PACKAGE_SHARES = {
    "numpy": "import.numpy_s",
    "scipy": "import.scipy_s",
    "dna_necklace": "import.dna_necklace_self_s",
}


def _package():
    import dna_necklace

    return dna_necklace


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() if isinstance(line, str) else line)
        h.update(b"\n")
    return h.hexdigest()


def _loglog_slope(points: list[tuple[float, float]]) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


@functools.lru_cache(maxsize=None)
def _oracle_buckets(n: int) -> dict:
    return _package().enumerate_all(n)


def check_distribution(spec, dist: dict) -> list[str]:
    """Exact distribution: full even support, sum equal to the Burnside total."""
    dn = _package()
    errors = []
    expected_keys = list(range(0, 2 * min(spec.n_at, spec.n_gc) + 1, 2))
    if sorted(dist) != expected_keys:
        errors.append(f"{spec}: support is not the even numbers up to 2*min")
    if any(not isinstance(c, int) or c < 0 for c in dist.values()):
        errors.append(f"{spec}: a count is not a non-negative int")
    elif sum(dist.values()) != dn.bracelet_count_direct(spec):
        errors.append(f"{spec}: distribution sum != bracelet_count_direct")
    if spec.total <= ORACLE_MAX_N:
        buckets = _oracle_buckets(spec.total)
        for alpha, count in dist.items():
            if buckets.get((spec.n_at, alpha), 0) != count:
                errors.append(f"{spec}: alpha {alpha} disagrees with enumerate_all")
    return errors


def check_fit(spec, fit) -> list[str]:
    """A finite Gaussian with positive width and height, centred in the support."""
    values = (fit.alpha0, fit.sigma, fit.amplitude, fit.rmse)
    if not all(math.isfinite(v) for v in values):
        return [f"{spec}: non-finite fit {fit}"]
    if not (fit.sigma > 0 and fit.amplitude > 0):
        return [f"{spec}: fit {fit} has no width or height"]
    if not 0 <= fit.alpha0 <= spec.max_alternations:
        return [f"{spec}: fit {fit} centred outside the support"]
    return []


def chain_uniform_pdf(spec) -> dict[int, float]:
    """Exact law of one chain-uniform sample: P(2M alternations).

    (N/M)·C(n_at-1, M-1)·C(n_gc-1, M-1) of the C(N, n_at) labeled circular
    arrangements have 2M alternations.
    """
    n, a, g = spec.total, spec.n_at, spec.n_gc
    total = math.comb(n, a)
    return {
        2 * m: n * math.comb(a - 1, m - 1) * math.comb(g - 1, m - 1) // m / total
        for m in range(1, min(a, g) + 1)
    }


def mc_distance_bound(spec, runs: int) -> float:
    """Loose bound on the L1 distance of `runs` samples to the class pdf.

    The exact gap between the chain-uniform law the sampler draws from and
    the class-uniform reference, plus three times the expected L1 sampling
    error of the chain-uniform law.
    """
    dn = _package()
    chain = chain_uniform_pdf(spec)
    reference = dn.theoretical_pdf(spec).entries
    support = set(chain) | set(reference)
    bias = sum(abs(chain.get(a, 0.0) - reference.get(a, 0.0)) for a in support)
    sampling = sum(
        math.sqrt(2 * p * (1 - p) / (math.pi * runs)) for p in chain.values()
    )
    return bias + 3 * sampling


def check_histogram(spec, runs: int, histogram: dict, distance: float) -> list[str]:
    errors = []
    if sum(histogram.values()) != runs:
        errors.append(f"{spec}: histogram does not hold {runs} runs")
    if any(a % 2 or not 0 < a <= spec.max_alternations for a in histogram):
        errors.append(f"{spec}: impossible alternation value in histogram")
    bound = mc_distance_bound(spec, runs)
    if not 0 <= distance <= bound:
        errors.append(f"{spec}: distance {distance} outside sampling bound {bound}")
    return errors


def bare_start(env: dict | None = None) -> float:
    """Seconds to start and end a bare interpreter, `python -c pass`."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return perf_counter() - start


def arithmetic_loop() -> float:
    """Seconds for a fixed pure-Python integer loop, run in this process."""
    start = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return perf_counter() - start


class Workload:
    """One workload; the timed ones also say how their timing is calibrated.

    The machine's speed drifts with other tenants' load by a third for
    minutes at a time.  So a timed run precedes every `calibrate_every`
    operations with `calibration()`, a fixed piece of work of the same
    kind as an operation that returns its own time, and scales the
    operations' times by `reference_s` over the calibration's time, each
    call paired with the operation after it or not (`paired`; see
    worker.timed_run): figures in seconds of a machine on which the
    calibration takes `reference_s`.
    """

    name = ""
    # Set for the traced run: operations must run in this process, where
    # the tracer can see them (only cli-cold would run elsewhere).
    in_process = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops = self.make_ops(random.Random(f"{self.name}:{seed}"))

    def attach(self, tracer) -> None:
        """Install the tracer hooks this workload's counters need."""


def span_metrics(tracer, names: list[str]) -> dict:
    """``<span>.calls`` and ``<span>.self_s`` metrics from the tracer."""
    metrics = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = (tracer.calls.get(span, 0), "count")
        else:
            metrics[name] = (tracer.self_s.get(span, 0.0), "s")
    return metrics


COUNTING_LAYERS = [
    "numtheory.binomial.calls",
    "numtheory.binomial.self_s",
    "numtheory.totient.calls",
    "numtheory.totient.self_s",
    "numtheory.divisors.calls",
    "series.weight_coeff.calls",
    "series.product_weight_coeff.calls",
    "series.product_weight_coeff.self_s",
    "cycle_index.dihedral_bipartite_index.calls",
    "cycle_index.dihedral_bipartite_index.self_s",
    "cycle_index.count_orbits.self_s",
    "counting.necklace_count.calls",
    "counting.necklace_count.self_s",
]


def attach_counting_hooks(tracer) -> None:
    def terms(tr, args, result, duration):
        tr.count("cycle_index.terms", len(result.terms))

    def bits(tr, args, result, duration):
        tr.maximum("counting.max_count_bits", result.bit_length())

    tracer.hooks["cycle_index.dihedral_bipartite_index"] = terms
    tracer.hooks["counting.necklace_count"] = bits


def counting_counters(tracer) -> dict:
    return {
        "cycle_index.terms": (
            int(tracer.counters.get("cycle_index.terms", 0)),
            "count",
        ),
        "counting.max_count_bits": (
            int(tracer.counters.get("counting.max_count_bits", 0)),
            "bit",
        ),
    }


class DistLarge(Workload):
    """theoretical_pdf + fit_gaussian at N 400..1600, plus one ratio sweep.

    Cost is the counting layer at its ~N^2 Python-call price; import cost
    is outside the timed loop.  N is jittered by 0.5% per seed, so inputs
    differ between seeds while the cost of a pass stays put.  Balanced
    specs stop at N 1131 (about 2 s): a 4-s balanced N 1600 alone would
    make a pass too long to repeat often enough for a steady best time.
    """

    name = "dist-large"
    # (N, skewed): balanced or 6:1 content.
    SPECS = (
        (400, False),
        (800, False),
        (1131, False),
        (400, True),
        (800, True),
        (1600, True),
    )
    SWEEP_RATIO = (6, 1)
    SWEEP_N = (84, 168, 252, 336, 420, 504, 588)

    def make_ops(self, rng):
        ops = []
        for size, skewed in self.SPECS:
            total = round(size * rng.uniform(0.995, 1.005))
            minority = round(total / 7) if skewed else total // 2
            pair = (minority, total - minority)
            ops.append(("pdf",) + (pair if rng.random() < 0.5 else pair[::-1]))
        n_values = tuple(n + rng.randint(-3, 3) for n in self.SWEEP_N)
        ops.append(("sweep", self.SWEEP_RATIO, n_values))
        return ops

    def setup(self) -> None:
        self.run(("pdf", 20, 30))

    def run(self, op):
        """The op's result and every exact distribution theoretical_pdf built.

        The exact counts are captured at `stats.alternation_distribution`
        for the checks, so they need no second computation.
        """
        dn = _package()
        stats = sys.modules["dna_necklace.stats"]
        captured = []
        binding = stats.alternation_distribution

        def tap(spec):
            dist = binding(spec)
            captured.append((spec, dist))
            return dist

        stats.alternation_distribution = tap
        try:
            if op[0] == "pdf":
                pdf = dn.theoretical_pdf(dn.NecklaceSpec(op[1], op[2]))
                result = (pdf.entries, dn.fit_gaussian(pdf))
            else:
                result = dn.sweep_fixed_ratio(op[1], list(op[2]))
        finally:
            stats.alternation_distribution = binding
        return result, captured

    def _exact(self, spec, captured):
        for seen, dist in captured:
            if seen == spec:
                return dist
        return _package().alternation_distribution(spec)

    def check(self, outputs):
        dn = _package()
        errors = []
        for index, (op, (result, captured)) in enumerate(zip(self.ops, outputs)):
            messages = []
            if op[0] == "pdf":
                spec = dn.NecklaceSpec(op[1], op[2])
                entries, fit = result
                dist = self._exact(spec, captured)
                messages += check_distribution(spec, dist)
                total = sum(dist.values())
                if entries != {a: c / total for a, c in dist.items()}:
                    messages.append(f"{spec}: pdf is not count/total")
                messages += check_fit(spec, fit)
            else:
                for row in result.rows:
                    spec = dn.NecklaceSpec(row.n_at, row.n_gc)
                    if row.error is not None or row.n_at + row.n_gc != row.n:
                        messages.append(f"sweep row {row}: failed")
                        continue
                    messages += check_distribution(spec, self._exact(spec, captured))
                    messages += check_fit(spec, row.fit)
                if result.slope is None or not 0 < result.slope < 1:
                    messages.append(f"sweep slope {result.slope} outside (0, 1)")
            errors += [(index, m) for m in messages]
        return errors

    def digest(self, outputs) -> str:
        lines = []
        for op, (result, captured) in zip(self.ops, outputs):
            lines.append(repr(op))
            for spec, dist in captured:
                counts = ",".join(str(dist[a]) for a in sorted(dist))
                lines.append(f"{spec.n_at},{spec.n_gc}:{counts}")
            if op[0] == "pdf":
                lines.append(",".join(repr(result[0][a]) for a in sorted(result[0])))
        return _sha256(lines)

    def attach(self, tracer) -> None:
        attach_counting_hooks(tracer)
        self.balanced_times = []

        def timing(tr, args, result, duration):
            spec = args[0]
            if abs(spec.n_at - spec.n_gc) <= 1:
                self.balanced_times.append((spec.total, duration))

        tracer.hooks["counting.alternation_distribution"] = timing

    def layer_metrics(self, tracer) -> dict:
        metrics = span_metrics(
            tracer,
            COUNTING_LAYERS
            + [
                "counting.alternation_distribution.self_s",
                "stats.theoretical_pdf.self_s",
                "stats.fit_gaussian.calls",
                "stats.fit_gaussian.self_s",
                "stats.sweep_fixed_ratio.self_s",
            ],
        )
        metrics.update(counting_counters(tracer))
        # Exponent of alternation_distribution wall time against N, over
        # the balanced specs of the N grid.
        metrics["counting.alternation_distribution.slope"] = (
            _loglog_slope(self.balanced_times),
            "exponent",
        )
        return metrics


class PointQueries(Workload):
    """Single count_necklaces(spec, alpha) calls, N <= 120, alpha in support.

    The same counting layer as dist-large, used per query: the per-call
    cost of building the index and of totient/divisors dominates.  A pass
    is QUERIES seeded queries, drawn from about 7000 specs times their
    supports.
    """

    name = "point-queries"
    QUERIES = 5_000
    # A query is arithmetic in this process, ~0.1 ms: calibrate in process.
    calibration = staticmethod(arithmetic_loop)
    reference_s = ARITHMETIC_LOOP_S
    calibrate_every = 1_000
    paired = False
    MAX_N = 120
    CHECKED_SPECS = 40

    def make_ops(self, rng):
        ops = []
        for _ in range(self.QUERIES):
            total = rng.randint(2, self.MAX_N)
            n_at = rng.randint(1, total - 1)
            alpha = 2 * rng.randint(0, min(n_at, total - n_at))
            ops.append((n_at, total - n_at, alpha))
        return ops

    def setup(self) -> None:
        for op in self.ops[-50:]:
            self.run(op)

    def run(self, op):
        dn = _package()
        return dn.count_necklaces(dn.NecklaceSpec(op[0], op[1]), op[2])

    def check(self, outputs):
        dn = _package()
        errors = []
        by_spec: dict[tuple[int, int], list[int]] = {}
        for index in range(len(outputs)):
            by_spec.setdefault(self.ops[index][:2], []).append(index)
        rng = random.Random(f"{self.name}:{self.seed}:check")
        chosen = rng.sample(sorted(by_spec), min(self.CHECKED_SPECS, len(by_spec)))
        chosen += [k for k in by_spec if sum(k) <= ORACLE_MAX_N and k not in chosen]
        for key in chosen:
            spec = dn.NecklaceSpec(*key)
            dist = dn.alternation_distribution(spec)
            for message in check_distribution(spec, dist):
                errors.append((by_spec[key][0], message))
            for index in by_spec[key]:
                alpha = self.ops[index][2]
                if outputs[index] != dist[alpha]:
                    errors.append((index, f"{spec} alpha {alpha}: wrong count"))
        return errors

    def digest(self, outputs) -> str:
        return _sha256(str(a) for a in outputs)

    def attach(self, tracer) -> None:
        attach_counting_hooks(tracer)

    def layer_metrics(self, tracer) -> dict:
        metrics = span_metrics(tracer, COUNTING_LAYERS)
        metrics.update(counting_counters(tracer))
        return metrics


class McSample(Workload):
    """empirical_pdf over several sets plus one convergence_study.

    The content is skewed (about 50 AT in 1000), so the exact reference is
    cheap and the runs x N uint8 chain matrix drives both time and memory.
    """

    name = "mc-sample"
    RUNS = 20_000
    SETS = 3
    CONVERGENCE_RUNS = (2_000, 6_000, 12_000)
    CONVERGENCE_SETS = 2

    def make_ops(self, rng):
        self.content = (50 + rng.randint(-2, 2), 950 + rng.randint(-5, 5))
        self.mc_seed = rng.getrandbits(64)
        return [("set", i) for i in range(self.SETS)] + [("convergence",)]

    def setup(self) -> None:
        dn = _package()
        self.spec = dn.NecklaceSpec(*self.content)
        self.config = dn.MCConfig(self.spec, self.RUNS, self.mc_seed, self.SETS)
        dn.empirical_pdf(dn.MCConfig(self.spec, 100, self.mc_seed, 1))

    def run(self, op):
        dn = _package()
        if op[0] == "set":
            return dn.empirical_pdf(self.config, op[1]).entries
        rows = dn.convergence_study(
            self.spec, list(self.CONVERGENCE_RUNS), self.CONVERGENCE_SETS, self.mc_seed
        )
        return [(row.runs, row.d_values) for row in rows]

    def _histogram(self, entries: dict, runs: int):
        counts = {a: round(f * runs) for a, f in entries.items()}
        if any(counts[a] / runs != f for a, f in entries.items()):
            return None
        return counts

    def check(self, outputs):
        dn = _package()
        errors = []
        reference = dn.theoretical_pdf(self.spec)
        exact = dn.alternation_distribution(self.spec)
        errors += [(None, m) for m in check_distribution(self.spec, exact)]
        for index, (op, out) in enumerate(zip(self.ops, outputs)):
            if op[0] == "set":
                counts = self._histogram(out, self.RUNS)
                if counts is None or abs(sum(out.values()) - 1) > 1e-9:
                    errors.append((index, "frequencies are not counts/runs, sum 1"))
                    continue
                empirical = dn.DiscretePdf(out, "empirical")
                distance = dn.total_abs_diff(empirical, reference)
                messages = check_histogram(self.spec, self.RUNS, counts, distance)
                errors += [(index, m) for m in messages]
            else:
                if [runs for runs, _ in out] != list(self.CONVERGENCE_RUNS):
                    errors.append((index, "convergence rows do not match run counts"))
                    continue
                for runs, d_values in out:
                    bound = mc_distance_bound(self.spec, runs)
                    inside = all(0 <= d <= bound for d in d_values)
                    if len(d_values) != self.CONVERGENCE_SETS or not inside:
                        errors.append((index, f"convergence d {d_values} over {bound}"))
        if outputs and dn.empirical_pdf(self.config, 0).entries != outputs[0]:
            errors.append((0, "re-running subseed 0 gave another histogram"))
        return errors

    def digest(self, outputs) -> str:
        lines = [repr((self.content, self.mc_seed))]
        for op, out in zip(self.ops, outputs):
            if op[0] == "set":
                counts = self._histogram(out, self.RUNS) or {}
                lines.append(",".join(f"{a}:{counts[a]}" for a in sorted(counts)))
            else:
                lines.append(repr(out))
        return _sha256(lines)

    def attach(self, tracer) -> None:
        def chains(tr, args, result, duration):
            spec, runs = args[0], args[1]
            # Computed from the arguments: one uint8 per bead.
            tr.count("montecarlo.beads_sampled", runs * spec.total)
            tr.maximum("montecarlo.chain_matrix_bytes", runs * spec.total)

        tracer.hooks["montecarlo.sample_chains"] = chains

    def layer_metrics(self, tracer) -> dict:
        metrics = span_metrics(
            tracer,
            [
                "montecarlo.sample_chains.self_s",
                "montecarlo.alternation_histogram.self_s",
                "montecarlo.total_abs_diff.self_s",
                "montecarlo.derive_subseed.calls",
                "stats.theoretical_pdf.self_s",
                "counting.necklace_count.calls",
            ],
        )
        for name, unit in (
            ("montecarlo.beads_sampled", "count"),
            ("montecarlo.chain_matrix_bytes", "B"),
        ):
            metrics[name] = (int(tracer.counters.get(name, 0)), unit)
        return metrics


class CliCold(Workload):
    """Sequential `python -m dna_necklace` processes over all six subcommands.

    Small sizes, as people use the tool: time goes to interpreter start and
    imports, not arithmetic.  The traced run calls `cli.main` in process
    instead, and takes import times from `python -X importtime` children.
    """

    name = "cli-cold"
    IMPORT_SAMPLES = 3
    # An invocation is mostly interpreter start and imports: calibrate
    # with a bare interpreter start before every one.
    calibration = staticmethod(bare_start)
    reference_s = BARE_START_S
    calibrate_every = 1
    paired = True

    def make_ops(self, rng):
        def table():
            return {"quiet": rng.random() < 0.5, "format": rng.choice(("csv", "json"))}

        def content(low, high, least=1):
            total = rng.randint(low, high)
            n_at = rng.randint(least, total - least)
            return n_at, total - n_at

        at, gc = content(20, 100)
        alpha = 2 * rng.randint(1, min(at, gc))
        quiet = rng.random() < 0.5
        ops = [{"cmd": "count", "at": at, "gc": gc, "alpha": alpha, "quiet": quiet}]
        at, gc = content(4, 100)
        ops.append({"cmd": "pdf", "at": at, "gc": gc, **table()})
        at, gc = content(40, 100, least=10)
        ops.append({"cmd": "fit", "at": at, "gc": gc, **table()})
        ratio = rng.choice(((2, 1), (3, 1), (6, 1)))
        step = 7 * rng.randint(6, 12)
        n_values = [step * k for k in (1, 2, 3, 4)]
        ops.append({"cmd": "sweep", "ratio": ratio, "n_values": n_values, **table()})
        at, gc = content(20, 100, least=5)
        ops.append({"cmd": "mc", "at": at, "gc": gc, "runs": rng.randint(500, 3000),
                    "seed": rng.getrandbits(64), "sets": rng.randint(2, 3), **table()})
        ops.append({"cmd": "oracle", "n": rng.randint(8, ORACLE_MAX_N), **table()})
        return ops

    @staticmethod
    def argv(op) -> list[str]:
        argv = ["--quiet"] if op["quiet"] else []
        argv.append(op["cmd"])
        for key in ("alpha", "at", "gc", "runs", "seed", "sets", "n"):
            if key in op:
                argv += [f"--{key}", str(op[key])]
        if op["cmd"] == "sweep":
            argv += ["--mode", "fixed-ratio", "--ratio", "%d:%d" % op["ratio"],
                     "--n-values", ",".join(map(str, op["n_values"]))]
        if "format" in op:
            argv += ["--format", op["format"]]
        return argv

    def setup(self) -> None:
        self.run({"cmd": "count", "alpha": 2, "at": 1, "gc": 1, "quiet": True})

    def run(self, op):
        if self.in_process:
            cli = importlib.import_module("dna_necklace.cli")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(self.argv(op))
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue().encode(), err.getvalue().encode()
        proc = subprocess.run(
            [sys.executable, "-m", "dna_necklace", *self.argv(op)],
            capture_output=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def _table(op, text: str) -> list[dict]:
        if op["format"] == "json":
            return json.loads(text)["rows"]
        lines = [line for line in text.splitlines(True) if not line.startswith("#")]
        return list(csv.DictReader(lines))

    def _check_one(self, op, stdout: bytes) -> list[str]:
        dn = _package()
        text = stdout.decode()
        cmd = op["cmd"]
        if cmd == "count":
            spec = dn.NecklaceSpec(op["at"], op["gc"])
            lines = text.splitlines()
            expected = dn.alternation_distribution(spec)[op["alpha"]]
            if int(lines[-1]) != expected or (op["quiet"] != (len(lines) == 1)):
                return [f"count {op}: printed {lines}, expected {expected}"]
            return []
        rows = self._table(op, text)
        if cmd == "pdf":
            spec = dn.NecklaceSpec(op["at"], op["gc"])
            dist = {int(r["alpha"]): int(r["count"]) for r in rows}
            total = sum(dist.values())
            errors = check_distribution(spec, dist)
            if any(float(r["probability"]) != int(r["count"]) / total for r in rows):
                errors.append(f"pdf {op}: probability is not count/total")
            return errors
        if cmd == "fit":
            (row,) = rows
            spec = dn.NecklaceSpec(op["at"], op["gc"])
            return check_fit(spec, dn.GaussianFit(
                *(float(row[k]) for k in ("alpha0", "sigma", "amplitude", "rmse"))
            ))
        if cmd == "sweep":
            errors = []
            for row in rows:
                spec = dn.NecklaceSpec(int(row["n_at"]), int(row["n_gc"]))
                if row["error"] not in ("", None) or spec.total != int(row["n"]):
                    errors.append(f"sweep {op}: row {row} failed")
                    continue
                fit = dn.GaussianFit(
                    *(float(row[k]) for k in ("alpha0", "sigma", "max_pg")), rmse=0.0
                )
                errors += check_fit(spec, fit)
            return errors
        if cmd == "mc":
            spec = dn.NecklaceSpec(op["at"], op["gc"])
            errors = []
            for set_index in range(op["sets"]):
                set_rows = [r for r in rows if int(r["set"]) == set_index]
                histogram = {int(r["alpha"]): int(r["count"]) for r in set_rows}
                frequencies = [float(r["frequency"]) for r in set_rows]
                subseed = dn.derive_subseed(op["seed"], set_index)
                if not set_rows or {int(r["sub_seed"]) for r in set_rows} != {subseed}:
                    errors.append(f"mc {op}: set {set_index} missing or wrong subseed")
                    continue
                if abs(sum(frequencies) - 1) > 1e-9:
                    errors.append(f"mc {op}: set {set_index} does not sum to 1")
                distance = float(set_rows[0]["d"])
                errors += check_histogram(spec, op["runs"], histogram, distance)
                if set_index == 0:
                    import numpy as np

                    rng = np.random.default_rng(subseed)
                    again = dn.alternation_histogram(spec, op["runs"], rng)
                    if again != histogram:
                        errors.append(f"mc {op}: re-running subseed {subseed} differs")
            return errors
        # oracle: the brute-force buckets against the counting route.
        n = op["n"]
        errors = []
        buckets = {(int(r["n_at"]), int(r["alpha"])): int(r["count"]) for r in rows}
        for n_at in range(n + 1):
            spec = dn.NecklaceSpec(n_at, n - n_at)
            dist = dn.alternation_distribution(spec)
            if any(buckets.get((n_at, a), 0) != c for a, c in dist.items()):
                errors.append(f"oracle {op}: n_at {n_at} disagrees with counting")
        if sum(buckets.values()) != sum(
            dn.bracelet_count_direct(dn.NecklaceSpec(k, n - k)) for k in range(n + 1)
        ):
            errors.append(f"oracle {op}: total disagrees with bracelet_count_direct")
        return errors

    def check(self, outputs):
        errors = []
        for index, (op, (code, stdout, stderr)) in enumerate(zip(self.ops, outputs)):
            if code != 0 or stderr:
                message = f"{self.argv(op)}: exit {code}, stderr {stderr[-200:]!r}"
                errors.append((index, message))
                continue
            try:
                errors += [(index, m) for m in self._check_one(op, stdout)]
            except (ValueError, KeyError, TypeError) as exc:
                errors.append((index, f"{self.argv(op)}: unparsable output ({exc!r})"))
        return errors

    def digest(self, outputs) -> str:
        lines = []
        for op, (code, stdout, _) in zip(self.ops, outputs):
            lines += [" ".join(self.argv(op)), str(code), stdout]
        return _sha256(lines)

    def import_metrics(self) -> dict:
        """Medians over `python -X importtime -c "import dna_necklace"` children.

        Package shares are summed self times of the modules under it.
        """
        samples = []
        for _ in range(self.IMPORT_SAMPLES):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import dna_necklace"],
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            sums = dict.fromkeys(PACKAGE_SHARES.values(), 0)
            total = None
            for line in proc.stderr.splitlines():
                if not line.startswith("import time:") or "|" not in line:
                    continue
                fields = line[len("import time:"):].split("|")
                try:
                    self_us, cumulative_us = int(fields[0]), int(fields[1])
                except ValueError:
                    continue  # the header line
                module = fields[2].strip()
                top = module.split(".")[0]
                key = PACKAGE_SHARES.get(top)
                if key:
                    sums[key] += self_us
                if module == "dna_necklace":
                    total = cumulative_us
            sums["import.total_s"] = total
            samples.append(sums)
        return {
            key: (statistics.median(s[key] for s in samples) / 1e6, "s")
            for key in samples[0]
        }

    def layer_metrics(self, tracer) -> dict:
        metrics = span_metrics(
            tracer,
            [
                "oracle.enumerate_all.self_s",
                "oracle.canonical_form.calls",
                "cli.main.self_s",
            ],
        )
        metrics.update(self.import_metrics())
        return metrics


WORKLOADS = {cls.name: cls for cls in (CliCold, DistLarge, PointQueries, McSample)}
