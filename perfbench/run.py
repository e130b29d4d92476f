"""Benchmark of the dna-necklace toolkit: timed workloads, traced passes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]    # everything

Run from anywhere; the package is taken from `src/` next to this
directory (it need not be installed) and run as `python -m dna_necklace`.
Each workload runs in fresh worker processes, one at a time, with the
BLAS/OpenMP thread counts set to 1.  Every process the benchmark starts
reads and writes bytecode only in its own cache, perfbench/out/pycache,
which is filled by an untimed set-up before anything is timed; so a
__pycache__ left under src/ by other runs does not change the figures.

--trace 0 times one workload: set-up is timed from process start to
ready in SETUP_SAMPLES fresh processes (median reported); the middle one
runs the closed loop for --seconds and checks every output.  The samples
are split before and after the closed loop, so that the median covers
the whole run and not only a few seconds of a machine whose speed
changes from second to second.  That speed also drifts by a third for
minutes at a time, more than any bound a later change could be judged
by, so times are scaled by calibration runs made beside them: a bare
interpreter start before each set-up and each of cli-cold's
invocations, a fixed pure-Python loop before each block of
point-queries' queries (see workloads.Workload).  The figures are thus
seconds on a machine where the calibration takes its reference time;
the unscaled ones and the calibration's time are printed beside them.
Prints the end-to-end metrics of BENCHMARK.json.

--trace 1 prints the per-layer metrics of BENCHMARK.json, named
``<pass>.<module>.<function>.<stat>``, and is the same whatever
--workload names: it runs all four traced passes, each in its own
process, and writes their spans to perfbench/out/.  The traced passes
are the timed workloads plus dist-large (distributions at N 400..1600)
and mc-sample (Monte Carlo at 20000 runs x N 1000).  Those two are not
timed: their operations take seconds, and on a machine whose speed
drifts for minutes at a time their run-to-run spread exceeded any usable
bound.  Their work counts and computed sizes repeat exactly.

Without --workload, times every workload and then runs the traced
passes, and prints every metric, also the op_p90_s and error_rate that
are not in BENCHMARK.json (op_p90_s only where a run has 100 operations
or more).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With the default seed the
outputs must also match the digests pinned in digests.json.  The exit
code is 0 only if every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import BARE_START_S, bare_start

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PYCACHE = OUT / "pycache"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("cli-cold", "point-queries")
TRACED = ("cli-cold", "dist-large", "point-queries", "mc-sample")
DEFAULT_SEED = 1
SETUP_SAMPLES = 11
CALIBRATION_STARTS = 3
# A run of one workload (or of the traced passes) ends within this time.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds to ready, its final JSON or None)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        if ready.strip() != "ready":
            proc.wait(timeout=max(1.0, deadline - perf_counter()))
            raise BenchError(f"worker {args} failed during set-up")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def check_digest(workload: str, seed: int, digest: str | None) -> list[str]:
    if seed != DEFAULT_SEED:
        return []
    if json.loads(DIGESTS.read_text()).get(workload) != digest:
        return [f"{workload}: outputs differ from the digest pinned for seed {seed}"]
    return []


def warm(workload: str, deadline: float) -> None:
    """Fill the bytecode cache with an untimed set-up of `workload`."""
    PYCACHE.mkdir(parents=True, exist_ok=True)
    spawn(["--workload", workload, "--seed", str(DEFAULT_SEED), "--setup-only"], deadline)


def setup_sample(args: list[str], deadline: float) -> tuple[float, float, dict | None]:
    """spawn() after bare interpreter starts; set-up time scaled by them.

    Set-up, too, is mostly interpreter start and imports, so it is scaled
    like cli-cold's invocations: by BARE_START_S over the median time of
    CALIBRATION_STARTS bare starts (one start alone is too noisy for a
    single sample).  Returns (scaled set-up seconds, unscaled set-up
    seconds, final JSON).
    """
    env = child_env()
    scale = BARE_START_S / statistics.median(bare_start(env) for _ in range(CALIBRATION_STARTS))
    setup_s, result = spawn(args, deadline)
    return setup_s * scale, setup_s, result


def timed(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    warm(workload, deadline)
    only = common + ["--setup-only"]
    samples = [setup_sample(only, deadline) for _ in range(SETUP_SAMPLES // 2)]
    *sample, result = setup_sample(common + ["--seconds", str(seconds)], deadline)
    samples.append(sample)
    samples += [setup_sample(only, deadline) for _ in range(SETUP_SAMPLES // 2)]
    errors = result["errors"] + check_digest(workload, seed, result["digest"])
    failed = result["failed"] or (1 if errors else 0)
    return {
        "attempted": result["attempted"],
        "failed": failed,
        "errors": errors,
        "metrics": {
            "ops_per_s": (result["ops_per_s"], "1/s"),
            "op_p50_s": (result["op_p50_s"], "s"),
            "setup_s": (statistics.median(s[0] for s in samples), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        },
        "extra": {
            "unscaled_ops_per_s": (result["unscaled_ops_per_s"], "1/s"),
            "unscaled_setup_s": (statistics.median(s[1] for s in samples), "s"),
            "calibration_s": (result["calibration_s"], "s"),
            "op_p90_s": (result["op_p90_s"], "s"),
            "samples": (result["attempted"], "count"),
            "passes": (result["passes"], "count"),
            "error_rate": (failed / result["attempted"], "ratio"),
        },
    }


def traced(seed: int, deadline: float) -> dict:
    # cli-cold's set-up imports the whole package and its front end.
    warm("cli-cold", deadline)
    attempted, failed, errors, metrics = 0, 0, [], {}
    for workload in TRACED:
        out = OUT / f"trace-{workload}-seed{seed}.json"
        args = ["--workload", workload, "--seed", str(seed), "--trace-out", str(out)]
        _, result = spawn(args, deadline)
        attempted += result["attempted"]
        failed += result["failed"]
        errors += result["errors"]
        errors += check_digest(workload, seed, result["digest"])
        for name, value in result["metrics"].items():
            metrics[f"{workload}.{name}"] = tuple(value)
    return {"attempted": attempted, "failed": failed or (1 if errors else 0),
            "errors": errors, "metrics": metrics}


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def select(metrics: dict, kind: str) -> dict:
    """Exactly the metrics BENCHMARK.json declares, with matching units."""
    wanted = declared(kind)
    missing = [n for n, u in wanted.items() if n not in metrics or metrics[n][1] != u]
    if missing:
        raise BenchError(f"metrics missing or in another unit: {missing}")
    return {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in wanted}


def report(label: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{label:14s} {name:58s} {shown} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + DEADLINE_S
    if not (SRC / "dna_necklace" / "__init__.py").is_file():
        print(f"error: no dna_necklace package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            if args.trace:
                run = traced(args.seed, deadline)
                report("traced", run["metrics"])
                metrics = select(run["metrics"], "per_layer")
            else:
                run = timed(args.workload, args.seed, args.seconds, deadline)
                report(args.workload, {**run["metrics"], **run["extra"]})
                metrics = select(run["metrics"], "end_to_end")
            runs = [run]
        else:
            runs, metrics = [], {}
            for workload in WORKLOADS:
                deadline = perf_counter() + DEADLINE_S
                run = timed(workload, args.seed, args.seconds, deadline)
                report(workload, {**run["metrics"], **run["extra"]})
                runs.append(run)
                metrics.update({f"{workload}.{n}": {"value": v, "unit": u}
                                for n, (v, u) in run["metrics"].items()})
            run = traced(args.seed, perf_counter() + DEADLINE_S)
            report("traced", run["metrics"])
            runs.append(run)
            metrics.update(select(run["metrics"], "per_layer"))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errors = [e for run in runs for e in run["errors"]]
    for error in errors:
        print(f"wrong: {error}", file=sys.stderr)
    summary = {
        "correct": not errors and not any(run["failed"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
