"""One workload in one fresh process; started by run.py, one at a time.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--setup-only] [--trace-out PATH]

Prints ``ready`` once set up (import, seeded inputs, warm-up), so the
parent can time set-up from process start.  Then, unless --setup-only:

* timed mode: runs the workload's operations, one after another, in
  whole passes for --seconds and at least MIN_PASSES passes, each block
  of operations after a calibration run, checks the outputs and prints
  one JSON line of calibrated timings, counts, failures, the output
  digest and the process's peak RSS;
* --trace-out: runs one pass over the operations once untraced and once
  traced, checks both, writes the spans to PATH and prints one JSON line
  of per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_REPORTED_ERRORS = 20
MIN_PASSES = 5


def _peak_rss_kb(workload) -> int:
    if workload.name == "cli-cold":
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_op(workload, op, failures: list, index: int):
    try:
        return workload.run(op)
    # A failing operation is counted and the loop goes on.
    except Exception as exc:  # noqa: BLE001
        failures.append((index, f"{op!r}: raised {exc!r}"))
        return None


def _finish(workload, outputs, failures, attempted) -> dict:
    """Check outputs and count failed attempts.

    Every attempt repeats an operation of `ops`, so each attempt of a
    wrong operation counts as failed.
    """
    if any(out is None for out in outputs):
        failures = failures + [(None, "outputs were not checked: an operation raised")]
    else:
        failures = failures + workload.check(outputs)
    bad = {i for i, _ in failures if i is not None}
    failed = sum(1 for k in range(attempted) if k % len(workload.ops) in bad)
    if any(i is None for i, _ in failures):
        failed = max(failed, 1)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": [m for _, m in failures[:MAX_REPORTED_ERRORS]],
        "digest": workload.digest(outputs) if not failures else None,
    }


def timed_run(workload, seconds: float) -> dict:
    """Whole passes over `ops` for at least `seconds` and MIN_PASSES passes.

    Each operation's times over the passes are scaled by the
    calibration runs before every block of operations (see `Workload`)
    and reduced to one, in one of two ways:

    * `workload.paired` (cli-cold, whose invocations last about as long
      as the machine's speed holds still): each time is divided by the
      calibration just before it, and the median of these ratios over
      the passes is kept;
    * otherwise (point-queries, whose queries are far shorter than a
      calibration): interference only ever slows work down, so each
      operation's fastest time is kept, and the calibration is timed as
      if it were one more operation of the pass: its fastest time at
      each place in the pass, averaged over the places.  Both are then
      minima over as many samples, spread alike over the run.

    The result is multiplied by `workload.reference_s`.  ops_per_s is
    the pass size over the sum of the scaled times, op_p50_s their
    median and op_p90_s their 90th percentile (only where a pass has at
    least 100 operations, so ten lie beyond it).  Without pairing only
    the fastest times are kept, so memory does not grow with the number
    of passes.  Every pass must give the outputs of the first, which are
    checked.
    """
    ops = workload.ops
    outputs, failures = [], []
    best = [math.inf] * len(ops)
    every = workload.calibrate_every
    calibration_best = [math.inf] * math.ceil(len(ops) / every)
    ratios = [[] for _ in ops] if workload.paired else None
    attempted = 0
    start = perf_counter()
    while True:
        index = attempted % len(ops)
        if index % every == 0:
            place = index // every
            calibration = workload.calibration()
            calibration_best[place] = min(calibration_best[place], calibration)
        t = perf_counter()
        out = _run_op(workload, ops[index], failures, index)
        took = perf_counter() - t
        best[index] = min(best[index], took)
        if workload.paired:
            ratios[index].append(took / calibration)
        if attempted < len(ops):
            outputs.append(out)
        elif out != outputs[index]:
            failures.append((index, f"{ops[index]!r}: output differs between passes"))
        attempted += 1
        elapsed = perf_counter() - start
        whole = index == len(ops) - 1 and attempted >= MIN_PASSES * len(ops)
        if whole and elapsed >= seconds:
            break
    peak_rss_kb = _peak_rss_kb(workload)
    calibration_s = statistics.fmean(calibration_best)
    if workload.paired:
        scaled = [statistics.median(r) * workload.reference_s for r in ratios]
    else:
        scaled = [t * workload.reference_s / calibration_s for t in best]
    enough = len(scaled) >= 100
    result = _finish(workload, outputs, failures, attempted)
    result.update(
        passes=attempted // len(ops),
        ops_per_s=len(ops) / sum(scaled),
        op_p50_s=statistics.median(scaled),
        op_p90_s=statistics.quantiles(scaled, n=10)[8] if enough else None,
        unscaled_ops_per_s=len(ops) / sum(best),
        calibration_s=calibration_s,
        peak_rss_kb=peak_rss_kb,
    )
    return result


def traced_run(workload, trace_out: str) -> dict:
    ops = workload.ops
    failures: list = []
    start = perf_counter()
    plain = [_run_op(workload, op, failures, i) for i, op in enumerate(ops)]
    untraced_s = perf_counter() - start

    tracer = Tracer()
    workload.attach(tracer)
    tracer.install()
    traced = []
    try:
        start = perf_counter()
        for i, op in enumerate(ops):
            tracer.op_id = i
            traced.append(_run_op(workload, op, failures, i))
        traced_s = perf_counter() - start
    finally:
        tracer.uninstall()

    for i, (a, b) in enumerate(zip(plain, traced)):
        if a != b:
            failures.append((i, f"{ops[i]!r}: traced output differs from untraced"))
    result = _finish(workload, plain, failures, len(ops))
    result["attempted"] = 2 * len(ops)
    metrics = workload.layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    result["metrics"] = metrics
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": workload.seed, "metrics": metrics,
                   **tracer.dump()}, handle)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    workload.in_process = bool(args.trace_out)
    workload.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace_out:
        result = traced_run(workload, args.trace_out)
    else:
        result = timed_run(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
