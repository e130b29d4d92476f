"""Command-line front end.

Exact counts are emitted as decimal strings, never floats: they routinely
exceed every native wire type (10^25 and up).  CSV output starts with
``# key: value`` provenance lines unless --quiet is given; JSON mirrors
the CSV columns with a "parameters" object instead.  Identical invocations
(including seed) produce byte-identical output.

Exit codes: 0 success, 2 usage or validation error, 3 internal
integrality failure (a correctness bug, not a user error).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .counting import (
    IntegralityError,
    NecklaceSpec,
    alternation_distribution,
    count_necklaces,
)
from .montecarlo import (
    PRNG_NAME,
    MCConfig,
    _rng,
    alternation_histogram,
    derive_subseed,
    total_abs_diff,
)
from .oracle import MAX_ENUMERATION_BITS, enumerate_all
from .stats import (
    DiscretePdf,
    fit_gaussian,
    sweep_fixed_at,
    sweep_fixed_ratio,
    theoretical_pdf,
)

USAGE_ERROR = 2
INTEGRALITY_ERROR = 3


def _fmt(value) -> str:
    """One CSV cell; floats get 17 significant digits, None an empty cell."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _render(args, parameters: dict, columns: list[str], rows: list[dict]) -> str:
    if args.format == "json":
        envelope: dict = {"command": args.command}
        if not args.quiet:
            envelope["parameters"] = parameters
        envelope["rows"] = rows
        return json.dumps(envelope, indent=2) + "\n"
    out = io.StringIO()
    if not args.quiet:
        out.write(f"# command: {args.command}\n")
        for key, value in parameters.items():
            out.write(f"# {key}: {value}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return out.getvalue()


def _write(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _spec(args) -> NecklaceSpec:
    return NecklaceSpec(args.at, args.gc)


def cmd_count(args) -> int:
    count = count_necklaces(_spec(args), args.alpha)
    lines = []
    if not args.quiet:
        lines += [
            "# command: count",
            f"# alpha: {args.alpha}",
            f"# at: {args.at}",
            f"# gc: {args.gc}",
        ]
    lines.append(str(count))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_pdf(args) -> int:
    dist = alternation_distribution(_spec(args))
    total = sum(dist.values())
    rows = [
        {"alpha": alpha, "count": str(dist[alpha]), "probability": dist[alpha] / total}
        for alpha in sorted(dist)
    ]
    parameters = {"at": args.at, "gc": args.gc}
    _write(args, _render(args, parameters, ["alpha", "count", "probability"], rows))
    return 0


def cmd_mc(args) -> int:
    config = MCConfig(spec=_spec(args), runs=args.runs, seed=args.seed, sets=args.sets)
    reference = theoretical_pdf(config.spec)
    rows = []
    for set_index in range(config.sets):
        subseed = derive_subseed(config.seed, set_index)
        histogram = alternation_histogram(config.spec, config.runs, _rng(subseed))
        empirical = DiscretePdf(
            {a: c / config.runs for a, c in histogram.items()}, "empirical"
        )
        distance = total_abs_diff(empirical, reference)
        for alpha in sorted(histogram):
            rows.append(
                {
                    "set": set_index,
                    "sub_seed": str(subseed),
                    "d": distance,
                    "alpha": alpha,
                    "count": str(histogram[alpha]),
                    "frequency": histogram[alpha] / config.runs,
                }
            )
    parameters = {
        "at": args.at,
        "gc": args.gc,
        "runs": args.runs,
        "seed": args.seed,
        "sets": args.sets,
        "prng": PRNG_NAME,
    }
    columns = ["set", "sub_seed", "d", "alpha", "count", "frequency"]
    _write(args, _render(args, parameters, columns, rows))
    return 0


def _read_pdf_file(path: str) -> DiscretePdf:
    """Load a pdf from CSV having alpha and probability columns.

    Alternation counts must be even, >= 0 and listed once, probabilities
    finite and >= 0; anything else is rejected rather than silently
    dropped or overwritten.
    """
    # utf-8-sig drops the byte-order mark spreadsheet exports put first.
    with open(path, encoding="utf-8-sig") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    reader = csv.DictReader(lines)
    entries: dict[int, float] = {}
    for record in reader:
        if record.get("alpha") is None or record.get("probability") is None:
            raise ValueError(f"{path}: need alpha and probability columns")
        alpha = int(record["alpha"])
        probability = float(record["probability"])
        if alpha < 0 or alpha % 2 != 0:
            raise ValueError(f"{path}: alpha must be even and >= 0, got {alpha}")
        if alpha in entries:
            raise ValueError(f"{path}: alpha={alpha} appears more than once")
        if not math.isfinite(probability) or probability < 0:
            raise ValueError(
                f"{path}: probability at alpha={alpha} must be finite and "
                f">= 0, got {record['probability']}"
            )
        entries[alpha] = probability
    if not entries:
        raise ValueError(f"{path}: no pdf rows found")
    return DiscretePdf(entries, "file")


def cmd_fit(args) -> int:
    if args.pdf_file:
        pdf = _read_pdf_file(args.pdf_file)
        parameters = {"pdf_file": args.pdf_file}
    else:
        if args.at is None or args.gc is None:
            raise ValueError("fit needs either --pdf-file or both --at and --gc")
        pdf = theoretical_pdf(_spec(args))
        parameters = {"at": args.at, "gc": args.gc}
    try:
        fit = fit_gaussian(pdf)
    except RuntimeError as exc:  # the least-squares search gave up
        raise ValueError(f"Gaussian fit did not converge: {exc}") from exc
    rows = [
        {
            "alpha0": fit.alpha0,
            "sigma": fit.sigma,
            "amplitude": fit.amplitude,
            "rmse": fit.rmse,
        }
    ]
    _write(
        args,
        _render(args, parameters, ["alpha0", "sigma", "amplitude", "rmse"], rows),
    )
    return 0


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated integers: {exc}") from exc
    if not values:
        raise ValueError(f"{flag} must list at least one value")
    return values


def _parse_ratio(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"--ratio expects GC:AT, e.g. 2:1, got {text!r}")
    try:
        gc_part, at_part = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"--ratio expects integers, got {text!r}") from exc
    return gc_part, at_part


def cmd_sweep(args) -> int:
    if args.mode == "fixed-at":
        if args.at is None or not args.gc_values:
            raise ValueError("fixed-at sweep needs --at and --gc-values")
        gc_values = _parse_int_list(args.gc_values, "--gc-values")
        rows = []
        for row in sweep_fixed_at(args.at, gc_values):
            rows.append(
                {
                    "n_gc": row.n_gc,
                    "alpha0": row.fit.alpha0 if row.fit else None,
                    "sigma": row.fit.sigma if row.fit else None,
                    "max_pg": row.fit.amplitude if row.fit else None,
                    "error": row.error,
                }
            )
        parameters = {"mode": "fixed-at", "at": args.at, "gc_values": args.gc_values}
        columns = ["n_gc", "alpha0", "sigma", "max_pg", "error"]
        _write(args, _render(args, parameters, columns, rows))
        return 0
    if args.ratio is None or not args.n_values:
        raise ValueError("fixed-ratio sweep needs --ratio and --n-values")
    ratio = _parse_ratio(args.ratio)
    n_values = _parse_int_list(args.n_values, "--n-values")
    result = sweep_fixed_ratio(ratio, n_values)
    rows = []
    for row in result.rows:
        rows.append(
            {
                "n": row.n,
                "n_at": row.n_at,
                "n_gc": row.n_gc,
                "alpha0": row.fit.alpha0 if row.fit else None,
                "sigma": row.fit.sigma if row.fit else None,
                "max_pg": row.fit.amplitude if row.fit else None,
                "error": row.error,
                "slope": result.slope,
                "intercept": result.intercept,
            }
        )
    parameters = {
        "mode": "fixed-ratio",
        "ratio": args.ratio,
        "n_values": args.n_values,
    }
    columns = [
        "n",
        "n_at",
        "n_gc",
        "alpha0",
        "sigma",
        "max_pg",
        "error",
        "slope",
        "intercept",
    ]
    _write(args, _render(args, parameters, columns, rows))
    return 0


def cmd_oracle(args) -> int:
    buckets = enumerate_all(args.n)
    rows = [
        {"n_at": n_at, "alpha": alpha, "count": str(buckets[(n_at, alpha)])}
        for n_at, alpha in sorted(buckets)
    ]
    parameters = {"n": args.n}
    _write(args, _render(args, parameters, ["n_at", "alpha", "count"], rows))
    return 0


def _add_table_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    parser.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dna-necklace",
        description=(
            "Exact counts and distributions of AT/GC alternations in "
            "circular chains, with Monte Carlo validation and Gaussian fits."
        ),
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the parameter echo (pipeline use)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact count at one alternation number")
    p.add_argument("--alpha", type=int, required=True, help="alternation count (even)")
    p.add_argument("--at", type=int, required=True, help="number of AT (white) beads")
    p.add_argument("--gc", type=int, required=True, help="number of GC (black) beads")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("pdf", help="theoretical alternation distribution")
    p.add_argument("--at", type=int, required=True)
    p.add_argument("--gc", type=int, required=True)
    _add_table_flags(p)
    p.set_defaults(func=cmd_pdf)

    p = sub.add_parser("mc", help="Monte Carlo empirical distribution")
    p.add_argument("--at", type=int, required=True)
    p.add_argument("--gc", type=int, required=True)
    p.add_argument("--runs", type=int, required=True, help="chains per set")
    p.add_argument("--seed", type=int, default=0, help="master seed (64-bit)")
    p.add_argument("--sets", type=int, default=5, help="independent sets")
    _add_table_flags(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("fit", help="Gaussian fit of a pdf")
    p.add_argument("--at", type=int)
    p.add_argument("--gc", type=int)
    p.add_argument(
        "--pdf-file",
        help="fit a pdf from a CSV with alpha,probability columns "
        "(e.g. the output of the pdf command) instead of computing one",
    )
    _add_table_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sweep", help="Gaussian characteristics over a parameter sweep")
    p.add_argument("--mode", choices=("fixed-at", "fixed-ratio"), required=True)
    p.add_argument("--at", type=int, help="fixed-at: the constant AT count")
    p.add_argument("--gc-values", help="fixed-at: comma-separated GC counts")
    p.add_argument("--ratio", help="fixed-ratio: GC:AT, e.g. 6:1")
    p.add_argument("--n-values", help="fixed-ratio: comma-separated total lengths")
    _add_table_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "oracle", help=f"brute-force bucket table (N <= {MAX_ENUMERATION_BITS})"
    )
    p.add_argument("--n", type=int, required=True, help="chain length")
    _add_table_flags(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except IntegralityError as exc:
        print(f"integrality failure: {exc}", file=sys.stderr)
        return INTEGRALITY_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
