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
import math
import sys

from .counting import (
    IntegralityError,
    NecklaceSpec,
    alternation_distribution,
    count_necklaces,
)
from .montecarlo import PRNG_NAME, MCConfig, _run_set, total_abs_diff
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


def _provenance(args, parameters: dict) -> str:
    """The ``# key: value`` lines that open CSV output; none under --quiet."""
    if args.quiet:
        return ""
    lines = [f"# command: {args.command}\n"]
    lines += [f"# {key}: {value}\n" for key, value in parameters.items()]
    return "".join(lines)


def _render(args, parameters: dict, rows: list[dict]) -> str:
    """A table as CSV or JSON; the columns are the first row's keys, in order.

    Every command emits at least one row, and all its rows share one key
    order, so the first row states the columns for both formats.
    """
    if args.format == "json":
        import json

        envelope: dict = {"command": args.command}
        if not args.quiet:
            envelope["parameters"] = parameters
        envelope["rows"] = rows
        return json.dumps(envelope, indent=2) + "\n"
    out = io.StringIO()
    out.write(_provenance(args, parameters))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([_fmt(value) for value in row.values()])
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
    parameters = {"alpha": args.alpha, "at": args.at, "gc": args.gc}
    _write(args, f"{_provenance(args, parameters)}{count}\n")
    return 0


def cmd_pdf(args) -> int:
    dist = alternation_distribution(_spec(args))
    total = sum(dist.values())
    rows = [
        {"alpha": alpha, "count": str(dist[alpha]), "probability": dist[alpha] / total}
        for alpha in sorted(dist)
    ]
    parameters = {"at": args.at, "gc": args.gc}
    _write(args, _render(args, parameters, rows))
    return 0


def cmd_mc(args) -> int:
    config = MCConfig(spec=_spec(args), runs=args.runs, seed=args.seed, sets=args.sets)
    reference = theoretical_pdf(config.spec)
    rows = []
    for set_index in range(config.sets):
        subseed, histogram, empirical = _run_set(config, set_index)
        distance = total_abs_diff(empirical, reference)
        for alpha in sorted(histogram):
            rows.append(
                {
                    "set": set_index,
                    "sub_seed": str(subseed),
                    "d": distance,
                    "alpha": alpha,
                    "count": str(histogram[alpha]),
                    "frequency": empirical.entries[alpha],
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
    _write(args, _render(args, parameters, rows))
    return 0


def _read_pdf_file(path: str) -> DiscretePdf:
    """Load a pdf from CSV having alpha and probability columns.

    Alternation counts must be even, >= 0, within float range and listed
    once, probabilities finite and >= 0; anything else is rejected rather
    than silently dropped or overwritten.  A rejection names the file and
    the line, and the column when one cell is at fault.
    """
    # utf-8-sig drops the byte-order mark spreadsheet exports put first.
    with open(path, encoding="utf-8-sig") as handle:
        numbered = [
            (number, line)
            for number, line in enumerate(handle, 1)
            if not line.startswith("#")
        ]
    reader = csv.DictReader(line for _, line in numbered)

    def line() -> int:
        # The inner reader's count is current even when a row fails to parse.
        return numbered[reader.reader.line_num - 1][0]

    entries: dict[int, float] = {}
    try:
        for column in ("alpha", "probability"):
            if reader.fieldnames is not None and column not in reader.fieldnames:
                raise ValueError(
                    f"{path}, line {line()}: the header has no {column} column"
                )
        for record in reader:
            where = f"{path}, line {line()}"
            alpha = _cell(record, "alpha", int, "an integer", where)
            probability = _cell(record, "probability", float, "a number", where)
            if alpha < 0 or alpha % 2 != 0:
                raise ValueError(
                    f"{where}, column alpha: must be even and >= 0, got {alpha}"
                )
            if alpha > sys.float_info.max:
                raise ValueError(
                    f"{where}, column alpha: too large for floating-point "
                    "arithmetic"
                )
            if alpha in entries:
                raise ValueError(
                    f"{where}, column alpha: {alpha} appears more than once"
                )
            if not math.isfinite(probability) or probability < 0:
                raise ValueError(
                    f"{where}, column probability: must be finite and >= 0, "
                    f"got {record['probability']}"
                )
            entries[alpha] = probability
    except csv.Error as exc:  # e.g. a cell over the csv module's size limit
        raise ValueError(f"{path}, line {line()}: {exc}") from exc
    if not entries:
        raise ValueError(f"{path}: no pdf rows found")
    return DiscretePdf(entries, "file")


def _cell(record: dict, column: str, parse, kind: str, where: str) -> int | float:
    """One parsed cell of a --pdf-file row, or a ValueError naming it."""
    text = record[column]
    if text is None:
        raise ValueError(f"{where}, column {column}: missing cell")
    if not text.strip():
        raise ValueError(f"{where}, column {column}: empty cell")
    try:
        return parse(text)
    except ValueError:
        raise ValueError(
            f"{where}, column {column}: expected {kind}, got {text!r}"
        ) from None


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
    _write(args, _render(args, parameters, rows))
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
        sweep_rows = sweep_fixed_at(args.at, gc_values)
        shared = {}
        parameters = {"mode": "fixed-at", "at": args.at, "gc_values": args.gc_values}
    else:
        if args.ratio is None or not args.n_values:
            raise ValueError("fixed-ratio sweep needs --ratio and --n-values")
        ratio = _parse_ratio(args.ratio)
        n_values = _parse_int_list(args.n_values, "--n-values")
        result = sweep_fixed_ratio(ratio, n_values)
        sweep_rows = result.rows
        shared = {"slope": result.slope, "intercept": result.intercept}
        parameters = {
            "mode": "fixed-ratio",
            "ratio": args.ratio,
            "n_values": args.n_values,
        }
    rows = []
    for row in sweep_rows:
        # The content columns, then the fit's cells (empty on a failed row).
        cells = row._asdict()
        fit, error = cells.pop("fit"), cells.pop("error")
        cells["alpha0"] = fit.alpha0 if fit else None
        cells["sigma"] = fit.sigma if fit else None
        cells["max_pg"] = fit.amplitude if fit else None
        cells["error"] = error
        rows.append({**cells, **shared})
    _write(args, _render(args, parameters, rows))
    return 0


def cmd_oracle(args) -> int:
    buckets = enumerate_all(args.n)
    rows = [
        {"n_at": n_at, "alpha": alpha, "count": str(buckets[(n_at, alpha)])}
        for n_at, alpha in sorted(buckets)
    ]
    parameters = {"n": args.n}
    _write(args, _render(args, parameters, rows))
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
