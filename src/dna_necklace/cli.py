"""Command-line front end.

Exact counts are emitted as decimal strings, never floats: they routinely
exceed every native wire type (10^25 and up).  CSV output starts with
``# key: value`` provenance lines unless --quiet is given; JSON mirrors
the CSV columns with a "parameters" object instead.  Identical invocations
(including seed) produce byte-identical output.

Exit codes: 0 success, 2 usage or validation error, 3 internal
integrality failure (a correctness bug, not a user error).

`entrypoint` flushes the output and ends the process with ``os._exit``,
skipping interpreter teardown, so ``atexit`` handlers do not run there;
a flush that fails there exits 2 with one ``error:`` line.  `main`
returns its exit code as usual.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import re
import sys

from .counting import (
    IntegralityError,
    NecklaceSpec,
    _digits,
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


# Namespace keys that frame a run rather than parameterize it.
_FRAME_KEYS = frozenset(("quiet", "command", "func", "format", "out"))


def _parameters(args) -> dict:
    """The options the command ran with, in parser order; unset ones omitted."""
    return {
        key: value
        for key, value in vars(args).items()
        if key not in _FRAME_KEYS and value is not None
    }


def _provenance(args) -> str:
    """The ``# key: value`` lines that open CSV output; none under --quiet."""
    if args.quiet:
        return ""
    lines = [f"# command: {args.command}\n"]
    lines += [f"# {key}: {value}\n" for key, value in _parameters(args).items()]
    return "".join(lines)


def _render(args, rows: list[dict]) -> str:
    """A table as CSV or JSON; the columns are the first row's keys, in order.

    Every command emits at least one row, and all its rows share one key
    order, so the first row states the columns for both formats.
    """
    if args.format == "json":
        import json

        envelope: dict = {"command": args.command}
        if not args.quiet:
            envelope["parameters"] = _parameters(args)
        envelope["rows"] = rows
        return json.dumps(envelope, indent=2) + "\n"
    out = io.StringIO()
    out.write(_provenance(args))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([_fmt(value) for value in row.values()])
    return out.getvalue()


def _write(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    elif sys.stdout is None:  # started with file descriptor 1 closed
        raise OSError("standard output is closed")
    else:
        sys.stdout.write(text)


def _spec(args) -> NecklaceSpec:
    return NecklaceSpec(args.at, args.gc)


def cmd_count(args) -> str:
    count = count_necklaces(_spec(args), args.alpha)
    return f"{_provenance(args)}{_digits(count)}\n"


def cmd_pdf(args) -> str:
    dist = alternation_distribution(_spec(args))
    total = sum(dist.values())
    rows = [
        {"alpha": alpha, "count": _digits(dist[alpha]), "probability": dist[alpha] / total}
        for alpha in sorted(dist)
    ]
    return _render(args, rows)


def cmd_mc(args) -> str:
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
                    "count": _digits(histogram[alpha]),
                    "frequency": empirical.entries[alpha],
                }
            )
    return _render(args, rows)


def _read_pdf_file(path: str) -> DiscretePdf:
    """Load a pdf from CSV having alpha and probability columns.

    The file must be UTF-8, its header must name each of the two columns
    once, and no row may have more cells than the header.
    Alternation counts must be even, >= 0, within float range and listed
    once, probabilities finite and >= 0; anything else is rejected rather
    than silently dropped or overwritten.  A rejection names the file and
    the line, and the column when one cell is at fault.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports put first.
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = len(re.split(rb"\r\n?|\n", data[: exc.start]))
        raise ValueError(
            f"{path}, line {line}: not UTF-8 text "
            f"(byte 0x{data[exc.start]:02x}: {exc.reason})"
        ) from None
    # newline=None reads \r\n and \r line ends as \n, as text files do.
    numbered = [
        (number, line)
        for number, line in enumerate(io.StringIO(text, newline=None), 1)
        if not line.startswith("#")
    ]
    reader = csv.DictReader(line for _, line in numbered)

    def line() -> int:
        # The inner reader's count is current even when a row fails to parse.
        return numbered[reader.reader.line_num - 1][0]

    entries: dict[int, float] = {}
    try:
        header = reader.fieldnames  # None when the file has no lines
        for column in ("alpha", "probability"):
            if header is not None and column not in header:
                raise ValueError(
                    f"{path}, line {line()}: the header has no {column} column"
                )
            # DictReader would silently read the last of repeated columns.
            if header is not None and header.count(column) > 1:
                raise ValueError(
                    f"{path}, line {line()}: the header names the {column} "
                    "column more than once"
                )
        for record in reader:
            where = f"{path}, line {line()}"
            if None in record:  # DictReader files extra cells under None
                raise ValueError(f"{where}: more cells than the header has columns")
            alpha = _cell(record, "alpha", int, "an integer", where)
            probability = _cell(record, "probability", float, "a number", where)
            if alpha < 0 or alpha % 2 != 0:
                raise ValueError(
                    f"{where}, column alpha: must be even and >= 0, got {alpha}"
                )
            if alpha > sys.float_info.max:
                raise ValueError(f"{where}, column alpha: {_TOO_LARGE}")
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


_TOO_LARGE = "too large for floating-point arithmetic"


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
        if parse is int and re.fullmatch(r"\s*[+-]?\d+\s*", text):
            # Only the interpreter's digit limit refuses a decimal integer,
            # and one that long is far past float range.
            raise ValueError(f"{where}, column {column}: {_TOO_LARGE}") from None
        raise ValueError(
            f"{where}, column {column}: expected {kind}, got {text!r}"
        ) from None


def cmd_fit(args) -> str:
    if args.pdf_file is not None and args.at is None and args.gc is None:
        pdf = _read_pdf_file(args.pdf_file)
    elif args.pdf_file is None and args.at is not None and args.gc is not None:
        pdf = theoretical_pdf(_spec(args))
    else:
        raise ValueError("fit takes either --pdf-file or both --at and --gc")
    try:
        fit = fit_gaussian(pdf)
    except RuntimeError as exc:  # the least-squares search gave up
        raise ValueError(f"Gaussian fit did not converge: {exc}") from exc
    return _render(args, [fit._asdict()])


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


def cmd_sweep(args) -> str:
    if args.mode == "fixed-at":
        if args.at is None or not args.gc_values:
            raise ValueError("fixed-at sweep needs --at and --gc-values")
        if args.ratio is not None or args.n_values is not None:
            raise ValueError("fixed-at sweep takes no --ratio or --n-values")
        gc_values = _parse_int_list(args.gc_values, "--gc-values")
        sweep_rows = sweep_fixed_at(args.at, gc_values)
        columns, shared = ("n_gc",), {}
    else:
        if args.ratio is None or not args.n_values:
            raise ValueError("fixed-ratio sweep needs --ratio and --n-values")
        if args.at is not None or args.gc_values is not None:
            raise ValueError("fixed-ratio sweep takes no --at or --gc-values")
        ratio = _parse_ratio(args.ratio)
        n_values = _parse_int_list(args.n_values, "--n-values")
        result = sweep_fixed_ratio(ratio, n_values)
        sweep_rows = result.rows
        columns = ("n", "n_at", "n_gc")
        shared = {"slope": result.slope, "intercept": result.intercept}
    rows = []
    for row in sweep_rows:
        # The content columns, then the fit's cells (empty on a failed row).
        cells = {column: getattr(row, column) for column in columns}
        cells["alpha0"] = row.fit.alpha0 if row.fit else None
        cells["sigma"] = row.fit.sigma if row.fit else None
        cells["max_pg"] = row.fit.amplitude if row.fit else None
        cells["error"] = row.error
        rows.append({**cells, **shared})
    return _render(args, rows)


def cmd_oracle(args) -> str:
    buckets = enumerate_all(args.n)
    rows = [
        {"n_at": n_at, "alpha": alpha, "count": _digits(buckets[(n_at, alpha)])}
        for n_at, alpha in sorted(buckets)
    ]
    return _render(args, rows)


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
    p.set_defaults(func=cmd_mc, prng=PRNG_NAME)

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
        _write(args, args.func(args))
    except (ValueError, OSError) as exc:
        _report("error", exc)
        return USAGE_ERROR
    except IntegralityError as exc:
        _report("integrality failure", exc)
        return INTEGRALITY_ERROR
    return 0


def _report(kind: str, exc: Exception) -> None:
    """One stderr line, even for a message with line breaks in it (the
    least-squares search's failure texts have them)."""
    message = " ".join(line.strip() for line in str(exc).splitlines())
    print(f"{kind}: {message}", file=sys.stderr)


def entrypoint() -> None:
    """Run `main` and end the process without interpreter teardown.

    Tearing down the loaded modules (numpy, for the fits and Monte Carlo)
    costs milliseconds after the output is already written.  A final
    flush that fails (a closed pipe, a full disk) is a usage error,
    reported like any other; a failure to write that report is ignored.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError as exc:
        code = USAGE_ERROR
        try:
            _report("error", exc)
        except OSError:
            pass
    os._exit(code)
