"""Command-line front end.

Exact counts are emitted as decimal strings, never floats: they routinely
exceed every native wire type (10^25 and up).  CSV output starts with
``# key: value`` provenance lines unless --quiet is given; JSON mirrors
the CSV columns with a "parameters" object instead.  Identical invocations
(including seed) produce byte-identical output.

Output goes to stdout only; ``> path`` in the shell writes a file.
Exit codes: 0 success, 2 usage or validation error (a failed write and
running out of memory among them), 3 internal integrality failure (a
correctness bug, not a user error), 130 an interrupt (Ctrl-C) of the
`dna-necklace` process.

Each subcommand's options are stated once, in the `_COMMANDS` table.  A
plain command line (see `_fast_parse`) becomes the same namespace,
names, values and order, that argparse would make of it, or no result;
every other line, help and every parse error among them, goes to the
argparse parser `build_parser` builds from the table.  So argparse is
imported only on that path, and output, error text and exit code are
argparse's either way.

`main` parses, runs and writes in one ``try`` and returns every exit
code, help (0) and usage errors (2) included; only an interrupt reaches
its caller.  Commands compute every value, then write as they format;
`main` flushes once (help flushes itself), so a failed write exits 2
however stdout is buffered, and a failed write to stderr changes no exit
code.  `entrypoint` ends every run with ``os._exit``, skipping teardown.
"""

from __future__ import annotations

import itertools
import os
import sys
from types import SimpleNamespace

from .counting import (
    IntegralityError,
    NecklaceSpec,
    _digits,
    alternation_distribution,
    count_necklaces,
)
from .montecarlo import PRNG_NAME, MCConfig, _run_set, total_abs_diff
from .oracle import MAX_ENUMERATION_BITS, enumerate_all
from .stats import fit_gaussian, sweep_fixed_at, sweep_fixed_ratio, theoretical_pdf

USAGE_ERROR = 2
INTEGRALITY_ERROR = 3
INTERRUPTED = 130  # the shell's 128 + SIGINT


def _fmt(value):
    """A CSV cell: floats to 17 digits; csv writes None as "", others by `str`."""
    return format(value, ".17g") if isinstance(value, float) else value


# Namespace keys that frame a run rather than parameterize it.
_FRAME_KEYS = frozenset(("quiet", "command", "func", "format"))


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


def _render(args, rows) -> None:
    """Write a table, CSV or JSON, to stdout; columns are the first row's keys.

    Every command emits at least one row, and all its rows share one key
    order, so the first row states the columns for both formats.  CSV
    formats one row at a time; JSON holds the rows and streams their text.
    """
    out = _stdout()
    if args.format == "json":
        import json

        envelope: dict = {"command": args.command}
        if not args.quiet:
            envelope["parameters"] = _parameters(args)
        envelope["rows"] = list(rows)
        json.dump(envelope, out, indent=2)
        out.write("\n")
        return
    import csv

    out.write(_provenance(args))
    writer = csv.writer(out, lineterminator="\n")
    rows = iter(rows)
    first = next(rows)
    writer.writerow(first)
    writer.writerows(map(_fmt, row.values()) for row in itertools.chain([first], rows))


def _stdout():
    """`sys.stdout`; OSError if the process started without one."""
    if sys.stdout is None:  # started with file descriptor 1 closed
        raise OSError("standard output is closed")
    return sys.stdout


def _spec(args) -> NecklaceSpec:
    return NecklaceSpec(args.at, args.gc)


def cmd_count(args) -> None:
    count = count_necklaces(_spec(args), args.alpha)
    _stdout().write(f"{_provenance(args)}{_digits(count)}\n")


def cmd_pdf(args) -> None:
    dist = alternation_distribution(_spec(args))
    total = sum(dist.values())
    rows = (
        {"alpha": alpha, "count": _digits(dist[alpha]), "probability": dist[alpha] / total}
        for alpha in sorted(dist)
    )
    _render(args, rows)


def cmd_mc(args) -> None:
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
    _render(args, rows)


def cmd_fit(args) -> None:
    _render(args, [fit_gaussian(theoretical_pdf(_spec(args)))._asdict()])


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


def cmd_sweep(args) -> None:
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
    _render(args, rows)


def cmd_oracle(args) -> None:
    buckets = enumerate_all(args.n)
    rows = [
        {"n_at": n_at, "alpha": alpha, "count": _digits(buckets[(n_at, alpha)])}
        for n_at, alpha in sorted(buckets)
    ]
    _render(args, rows)


_QUIET = ("-q", "--quiet")

# Options shared by several subcommands, as `add_argument` keywords.
_BEADS = {
    "--at": {"type": int, "required": True, "help": "number of AT (white) beads"},
    "--gc": {"type": int, "required": True, "help": "number of GC (black) beads"},
}
_TABLE_FLAGS = {
    "--format": {"choices": ("csv", "json"), "default": "csv", "help": "output format"},
}

# Each subcommand once: its help line, its options in parser order (each
# flag with its `add_argument` keywords) and the values `set_defaults`
# adds after them.  A flag's namespace key is argparse's: the flag
# without its leading dashes, with "_" for "-".
_COMMANDS = {
    "count": (
        "exact count at one alternation number",
        {
            "--alpha": {"type": int, "required": True, "help": "alternation count (even)"},
            **_BEADS,
        },
        {"func": cmd_count},
    ),
    "pdf": (
        "theoretical alternation distribution",
        {**_BEADS, **_TABLE_FLAGS},
        {"func": cmd_pdf},
    ),
    "mc": (
        "Monte Carlo empirical distribution",
        {
            **_BEADS,
            "--runs": {"type": int, "required": True, "help": "chains per set"},
            "--seed": {"type": int, "default": 0, "help": "master seed (64-bit)"},
            "--sets": {"type": int, "default": 5, "help": "independent sets"},
            **_TABLE_FLAGS,
        },
        {"func": cmd_mc, "prng": PRNG_NAME},
    ),
    "fit": (
        "Gaussian fit of a pdf",
        {**_BEADS, **_TABLE_FLAGS},
        {"func": cmd_fit},
    ),
    "sweep": (
        "Gaussian characteristics over a parameter sweep",
        {
            "--mode": {
                "choices": ("fixed-at", "fixed-ratio"),
                "required": True,
                "help": "fixed-at: vary the GC count at a fixed AT count; "
                "fixed-ratio: vary the length at a fixed GC:AT ratio",
            },
            "--at": {"type": int, "help": "fixed-at: the constant AT count"},
            "--gc-values": {"help": "fixed-at: comma-separated GC counts"},
            "--ratio": {"help": "fixed-ratio: GC:AT, e.g. 6:1"},
            "--n-values": {"help": "fixed-ratio: comma-separated total lengths"},
            **_TABLE_FLAGS,
        },
        {"func": cmd_sweep},
    ),
    "oracle": (
        f"brute-force bucket table (N <= {MAX_ENUMERATION_BITS})",
        {"--n": {"type": int, "required": True, "help": "chain length"}, **_TABLE_FLAGS},
        {"func": cmd_oracle},
    ),
}


def build_parser():
    """The argparse parser of `_COMMANDS`; the only place argparse is imported."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # argparse's writers drop a failed write and, with stderr closed,
        # put usage errors on stdout.  Here help is output; errors stderr's.
        def print_help(self, file=None):
            print(self.format_help(), end="", file=_stdout(), flush=True)

        def _print_message(self, message, file=None):
            if sys.stderr is not None:
                sys.stderr.write(message)

    parser = Parser(
        prog="dna-necklace",
        description=(
            "Exact counts and distributions of AT/GC alternations in "
            "circular chains, with Monte Carlo validation and Gaussian fits."
        ),
    )
    parser.add_argument(
        *_QUIET, action="store_true", help="suppress the parameter echo (pipeline use)"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(**defaults)
    return parser


def _fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a plain command line, or None.

    Plain means: leading -q/--quiet tokens, one subcommand name, then
    ``--flag value`` pairs of that subcommand, each flag exact and given
    at most once, no value starting with "-", every type conversion and
    choice accepted and every required flag present.  The namespace then
    has the same names, values and order as `build_parser`'s.  None
    leaves every other line (help, errors, abbreviations, ``--flag=value``,
    negative numbers) to argparse.
    """
    start = 0
    while start < len(argv) and argv[start] in _QUIET:
        start += 1
    if start == len(argv) or argv[start] not in _COMMANDS:
        return None
    command = argv[start]
    _, options, defaults = _COMMANDS[command]
    rest = argv[start + 1 :]
    if len(rest) % 2:
        return None
    given = {}
    for flag, text in zip(rest[::2], rest[1::2]):
        keywords = options.get(flag)
        if keywords is None or flag in given or text.startswith("-"):
            return None
        value = text
        if "type" in keywords:
            try:
                value = keywords["type"](text)
            except ValueError:  # int() refuses it, and so would argparse
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
    if any(
        keywords.get("required") and flag not in given
        for flag, keywords in options.items()
    ):
        return None
    values = {"quiet": start > 0, "command": command}
    for flag, keywords in options.items():
        values[flag[2:].replace("-", "_")] = given.get(flag, keywords.get("default"))
    return SimpleNamespace(**values, **defaults)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _fast_parse(argv) or build_parser().parse_args(argv)
        args.func(args)
        _stdout().flush()
    except SystemExit as exc:  # argparse's help (0) or usage error (2)
        return exc.code
    except (ValueError, OSError) as exc:
        _report("error", exc)
        return USAGE_ERROR
    except MemoryError as exc:  # numpy's names the allocation; a bare one is empty
        _report("error", str(exc) or "out of memory")
        return USAGE_ERROR
    except IntegralityError as exc:
        _report("integrality failure", exc)
        return INTEGRALITY_ERROR
    return 0


def _report(kind: str, exc: Exception | str) -> None:
    """One stderr line, even for a message with line breaks in it (the
    least-squares search's failure texts have them); nothing if stderr is
    closed or the write fails, so the exit code already chosen stands."""
    if sys.stderr is None:  # started with file descriptor 2 closed
        return
    message = " ".join(line.strip() for line in str(exc).splitlines())
    try:
        print(f"{kind}: {message}", file=sys.stderr, flush=True)
    except OSError:
        pass


def entrypoint() -> None:
    """Run `main` and end the process without interpreter teardown.

    Tearing down the loaded modules (numpy, for the fits and Monte Carlo)
    costs milliseconds after `main` has written and flushed the output.
    An interrupt is reported as one ``error: interrupted`` line, not a
    traceback, and exits 130.
    """
    try:
        code = main()
    except KeyboardInterrupt:
        code = INTERRUPTED
        _report("error", "interrupted")
    os._exit(code)
