import ast
import contextlib
import csv
import functools
import io
import json
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dna_necklace import cli, montecarlo
from dna_necklace.counting import (
    NecklaceSpec,
    alternation_distribution,
    bracelet_count_direct,
    count_necklaces,
)
from dna_necklace.oracle import MAX_ENUMERATION_BITS
from dna_necklace.stats import DiscretePdf
from cli_harness import assert_usage_error, run_cli, run_module, run_python


def parse_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(rows))


@contextlib.contextmanager
def int_digit_limit(limit):
    """Run the block under another `str`/`int` digit limit (0: none)."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestCount:
    def test_count_past_digit_limit(self):
        # 4 507 digits: past the default limit of 4 300 on `str(int)`.
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(
            "--quiet", "count", "--alpha", "7500", "--at", "7500", "--gc", "7500"
        )
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        assert len(out.strip()) > limit
        with int_digit_limit(0):
            assert int(out) == count_necklaces(NecklaceSpec(7500, 7500), 7500)


class TestPdf:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pdf", "--format", "csv"],
            ["--quiet", "pdf", "--format", "json"],
            ["pdf", "--format", "json"],
        ],
    )
    def test_counts_past_lowered_digit_limit(self, argv):
        # The peak count of (1200, 1200) has 720 digits, past the lowest
        # limit the interpreter accepts, 640.
        with int_digit_limit(640):
            code, out, err = run_cli(*argv, "--at", "1200", "--gc", "1200")
            assert sys.get_int_max_str_digits() == 640
        assert (code, err) == (0, "")
        if "json" in argv:
            rows = json.loads(out)["rows"]
        else:
            rows = parse_csv(out)
        counts = [row["count"] for row in rows]
        assert max(map(len, counts)) > 640
        dist = alternation_distribution(NecklaceSpec(1200, 1200))
        assert [int(count) for count in counts] == [dist[a] for a in sorted(dist)]
        if "json" in argv:
            # Streamed past the goldens' sizes, the text is still the one
            # `json.dumps` makes of the whole envelope.
            total = sum(dist.values())
            envelope = {"command": "pdf"}
            if "--quiet" not in argv:
                envelope["parameters"] = {"at": 1200, "gc": 1200}
            envelope["rows"] = [
                {"alpha": a, "count": str(dist[a]), "probability": dist[a] / total}
                for a in sorted(dist)
            ]
            assert out == json.dumps(envelope, indent=2) + "\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="the probe reads Linux's VmHWM")
    def test_memory_is_bounded_by_the_output(self):
        # 1.14 MB of CSV.  Written as it is formatted, a table raises the
        # peak above a tiny one's by less than its own size: the counts
        # are held, their text is not.
        peak, size = probe("pdf", "--at", "1600", "--gc", "1600")[2:]
        assert peak - probe("pdf", "--at", "3", "--gc", "4")[2] < size


class TestMc:
    @pytest.mark.skipif(sys.platform != "linux", reason="the probe reads Linux's VmHWM")
    def test_memory_is_bounded_by_the_block_budget(self):
        # A block holds at most two budgets, its chains and their
        # comparisons; the bound allows half a budget more.  192 chains of
        # 40 000 beads run as two blocks, of 104 and 88 rows; one chain is
        # the baseline, with the same imports.
        argv = ["mc", "--at", "39990", "--gc", "10", "--sets", "1", "--runs"]
        peak, baseline = probe(*argv, "192")[2], probe(*argv, "1")[2]
        assert peak - baseline < 2.5 * montecarlo._BLOCK_BYTES

    def test_out_of_memory_is_a_usage_error(self):
        # 10^10 beads need a 9.31 GiB array.  Never run this case without the
        # address-space limit, which makes the allocation fail at once.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        argv = ["mc", "--at", "10000000000", "--gc", "1", "--runs", "1", "--sets", "1"]
        proc = run_module(*argv, preexec_fn=limit_memory)
        assert_usage_error(proc, "error: Unable to allocate 9.31 GiB")


class TestFit:
    def test_flat_pdf_is_a_usage_error(self):
        # (3, 3) has three equally likely alternation values: the fitted
        # width runs off to ~4.5e4 over a support of span 4.  A real process,
        # so that any warning printed along the way would show on stderr.
        proc = run_module("--quiet", "fit", "--at", "3", "--gc", "3")
        assert_usage_error(proc, "exceeds the support span")
        assert "Warning" not in proc.stderr

    def test_line_broken_message_is_one_line(self, monkeypatch):
        # The least-squares search's failure texts break their lines, as
        # scipy's do; `_report` joins them into the one `error:` line.
        def fit_gaussian(pdf):
            raise ValueError("did not converge:\n  the Jacobian\nis singular")

        monkeypatch.setattr(cli, "fit_gaussian", fit_gaussian)
        result = run_cli("fit", "--at", "5", "--gc", "5")
        assert_usage_error(result, "error: did not converge: the Jacobian is singular\n")

    @pytest.mark.parametrize(
        "values, reason",
        [
            (("1e308", "1e308", "1e308"), "start moments not finite"),
            (("1e200", "3e200", "1e200"), "fit residual not finite"),
        ],
    )
    def test_overflowing_fit_is_a_usage_error(self, monkeypatch, values, reason):
        # Finite probabilities whose moments or residuals overflow float64,
        # put in place of the exact pdf.  A warning numpy raised along the
        # way would be a second stderr line, so none may be raised.
        pdf = DiscretePdf(dict(zip((0, 2, 4), map(float, values))), "theoretical")
        monkeypatch.setattr(cli, "theoretical_pdf", lambda spec: pdf)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_cli("--quiet", "fit", "--at", "2", "--gc", "2")
        assert_usage_error(result, reason)
        assert caught == []


class TestSweep:
    def test_flat_pdf_row_is_an_error_row(self):
        code, out, err = run_cli(
            "--quiet", "sweep", "--mode", "fixed-at",
            "--at", "3", "--gc-values", "3,5",
        )
        assert code == 0
        assert err == ""
        flat, peaked = parse_csv(out)
        assert flat["n_gc"] == "3"
        assert flat["alpha0"] == flat["sigma"] == flat["max_pg"] == ""
        assert "exceeds the support span" in flat["error"]
        assert peaked["error"] == ""
        assert float(peaked["sigma"]) < 6


class TestOracleCommand:
    def test_largest_length_accepted(self):
        n = MAX_ENUMERATION_BITS
        code, out, _ = run_cli("--quiet", "oracle", "--n", str(n))
        assert code == 0
        total = sum(int(r["count"]) for r in parse_csv(out))
        assert total == sum(
            bracelet_count_direct(NecklaceSpec(k, n - k)) for k in range(n + 1)
        )


def _params(rows):
    """pytest parameters of table rows whose first item is the id."""
    return [pytest.param(*row[1:], id=row[0]) for row in rows]


# Command lines `cli.main` refuses, as (id, argv, a fragment of the one
# `error:` line).
_REFUSED_ARGV = [
    ("count-odd-alpha", ["count", "--alpha", "3", "--at", "5", "--gc", "5"], "must be even"),
    ("count-empty", ["count", "--alpha", "0", "--at", "0", "--gc", "0"], "empty necklace"),
    ("mc-zero-runs", ["mc", "--at", "2", "--gc", "2", "--runs", "0"], "runs must be >= 1"),
    ("fit-tiny-support", ["fit", "--at", "1", "--gc", "1"], "support too small"),
    ("fit-no-input", ["fit"], "the following arguments are required: --at, --gc\n"),
    # (5, 640) has 96.9 % of its mass on its last point, 10; the curve
    # through its points peaks past it.
    ("fit-centre-outside", ["fit", "--at", "5", "--gc", "640"],
     "error: fitted centre 14.7469 lies outside the support [2, 10]: "
     "the pdf has no peak to fit\n"),
    ("sweep-no-gc-values", ["sweep", "--mode", "fixed-at"], "--gc-values"),
    ("sweep-no-n-values", ["sweep", "--mode", "fixed-ratio", "--ratio", "2:1"], "--n-values"),
    ("sweep-ratio-not-gc-at",
     ["sweep", "--mode", "fixed-ratio", "--ratio", "2", "--n-values", "80"], "GC:AT"),
    ("sweep-ratio-not-integers",
     ["sweep", "--mode", "fixed-ratio", "--ratio", "a:b", "--n-values", "80"],
     "--ratio expects integers"),
    ("oracle-n-19", ["oracle", "--n", "19"], "1 <= n <= 18, got 19"),
    # Output goes to stdout only; the shell's `>` writes a file.
    ("pdf-out", ["pdf", "--at", "2", "--gc", "2", "--out", "missing/x.csv"],
     "unrecognized arguments: --out missing/x.csv"),
]


@pytest.mark.parametrize("argv, fragment", _params(_REFUSED_ARGV))
def test_refused_command_line(argv, fragment):
    assert_usage_error(run_cli(*argv), fragment)


# Runs `import dna_necklace` or, given arguments, `cli.main(["--quiet",
# ...])`, which must return 0 (help included), then prints three stderr
# lines: the loaded ones of numpy and scipy, the modules the run added
# (within one fresh process, so whatever `site` loads at start-up is not
# counted) and the peak resident set (KiB on Linux).  The peak is Linux's
# VmHWM, this process image's own: ru_maxrss also holds the peak of the
# test process, which a child started by vfork and exec inherits.
PROBE = """
import os, resource, sys
before = set(sys.modules)
if sys.argv[1:]:
    from dna_necklace import cli
    assert cli.main(["--quiet", *sys.argv[1:]]) == 0
else:
    import dna_necklace
print(",".join(m for m in ("numpy", "scipy") if m in sys.modules), file=sys.stderr)
print(",".join(sorted(set(sys.modules) - before)), file=sys.stderr)
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        print(status.read().split("VmHWM:")[1].split()[0], file=sys.stderr)
else:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""


@functools.cache
def probe(*argv):
    """(loaded libraries, added modules, peak RSS in bytes, stdout size in
    bytes) of a probe child."""
    proc = run_python("-c", PROBE, *argv, check=True)
    libraries, added, kib = proc.stderr.splitlines()
    return libraries, set(added.split(",")), int(kib) * 1024, len(proc.stdout.encode())


# Probe rows: the package import, then one line of each command, with the
# libraries each loads.
_PROBE_ROWS = [
    ([], ""),
    (["count", "--alpha", "10", "--at", "8", "--gc", "6"], ""),
    (["pdf", "--at", "3", "--gc", "4"], ""),
    (["oracle", "--n", "4"], ""),
    (["mc", "--at", "3", "--gc", "4", "--runs", "10", "--sets", "1"], "numpy"),
    (["fit", "--at", "5", "--gc", "5"], "numpy"),
    (["sweep", "--mode", "fixed-at", "--at", "5", "--gc-values", "5"], "numpy"),
    (["sweep", "--mode", "fixed-ratio", "--ratio", "1:1", "--n-values", "8,10"], "numpy"),
]


class TestImportBoundary:
    """Counting needs neither library, Monte Carlo and the fits need numpy,
    and nothing needs scipy.  Nor does counting load the heavier standard
    modules (json only writes JSON output), a count loads no csv (which
    only writes tables), and no plain command line loads argparse."""

    @pytest.mark.parametrize("argv, loaded", _PROBE_ROWS)
    def test_libraries_loaded(self, argv, loaded):
        assert probe(*argv)[0] == loaded

    @pytest.mark.parametrize("argv", [argv for argv, _ in _PROBE_ROWS])
    def test_no_argument_parser(self, argv):
        # Importing argparse, and building its parsers, which loads gettext
        # and locale, is a large share of a command's start-up.
        assert probe(*argv)[1] & {"argparse", "gettext", "locale"} == set()

    def test_help_loads_argparse(self):
        assert "argparse" in probe("--help")[1]

    @pytest.mark.parametrize("argv", [argv for argv, loaded in _PROBE_ROWS if not loaded])
    def test_no_heavy_standard_modules(self, argv):
        added = probe(*argv)[1]
        assert "dna_necklace" in added
        heavy = {"dataclasses", "inspect", "fractions", "decimal", "typing", "json"}
        assert added & heavy == set()

    def test_count_loads_no_csv(self):
        (argv,) = (argv for argv, _ in _PROBE_ROWS if argv[:1] == ["count"])
        added = probe(*argv)[1]
        assert "dna_necklace" in added
        assert added & {"csv", "_csv"} == set()


SMALL_COUNT = ["count", "--alpha", "26", "--at", "21", "--gc", "64"]
# 78 520 bytes: more than a pipe holds (64 KiB on Linux).
LARGE_PDF = ["--quiet", "pdf", "--at", "400", "--gc", "400"]

# Runs `cli.entrypoint` with the count rigged to fail integrality.
RIGGED_ENTRYPOINT = """
from dna_necklace import cli
from dna_necklace.counting import IntegralityError

def count_necklaces(spec, alpha):
    raise IntegralityError("rigged")

cli.count_necklaces = count_necklaces
cli.entrypoint()
"""

# Runs `cli.entrypoint` with the count interrupted as Ctrl-C would.
INTERRUPTED_ENTRYPOINT = """
import signal

from dna_necklace import cli

def count_necklaces(spec, alpha):
    # A child of a shell that ignores SIGINT (a job put in the background
    # with `&`) inherits SIG_IGN; restore Python's handler so the signal
    # interrupts.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.raise_signal(signal.SIGINT)

cli.count_necklaces = count_necklaces
cli.entrypoint()
"""


def _module(*argv):
    return ["-m", "dna_necklace", *argv]


_RIGGED = ["-c", RIGGED_ENTRYPOINT, *SMALL_COUNT]
# `cli` refuses an odd alternation count; argparse a missing flag.
_REFUSED = _module("count", "--alpha", "3", "--at", "1", "--gc", "1")
_ARGPARSE_REFUSED = _module("count")
_BROKEN = "error: [Errno 32] Broken pipe\n"
_NO_SPACE = "error: [Errno 28] No space left on device\n"
_STDOUT_CLOSED = "error: standard output is closed\n"


def _row(name, program, unbuffered, out, err, expected):
    """One child run: `program` after ``python`` (and ``-u`` if
    `unbuffered`), its stdout and stderr targets, and the (exit code,
    stdout, stderr) it must end with."""
    needs_full = pytest.mark.skipif(
        "full" in (out, err) and not os.path.exists("/dev/full"),
        reason="no /dev/full device",
    )
    return pytest.param(program, unbuffered, out, err, expected, id=name, marks=needs_full)


# Whatever stdout and stderr are, a run exits 0, 2, 3 or 130, writes at
# most one line, to stderr, and nothing to stdout when it fails.
_CHILD_EXITS = [
    # The small count and the help text fail at `main`'s flush, the pdf
    # (more than a pipe holds) while it is written.
    _row("count-closed-pipe", _module(*SMALL_COUNT), False, "closed-pipe", "pipe",
         (2, None, _BROKEN)),
    _row("pdf-closed-pipe", _module(*LARGE_PDF), False, "closed-pipe", "pipe",
         (2, None, _BROKEN)),
    _row("help-closed-pipe", _module("--help"), False, "closed-pipe", "pipe",
         (2, None, _BROKEN)),
    _row("count-stdout-full", _module(*SMALL_COUNT), False, "full", "pipe",
         (2, None, _NO_SPACE)),
    _row("help-stdout-full", _module("--help"), False, "full", "pipe",
         (2, None, _NO_SPACE)),
    _row("help-stdout-full-u", _module("--help"), True, "full", "pipe",
         (2, None, _NO_SPACE)),
    _row("count-both-full-u", _module(*SMALL_COUNT), True, "full", "full",
         (2, None, None)),
    _row("count-stdout-closed", _module(*SMALL_COUNT), False, "closed", "pipe",
         (2, "", _STDOUT_CLOSED)),
    _row("help-stdout-closed", _module("--help"), False, "closed", "pipe",
         (2, "", _STDOUT_CLOSED)),
    _row("refused-stderr-full", _REFUSED, False, "pipe", "full", (2, "", None)),
    _row("refused-stderr-full-u", _REFUSED, True, "pipe", "full", (2, "", None)),
    _row("argparse-refused-stderr-full", _ARGPARSE_REFUSED, False, "pipe", "full",
         (2, "", None)),
    _row("refused-stderr-closed", _REFUSED, False, "pipe", "closed", (2, "", "")),
    _row("refused-stderr-closed-u", _REFUSED, True, "pipe", "closed", (2, "", "")),
    _row("argparse-refused-stderr-closed", _ARGPARSE_REFUSED, False, "pipe", "closed",
         (2, "", "")),
    _row("integrality", _RIGGED, False, "pipe", "pipe",
         (3, "", "integrality failure: rigged\n")),
    _row("integrality-stderr-full", _RIGGED, False, "pipe", "full", (3, "", None)),
    _row("integrality-stderr-full-u", _RIGGED, True, "pipe", "full", (3, "", None)),
    _row("interrupted", ["-c", INTERRUPTED_ENTRYPOINT, *SMALL_COUNT], False, "pipe",
         "pipe", (130, "", "error: interrupted\n")),
]


class TestEntrypoint:
    """A `python -m dna_necklace` process ends in `cli.entrypoint`, which
    runs `cli.main` and then calls `os._exit`."""

    @pytest.mark.parametrize("argv", [SMALL_COUNT, LARGE_PDF], ids=["count", "pdf"])
    def test_output_survives_the_exit(self, argv):
        _, expected, _ = run_cli(*argv)
        proc = run_module(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

    @pytest.mark.parametrize("program, unbuffered, out, err, expected", _CHILD_EXITS)
    def test_child_exit_contract(self, program, unbuffered, out, err, expected):
        # Each stream is captured ("pipe"), a pipe whose reader closed its
        # end before the child started ("closed-pipe"), /dev/full, where
        # every write fails ("full"), or captured but closed in the child
        # before the interpreter starts ("closed"), so that `sys.stdout` or
        # `sys.stderr` is None there.  A stream that is not captured reads
        # None.
        targets, closed = {}, []
        with contextlib.ExitStack() as stack:
            for fd, kind in ((1, out), (2, err)):
                if kind in ("pipe", "closed"):
                    targets[fd] = subprocess.PIPE
                    if kind == "closed":
                        closed.append(fd)
                elif kind == "full":
                    targets[fd] = stack.enter_context(open("/dev/full", "w"))
                else:
                    read_end, targets[fd] = os.pipe()
                    os.close(read_end)
                    stack.callback(os.close, targets[fd])
            proc = run_python(
                *(["-u"] if unbuffered else []),
                *program,
                stdout=targets[1],
                stderr=targets[2],
                preexec_fn=(lambda: [os.close(fd) for fd in closed]) if closed else None,
            )
        assert (proc.returncode, proc.stdout, proc.stderr) == expected

    def test_main_returns_help_and_usage_codes(self, monkeypatch):
        # argparse ends help and its usage errors with SystemExit; `main`
        # returns that code, so `entrypoint` exits as for any run.  Only
        # an interrupt reaches `main`'s caller.
        assert run_cli("--help")[0] == 0
        code, out, err = run_cli("count")
        assert (code, out) == (2, "")
        assert "error: the following arguments are required" in err
        def interrupted(spec, alpha):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "count_necklaces", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli(*SMALL_COUNT)

    def test_only_the_entrypoint_ends_the_process(self):
        # Where the package may name each of these, by attribute, name or
        # import, as (file, enclosing functions).  `os._exit` skips its
        # caller's cleanup and unflushed output, so only the entrypoint
        # calls it; every refused fit is a ValueError; only `main`
        # catches argparse's SystemExit, to return its code; and only
        # `_report` and argparse's writer write to stderr, so that no
        # failed write there raises past `main`'s handlers.
        allowed = {
            "_exit": {("cli.py", "entrypoint")},
            "RuntimeError": set(),
            "SystemExit": {("cli.py", "main")},
            "stderr": {("cli.py", "_report"), ("cli.py", "build_parser", "_print_message")},
        }
        places = {name: set() for name in allowed}
        for path in sorted(Path(cli.__file__).parent.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            functions = [
                node
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            for node in ast.walk(tree):
                name = (
                    node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias)
                    else None
                )
                if name in places:
                    enclosing = [
                        f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno
                    ]
                    places[name].add((path.name, *enclosing))
        assert places == allowed


def _command(name, required=(), optional=()):
    """argv for one subcommand: every required flag, each optional one maybe."""
    parts = [value.map(lambda v, f=flag: [f, v]) for flag, value in required]
    parts += [
        st.one_of(st.just([]), value.map(lambda v, f=flag: [f, v]))
        for flag, value in optional
    ]
    return st.tuples(*parts).map(
        lambda drawn: [name] + [token for part in drawn for token in part]
    )


def _ints(low, high):
    return st.integers(low, high).map(str)


_COUNT = _ints(-3, 30)
_INT_LIST = st.one_of(
    st.lists(st.integers(-3, 30), max_size=4).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["x", "1,,2", " , ", "2.5"]),
)
_RATIO = st.one_of(
    st.tuples(st.integers(-1, 7), st.integers(-1, 7)).map(lambda t: f"{t[0]}:{t[1]}"),
    st.sampled_from(["2", "a:b", "1:2:3", ""]),
)
# Valid lengths stop at 14 so that no drawn vector costs seconds;
# TestOracleCommand runs the largest accepted length once.
_ORACLE_N = st.one_of(_ints(1, 14), st.sampled_from(["-1", "0", "19", "20"]))
# What `cmd_sweep` demands beyond argparse: the two flags each --mode
# needs.  A new mode without a row fails at import.
_SWEEP_NEEDS = {
    "fixed-at": ("--at", "--gc-values"),
    "fixed-ratio": ("--ratio", "--n-values"),
}
# The values drawn for each flag without `choices`; a new such option
# needs an entry here.
_VALUES = {
    "--alpha": _ints(-4, 40),
    "--at": _COUNT,
    "--gc": _COUNT,
    "--runs": _ints(-1, 200),
    "--seed": st.integers(-1, 2**64).map(str),
    "--sets": _ints(-1, 4),
    "--gc-values": _INT_LIST,
    "--ratio": _RATIO,
    "--n-values": _INT_LIST,
    "--n": _ORACLE_N,
}


def _values(flag, keywords):
    """A flag's value strategy: its `choices`, else its `_VALUES` entry."""
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if flag not in _VALUES:
        raise LookupError(f"{flag} has no choices and no _VALUES entry")
    return _VALUES[flag]


def _commands():
    """One `_command` per `cli._COMMANDS` entry, and per --mode of sweep:
    the required flags, and those the mode needs, always; every other
    flag maybe."""
    for name, (_, options, _) in cli._COMMANDS.items():
        modes = options["--mode"]["choices"] if "--mode" in options else (None,)
        for mode in modes:
            needs = _SWEEP_NEEDS[mode] if mode else ()
            required, optional = [], []
            for flag, keywords in options.items():
                if flag == "--mode":
                    required.append((flag, st.just(mode)))
                elif keywords.get("required") or flag in needs:
                    required.append((flag, _values(flag, keywords)))
                else:
                    optional.append((flag, _values(flag, keywords)))
            yield _command(name, required, optional)


_ARGV = st.tuples(st.sampled_from([[], ["--quiet"]]), st.one_of(*_commands())).map(
    lambda t: t[0] + t[1]
)


class TestExitCodeContract:
    @settings(max_examples=200)
    @given(argv=_ARGV)
    def test_every_argv_exits_zero_two_or_three(self, argv):
        code, out, err = result = run_cli(*argv)
        assert code in (0, 2, 3), (argv, (out + err)[-500:])
        if code == 2:
            assert_usage_error(result, "")
        # Identical invocations give byte-identical output.
        assert run_cli(*argv)[:2] == (code, out), argv


@functools.cache
def _parser():
    return cli.build_parser()


def _argparse_items(argv):
    """The items of argparse's namespace for `argv`, or None if it exits."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return list(vars(_parser().parse_args(argv)).items())
        except SystemExit:
            return None


# Tokens that argparse reads its own way.  Names: the commands, every flag
# and each of its abbreviations.  Values: `--flag=value`, help, "--",
# negative numbers, numbers `int()` reads (" 5", "1_0", "٣") or refuses
# ("²", past the digit limit) whatever `str.isdigit` says, and a few
# values a flag accepts.
_SOUP_NAMES = sorted(
    set(cli._COMMANDS)
    | {
        flag[:end]
        for _, options, _ in cli._COMMANDS.values()
        for flag in [*options, "--quiet", "--help"]
        for end in range(3, len(flag) + 1)
    }
)
_SOUP_VALUES = ["--at=3", "-q", "-h", "--", "-3", "+5", " 5", "1_0", "²", "٣", "9" * 4400]
_SOUP_VALUES += ["3", "12", "6:1", "1,2", "csv", "json", "fixed-at", ""]
_SOUP = _SOUP_NAMES + _SOUP_VALUES


@st.composite
def _soup_lines(draw):
    """Quiet tokens, a command and most of its flags in any order, each
    with a value that fits it or one from the soup, and maybe one more
    soup token anywhere."""
    tokens = draw(st.lists(st.sampled_from(["-q", "--quiet"]), max_size=2))
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    tokens.append(command)
    options = cli._COMMANDS[command][1]
    for flag in draw(st.permutations(sorted(options))):
        fitting = st.sampled_from(options[flag].get("choices", ["12"]))
        if draw(st.integers(0, 3)):
            tokens += [flag, draw(st.one_of(fitting, st.sampled_from(_SOUP_VALUES)))]
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_SOUP)))
    return tokens


# The six command shapes perfbench's cli-cold workload times.
_CLI_COLD = [
    ["--quiet", "count", "--alpha", "10", "--at", "37", "--gc", "52"],
    ["pdf", "--at", "7", "--gc", "55", "--format", "json"],
    ["--quiet", "fit", "--at", "41", "--gc", "33", "--format", "csv"],
    ["sweep", "--mode", "fixed-ratio", "--ratio", "6:1", "--n-values", "42,84,126,168",
     "--format", "csv"],
    ["mc", "--at", "20", "--gc", "61", "--runs", "1500", "--seed", str(2**64 - 1),
     "--sets", "3", "--format", "json"],
    ["--quiet", "oracle", "--n", "12", "--format", "csv"],
]


class TestFastPath:
    """`cli._fast_parse` makes argparse's namespace of a plain line, or
    leaves the line to argparse."""

    @settings(max_examples=500)
    @given(
        argv=st.one_of(
            _ARGV, _soup_lines(), st.lists(st.sampled_from(_SOUP), max_size=12)
        )
    )
    def test_agrees_with_argparse(self, argv):
        fast = cli._fast_parse(argv)
        if fast is not None:  # so also None wherever argparse exits
            assert list(vars(fast).items()) == _argparse_items(argv), argv

    @pytest.mark.parametrize(
        "argv", _CLI_COLD, ids=["count", "pdf", "fit", "sweep", "mc", "oracle"]
    )
    def test_benchmark_lines_take_it(self, argv):
        fast = cli._fast_parse(argv)
        assert fast is not None
        assert list(vars(fast).items()) == _argparse_items(argv)


def test_every_option_has_help_text():
    # --quiet, and each option of every `_COMMANDS` entry.
    parser = _parser()
    (commands,) = (action for action in parser._actions if action.dest == "command")
    assert list(commands.choices) == list(cli._COMMANDS)
    undescribed = [
        (name, action.option_strings)
        for name, command_parser in [("", parser), *commands.choices.items()]
        for action in command_parser._actions
        if action.option_strings and not (action.help or "").strip()
    ]
    assert undescribed == []


def test_readme_names_only_real_options():
    # A removed option must not stay documented.  Besides the program's
    # options, README names pip's --no-build-isolation and the prose
    # placeholder --flag.
    options = {"--help", "--quiet", "--no-build-isolation", "--flag"}
    options |= {flag for _, flags, _ in cli._COMMANDS.values() for flag in flags}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme)) - options == set()
