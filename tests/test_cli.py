import ast
import contextlib
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dna_necklace import cli
from dna_necklace.counting import (
    NecklaceSpec,
    alternation_distribution,
    bracelet_count_direct,
    count_necklaces,
)
from dna_necklace.oracle import MAX_ENUMERATION_BITS
from cli_harness import assert_usage_error, child_env, run_cli, run_module


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
    def test_odd_alpha_rejected(self):
        result = run_cli("count", "--alpha", "3", "--at", "5", "--gc", "5")
        assert_usage_error(result, "must be even")

    def test_empty_spec_rejected(self):
        result = run_cli("count", "--alpha", "0", "--at", "0", "--gc", "0")
        assert_usage_error(result, "empty necklace")

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

    def test_out_file_matches_stdout(self, tmp_path):
        path = tmp_path / "pdf.csv"
        run_cli("--quiet", "pdf", "--at", "5", "--gc", "7", "--out", str(path))
        _, out, _ = run_cli("--quiet", "pdf", "--at", "5", "--gc", "7")
        assert path.read_text() == out

    @pytest.mark.parametrize("target", ["missing/x.csv", ""], ids=["no-folder", "folder"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, target):
        path = tmp_path / target
        result = run_cli("pdf", "--at", "2", "--gc", "2", "--out", str(path))
        assert_usage_error(result, str(path))
        assert list(tmp_path.iterdir()) == []


class TestMc:
    def test_zero_runs_rejected(self):
        result = run_cli("mc", "--at", "2", "--gc", "2", "--runs", "0")
        assert_usage_error(result, "runs must be >= 1")


class TestFit:
    def test_tiny_support_rejected(self):
        assert_usage_error(run_cli("fit", "--at", "1", "--gc", "1"), "support too small")

    def test_missing_inputs_rejected(self):
        assert_usage_error(run_cli("fit"), "--pdf-file")

    def test_pdf_file_and_content_rejected(self, tmp_path):
        # A readable file, so that only the mix of inputs is at fault.
        path = tmp_path / "pdf.csv"
        code, _, _ = run_cli("pdf", "--at", "10", "--gc", "10", "--out", str(path))
        assert code == 0
        for content in (["--at", "10", "--gc", "10"], ["--gc", "10"]):
            assert_usage_error(
                run_cli("fit", "--pdf-file", str(path), *content),
                "error: fit takes either --pdf-file or both --at and --gc\n",
            )

    def test_fit_from_synthetic_file(self, tmp_path):
        path = tmp_path / "gauss.csv"
        lines = ["alpha,probability"]
        for alpha in range(30, 71, 2):
            p = 0.08 * math.exp(-((alpha - 50.0) ** 2) / (2 * 5.0**2))
            lines.append(f"{alpha},{p!r}")
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli("--quiet", "fit", "--pdf-file", str(path))
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["alpha0"]) - 50.0) < 1e-6 * 50.0
        assert abs(float(row["sigma"]) - 5.0) < 1e-6 * 5.0
        assert abs(float(row["amplitude"]) - 0.08) < 1e-6 * 0.08

    def test_fit_from_pdf_command_output(self, tmp_path):
        path = tmp_path / "pdf.csv"
        run_cli("pdf", "--at", "50", "--gc", "50", "--out", str(path))
        code, out, _ = run_cli("--quiet", "fit", "--pdf-file", str(path))
        assert code == 0
        _, direct, _ = run_cli("--quiet", "fit", "--at", "50", "--gc", "50")
        file_row, direct_row = parse_csv(out)[0], parse_csv(direct)[0]
        assert abs(float(file_row["alpha0"]) - float(direct_row["alpha0"])) < 1e-9

    def test_non_converging_fit_is_a_usage_error(self, tmp_path):
        path = tmp_path / "spiky.csv"
        path.write_text("alpha,probability\n2,1\n4,0\n6,1\n8,0\n10,1e-300\n")
        assert_usage_error(run_cli("fit", "--pdf-file", str(path)), "did not converge")

    def test_line_broken_failure_text_is_one_error_line(self, tmp_path):
        # The search stops on MINPACK info 8, whose message (worded as
        # scipy's) breaks its line before "the Jacobian".
        path = tmp_path / "stalled.csv"
        rows = ["0,0.9", "4,0.9", "18,4.9406564584e-314", "22,1e-15", "36,1e-300"]
        path.write_text("\n".join(["alpha,probability", *rows]) + "\n")
        assert_usage_error(
            run_cli("fit", "--pdf-file", str(path)),
            "func(x) is orthogonal to the columns of the Jacobian to machine precision.\n",
        )

    def test_flat_pdf_is_a_usage_error(self):
        # (3, 3) has three equally likely alternation values: the fitted
        # width runs off to ~4.5e4 over a support of span 4.  A real process,
        # so that any warning printed along the way would show on stderr.
        proc = run_module("--quiet", "fit", "--at", "3", "--gc", "3")
        assert_usage_error(proc, "exceeds the support span")
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize(
        "values, reason",
        [
            (("1e308", "1e308", "1e308"), "start moments not finite"),
            (("1e200", "3e200", "1e200"), "fit residual not finite"),
        ],
    )
    def test_overflowing_fit_is_a_usage_error(self, tmp_path, values, reason):
        # Finite probabilities whose moments or residuals overflow float64.
        # A real process, so that numpy's overflow warnings would show.
        path = tmp_path / "huge.csv"
        rows = [f"{alpha},{p}" for alpha, p in zip((0, 2, 4), values)]
        path.write_text("\n".join(["alpha,probability", *rows]) + "\n")
        proc = run_module("--quiet", "fit", "--pdf-file", str(path))
        assert_usage_error(proc, reason)
        assert "Warning" not in proc.stderr

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "# exported\nalpha,probability\n0,0.2\n2,0.6\n4,0.2\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        _, expected, _ = run_cli("--quiet", "fit", "--pdf-file", str(plain))
        code, out, err = run_cli("--quiet", "fit", "--pdf-file", str(marked))
        assert code == 0, err
        assert out == expected

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.25"])
    def test_bad_probability_rejected(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        rows = ["alpha,probability", "2,0.2", f"4,{value}", "6,0.5", "8,0.3"]
        path.write_text("\n".join(rows) + "\n")
        assert_usage_error(run_cli("fit", "--pdf-file", str(path)), "finite and >= 0")

    @pytest.mark.parametrize(
        "alpha, message",
        [
            ("3", "must be even and >= 0"),
            ("-2", "must be even and >= 0"),
            # int() refuses more digits than the interpreter's limit.
            ("2" * 5000, "too large for floating-point arithmetic\n"),
        ],
        ids=["3", "-2", "past-digit-limit"],
    )
    def test_bad_alpha_rejected(self, tmp_path, alpha, message):
        path = tmp_path / "bad.csv"
        rows = ["alpha,probability", "2,0.2", f"{alpha},0.1", "6,0.5", "8,0.3"]
        path.write_text("\n".join(rows) + "\n")
        result = run_cli("fit", "--pdf-file", str(path))
        assert_usage_error(result, f"line 3, column alpha: {message}")

    def test_repeated_alpha_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        rows = ["alpha,probability", "2,0.2", "4,0.5", "4,0.01", "6,0.3"]
        path.write_text("\n".join(rows) + "\n")
        assert_usage_error(run_cli("fit", "--pdf-file", str(path)), "more than once")

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,0.2", "2"], "line 4, column probability: missing cell"),
            (["0,0.2", "2,"], "line 4, column probability: empty cell"),
            ([" ,0.2"], "line 3, column alpha: empty cell"),
            (["2.0,0.2"], "line 3, column alpha: expected an integer, got '2.0'"),
            (["2,x"], "line 3, column probability: expected a number, got 'x'"),
            (["0,0.2", "3,0.1"], "line 4, column alpha: must be even and >= 0, got 3"),
            (["2,0.2", "2,0.1"], "line 4, column alpha: 2 appears more than once"),
            (["2,nan"], "line 3, column probability: must be finite and >= 0, got nan"),
            (
                [f"{10**309},0.2"],
                "line 3, column alpha: too large for floating-point arithmetic",
            ),
            # The csv module refuses cells over its field size limit.
            (["0," + "1" * 200_000], "line 3: field larger than field limit"),
            (["0,0.2", "4,0.1,7"], "line 4: more cells than the header has columns"),
        ],
    )
    def test_rejected_row_names_file_line_and_column(
        self, tmp_path, rows, message
    ):
        # Line numbers count the comment line the reader skips.
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["# exported", "alpha,probability", *rows]) + "\n")
        result = run_cli("fit", "--pdf-file", str(path))
        assert_usage_error(result, f"error: {path}, {message}")

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"\xffalpha,probability\n0,0.2\n", 1),
            # \r\n and a lone \r each end a line.
            (b"alpha,probability\r\n0,0.2\r2,\xff\n", 3),
        ],
        ids=["header", "row"],
    )
    def test_non_utf8_file_names_file_and_line(self, tmp_path, data, line):
        path = tmp_path / "latin.csv"
        path.write_bytes(data)
        result = run_cli("fit", "--pdf-file", str(path))
        assert_usage_error(result, f"error: {path}, line {line}: not UTF-8 text (byte 0xff")

    def test_subnormal_pdf_is_a_usage_error(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("alpha,probability\n0,1e-320\n2,2e-320\n4,1e-320\n")
        assert_usage_error(
            run_cli("fit", "--pdf-file", str(path)),
            "error: largest probability subnormal (peak = 2e-320): the pdf values "
            "are too small for floating-point arithmetic\n",
        )

    def test_header_without_a_column_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,p\n0,0.2\n2,0.6\n4,0.2\n")
        assert_usage_error(
            run_cli("fit", "--pdf-file", str(path)),
            f"error: {path}, line 1: the header has no probability column\n",
        )

    @pytest.mark.parametrize("column", ["alpha", "probability"])
    def test_header_naming_a_column_twice_is_rejected(self, tmp_path, column):
        # Read as a dict, the row would keep only the last such column.
        path = tmp_path / "twice.csv"
        path.write_text(f"alpha,probability,{column}\n0,0.2,10\n2,0.6,12\n4,0.2,14\n")
        assert_usage_error(
            run_cli("fit", "--pdf-file", str(path)),
            f"error: {path}, line 1: the header names the {column} column more than once\n",
        )


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

    def test_missing_mode_arguments_rejected(self):
        assert_usage_error(run_cli("sweep", "--mode", "fixed-at"), "--gc-values")
        result = run_cli("sweep", "--mode", "fixed-ratio", "--ratio", "2:1")
        assert_usage_error(result, "--n-values")
        result = run_cli("sweep", "--mode", "fixed-ratio", "--ratio", "2", "--n-values", "80")
        assert_usage_error(result, "GC:AT")


class TestOracleCommand:
    def test_out_of_range_rejected(self):
        assert_usage_error(run_cli("oracle", "--n", "19"), "1 <= n <= 18, got 19")
        assert_usage_error(run_cli("oracle", "--n", "0"), "1 <= n <= 18, got 0")

    def test_largest_length_accepted(self):
        n = MAX_ENUMERATION_BITS
        code, out, _ = run_cli("--quiet", "oracle", "--n", str(n))
        assert code == 0
        total = sum(int(r["count"]) for r in parse_csv(out))
        assert total == sum(
            bracelet_count_direct(NecklaceSpec(k, n - k)) for k in range(n + 1)
        )


# Prints two stderr lines: which of numpy and scipy are loaded, and which
# modules `import dna_necklace` or, given arguments, a `python -m
# dna_necklace --quiet ...` run added to those loaded before it: a difference
# within one fresh process, so it holds whatever start-up (`site`) loads.
# The run ends in `os._exit`, which skips `atexit` handlers, so the probe
# reports from a wrapper around it too.
IMPORT_PROBE = """
import atexit, os, runpy, sys
before = set(sys.modules)

@atexit.register
def report():
    print(",".join(m for m in ("numpy", "scipy") if m in sys.modules), file=sys.stderr)
    print(",".join(sorted(set(sys.modules) - before)), file=sys.stderr)
    sys.stderr.flush()

hard_exit = os._exit

def _exit(code):
    report()
    hard_exit(code)

os._exit = _exit

if sys.argv[1:]:
    sys.argv[1:1] = ["--quiet"]
    runpy.run_module("dna_necklace", run_name="__main__", alter_sys=True)
else:
    import dna_necklace
"""


class TestImportBoundary:
    """Counting needs neither library, Monte Carlo and the fits need numpy,
    and nothing needs scipy.  Nor does counting load the heavier standard
    modules (json only writes JSON output)."""

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            ([], ""),
            (["count", "--alpha", "10", "--at", "8", "--gc", "6"], ""),
            (["pdf", "--at", "3", "--gc", "4"], ""),
            (["oracle", "--n", "4"], ""),
            (["mc", "--at", "3", "--gc", "4", "--runs", "10", "--sets", "1"], "numpy"),
            (["fit", "--at", "5", "--gc", "5"], "numpy"),
            (["sweep", "--mode", "fixed-at", "--at", "5", "--gc-values", "5"], "numpy"),
            (["sweep", "--mode", "fixed-ratio", "--ratio", "1:1", "--n-values", "8,10"], "numpy"),
        ],
    )
    def test_libraries_loaded(self, argv, loaded):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *argv],
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stderr.splitlines()[-2] == loaded

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["count", "--alpha", "10", "--at", "8", "--gc", "6"],
            ["pdf", "--at", "3", "--gc", "4"],
            ["oracle", "--n", "4"],
        ],
    )
    def test_no_heavy_standard_modules(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *argv],
            capture_output=True,
            text=True,
            check=True,
        )
        added = set(proc.stderr.splitlines()[-1].split(","))
        assert "dna_necklace" in added
        heavy = {"dataclasses", "inspect", "fractions", "decimal", "typing", "json"}
        assert added & heavy == set()


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


class TestEntrypoint:
    """A `python -m dna_necklace` process ends in `cli.entrypoint`, which
    flushes the output and then calls `os._exit`."""

    @pytest.mark.parametrize("argv", [SMALL_COUNT, LARGE_PDF], ids=["count", "pdf"])
    def test_output_survives_the_exit(self, argv):
        _, expected, _ = run_cli(*argv)
        proc = run_module(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

    def test_out_file_survives_the_exit(self, tmp_path):
        path = tmp_path / "pdf.csv"
        proc = run_module(*LARGE_PDF, "--out", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert path.read_bytes() == run_cli(*LARGE_PDF)[1].encode()

    @pytest.mark.parametrize("argv", [SMALL_COUNT, LARGE_PDF], ids=["count", "pdf"])
    def test_closed_pipe_is_a_usage_error(self, argv):
        # The reader closes its end before the child starts.  The small
        # count fails at the final flush, the pdf while it is written.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_module(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert_usage_error(proc, "error: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_device_is_a_usage_error(self):
        # Every write to /dev/full fails, here at the final flush.
        with open("/dev/full", "w") as full:
            proc = run_module(*SMALL_COUNT, stdout=full)
        assert_usage_error(proc, "error: [Errno 28] No space left on device\n")

    def test_closed_stdout_is_a_usage_error(self):
        # The shell closes file descriptor 1 before it starts the child.
        close_stdout = ["sh", "-c", 'exec "$@" >&-', "sh"]
        proc = subprocess.run(
            [*close_stdout, sys.executable, "-m", "dna_necklace", *SMALL_COUNT],
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
        )
        assert_usage_error(proc, "standard output is closed")

    def test_integrality_failure_exits_three(self):
        proc = subprocess.run(
            [sys.executable, "-c", RIGGED_ENTRYPOINT, *SMALL_COUNT],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", "integrality failure: rigged\n"
        )

    def test_only_the_entrypoint_ends_the_process(self):
        # `os._exit` skips its caller's cleanup and unflushed output, so no
        # library code may call it.  Each `_exit` named in the package, by
        # attribute, name or import, with the functions around it:
        places = []
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
                if name == "_exit":
                    enclosing = [
                        f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno
                    ]
                    places.append((path.name, *enclosing))
        assert places == [("cli.py", "entrypoint")]


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
_TABLE = [("--format", st.sampled_from(["csv", "json"]))]
_ARGV = st.tuples(
    st.sampled_from([[], ["--quiet"]]),
    st.one_of(
        _command("count", [("--alpha", _ints(-4, 40)), ("--at", _COUNT), ("--gc", _COUNT)]),
        _command("pdf", [("--at", _COUNT), ("--gc", _COUNT)], _TABLE),
        _command(
            "mc",
            [("--at", _COUNT), ("--gc", _COUNT), ("--runs", _ints(-1, 200))],
            [("--seed", st.integers(-1, 2**64).map(str)), ("--sets", _ints(-1, 4))]
            + _TABLE,
        ),
        _command("fit", optional=[("--at", _COUNT), ("--gc", _COUNT)] + _TABLE),
        _command(
            "sweep",
            [
                ("--mode", st.just("fixed-at")),
                ("--at", _COUNT),
                ("--gc-values", _INT_LIST),
            ],
            [("--ratio", _RATIO), ("--n-values", _INT_LIST)] + _TABLE,
        ),
        _command(
            "sweep",
            [
                ("--mode", st.just("fixed-ratio")),
                ("--ratio", _RATIO),
                ("--n-values", _INT_LIST),
            ],
            [("--at", _COUNT), ("--gc-values", _INT_LIST)] + _TABLE,
        ),
        _command("oracle", [("--n", _ORACLE_N)], _TABLE),
    ),
).map(lambda t: t[0] + t[1])


class TestExitCodeContract:
    @settings(max_examples=200)
    @given(argv=_ARGV)
    def test_every_argv_exits_zero_two_or_three(self, argv):
        code, out, err = result = run_cli(*argv)
        assert code in (0, 2, 3), (argv, (out + err)[-500:])
        if code == 2 and not err.startswith("usage: "):  # not argparse's text
            assert_usage_error(result, "")
        # Identical invocations give byte-identical output.
        assert run_cli(*argv)[:2] == (code, out), argv


# Cell values that a --pdf-file row must be rejected for, or that test a
# limit: (alpha column, probability column).
_PDF_FAULTS = (
    ["", " ", "3", "-2", "2.0", "x", str(10**308), str(10**309)],
    ["", "nan", "inf", "-inf", "-0.5", "1e308", "1e-320", "x"],
)


@st.composite
def _pdf_files(draw):
    """A valid pdf file with up to three faults planted in it.

    Probabilities follow a Gaussian profile: random values make many fits
    run to the least-squares search's evaluation limit, about 0.5 s each.
    """
    alphas = draw(st.lists(st.integers(0, 40), unique=True, max_size=8))
    center, width = draw(st.floats(0, 80)), draw(st.floats(0.5, 20))
    rows = [
        [str(2 * k), repr(math.exp(-((2 * k - center) ** 2) / (2 * width**2)))]
        for k in alphas
    ]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        fault = draw(st.sampled_from(["cell", "cell", "duplicate", "short", "long"]))
        if fault == "cell":
            column = draw(st.integers(0, min(len(row), 2) - 1))
            row[column] = draw(st.sampled_from(_PDF_FAULTS[column]))
        elif fault == "duplicate":
            row[0] = rows[0][0]
        elif fault == "short":
            del row[1:]
        else:
            row.append("0.5")
    header = draw(
        st.sampled_from(["alpha,probability"] * 3 + ["probability,alpha", "alpha,p", ""])
    )
    bom = draw(st.sampled_from(["", "\ufeff"]))  # a leading byte-order mark
    comment = draw(st.sampled_from(["", "# exported\n"]))
    lines = [header, *(",".join(row) for row in rows)]
    return bom + comment + "\n".join(lines) + "\n"


class TestPdfFileFuzz:
    @settings(max_examples=200)
    @given(text=_pdf_files(), table=st.sampled_from(["csv", "json"]))
    def test_every_file_exits_zero_or_two(self, tmp_path_factory, text, table):
        path = tmp_path_factory.mktemp("fuzz") / "pdf.csv"
        path.write_bytes(text.encode("utf-8"))
        argv = ["--quiet", "fit", "--pdf-file", str(path), "--format", table]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second line
            result = run_cli(*argv)
            again = run_cli(*argv)
        code, out, err = result
        assert code in (0, 2), (text, err)
        if code == 2:
            assert_usage_error(result, "")
        else:
            assert err == "", err
        assert again == result
