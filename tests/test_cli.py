import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dna_necklace import cli
from dna_necklace.counting import IntegralityError


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(rows))


class TestCount:
    def test_worked_example_quiet(self, capsys):
        code, out, _ = run_cli(capsys, "--quiet", "count", "--alpha", "10", "--at", "8", "--gc", "6")
        assert code == 0
        assert out == "19\n"

    def test_parameter_echo_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--alpha", "2", "--at", "1", "--gc", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# command: count"
        assert lines[-1] == "1"

    def test_odd_alpha_rejected(self, capsys):
        code, _, err = run_cli(capsys, "count", "--alpha", "3", "--at", "5", "--gc", "5")
        assert code == 2
        assert "must be even" in err

    def test_empty_spec_rejected(self, capsys):
        code, _, err = run_cli(capsys, "count", "--alpha", "0", "--at", "0", "--gc", "0")
        assert code == 2
        assert "empty necklace" in err


class TestPdf:
    def test_small_table_exact(self, capsys):
        code, out, _ = run_cli(capsys, "--quiet", "pdf", "--at", "2", "--gc", "2")
        assert code == 0
        assert out == "alpha,count,probability\n0,0,0\n2,1,0.5\n4,1,0.5\n"

    def test_homogeneous_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "--quiet", "pdf", "--at", "0", "--gc", "4")
        assert code == 0
        assert out == "alpha,count,probability\n0,1,1\n"

    def test_balanced_hundred_bead_support(self, capsys):
        code, out, _ = run_cli(capsys, "--quiet", "pdf", "--at", "50", "--gc", "50")
        assert code == 0
        rows = parse_csv(out)
        assert [int(r["alpha"]) for r in rows] == list(range(0, 101, 2))
        # counts must be plain decimal strings, never float-rendered
        for row in rows:
            assert set(row["count"]) <= set("0123456789")
        assert abs(sum(float(r["probability"]) for r in rows) - 1.0) < 1e-12

    def test_json_mirrors_csv(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", "--at", "2", "--gc", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "pdf"
        assert doc["parameters"] == {"at": 2, "gc": 2}
        assert doc["rows"][1] == {"alpha": 2, "count": "1", "probability": 0.5}

    def test_quiet_json_drops_parameters(self, capsys):
        _, out, _ = run_cli(capsys, "--quiet", "pdf", "--at", "2", "--gc", "2", "--format", "json")
        assert "parameters" not in json.loads(out)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "pdf.csv"
        run_cli(capsys, "--quiet", "pdf", "--at", "5", "--gc", "7", "--out", str(path))
        _, out, _ = run_cli(capsys, "--quiet", "pdf", "--at", "5", "--gc", "7")
        assert path.read_text() == out


class TestMc:
    def test_forced_distribution(self, capsys):
        code, out, _ = run_cli(
            capsys, "--quiet", "mc", "--at", "1", "--gc", "1",
            "--runs", "100", "--seed", "7", "--sets", "2",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert int(row["alpha"]) == 2
            assert float(row["frequency"]) == 1.0
            assert float(row["d"]) == 0.0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ("mc", "--at", "20", "--gc", "30", "--runs", "500", "--seed", "11")
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *args, "--out", str(first))
        run_cli(capsys, *args, "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_subseeds_rederive_rows(self, capsys):
        _, out, _ = run_cli(
            capsys, "--quiet", "mc", "--at", "10", "--gc", "10",
            "--runs", "200", "--seed", "5", "--sets", "2",
        )
        rows = parse_csv(out)
        from dna_necklace.montecarlo import derive_subseed

        subseeds = sorted({row["sub_seed"] for row in rows})
        assert subseeds == sorted(str(derive_subseed(5, i)) for i in range(2))

    def test_zero_runs_rejected(self, capsys):
        code, _, err = run_cli(capsys, "mc", "--at", "2", "--gc", "2", "--runs", "0")
        assert code == 2
        assert "runs" in err


class TestFit:
    def test_balanced_hundred_bead_fit(self, capsys):
        code, out, _ = run_cli(capsys, "--quiet", "fit", "--at", "50", "--gc", "50")
        assert code == 0
        row = parse_csv(out)[0]
        assert 50.3 <= float(row["alpha0"]) <= 50.7
        assert 4.9 <= float(row["sigma"]) <= 5.3

    def test_tiny_support_rejected(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--at", "1", "--gc", "1")
        assert code == 2
        assert "support too small" in err

    def test_missing_inputs_rejected(self, capsys):
        code, _, err = run_cli(capsys, "fit")
        assert code == 2
        assert "--pdf-file" in err

    def test_fit_from_synthetic_file(self, capsys, tmp_path):
        path = tmp_path / "gauss.csv"
        lines = ["alpha,probability"]
        for alpha in range(30, 71, 2):
            p = 0.08 * math.exp(-((alpha - 50.0) ** 2) / (2 * 5.0**2))
            lines.append(f"{alpha},{p!r}")
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "--quiet", "fit", "--pdf-file", str(path))
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["alpha0"]) - 50.0) < 1e-6 * 50.0
        assert abs(float(row["sigma"]) - 5.0) < 1e-6 * 5.0
        assert abs(float(row["amplitude"]) - 0.08) < 1e-6 * 0.08

    def test_fit_from_pdf_command_output(self, capsys, tmp_path):
        path = tmp_path / "pdf.csv"
        run_cli(capsys, "pdf", "--at", "50", "--gc", "50", "--out", str(path))
        code, out, _ = run_cli(capsys, "--quiet", "fit", "--pdf-file", str(path))
        assert code == 0
        _, direct, _ = run_cli(capsys, "--quiet", "fit", "--at", "50", "--gc", "50")
        file_row, direct_row = parse_csv(out)[0], parse_csv(direct)[0]
        assert abs(float(file_row["alpha0"]) - float(direct_row["alpha0"])) < 1e-9


    def test_non_converging_fit_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "spiky.csv"
        path.write_text("alpha,probability\n2,1\n4,0\n6,1\n8,0\n10,1e-300\n")
        code, out, err = run_cli(capsys, "fit", "--pdf-file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "did not converge" in err

    def test_flat_pdf_is_a_usage_error(self):
        # (3, 3) has three equally likely alternation values: the fitted
        # width runs off to ~4.5e4 over a support of span 4.  A real process,
        # so that any warning printed along the way would show on stderr.
        proc = subprocess.run(
            [sys.executable, "-m", "dna_necklace", "--quiet", "fit", "--at", "3", "--gc", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "exceeds the support span" in lines[0]
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
        proc = subprocess.run(
            [sys.executable, "-m", "dna_necklace", "--quiet", "fit", "--pdf-file", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert reason in lines[0]
        assert "Warning" not in proc.stderr

    def test_byte_order_mark_is_ignored(self, capsys, tmp_path):
        text = "# exported\nalpha,probability\n0,0.2\n2,0.6\n4,0.2\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        _, expected, _ = run_cli(capsys, "--quiet", "fit", "--pdf-file", str(plain))
        code, out, err = run_cli(capsys, "--quiet", "fit", "--pdf-file", str(marked))
        assert code == 0, err
        assert out == expected

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.25"])
    def test_bad_probability_rejected(self, capsys, tmp_path, value):
        path = tmp_path / "bad.csv"
        rows = ["alpha,probability", "2,0.2", f"4,{value}", "6,0.5", "8,0.3"]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "fit", "--pdf-file", str(path))
        assert code == 2
        assert out == ""
        assert "finite and >= 0" in err

    @pytest.mark.parametrize("alpha", ["3", "-2"])
    def test_bad_alpha_rejected(self, capsys, tmp_path, alpha):
        path = tmp_path / "bad.csv"
        rows = ["alpha,probability", "2,0.2", f"{alpha},0.1", "6,0.5", "8,0.3"]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "fit", "--pdf-file", str(path))
        assert code == 2
        assert out == ""
        assert "even and >= 0" in err

    def test_repeated_alpha_rejected(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        rows = ["alpha,probability", "2,0.2", "4,0.5", "4,0.01", "6,0.3"]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "fit", "--pdf-file", str(path))
        assert code == 2
        assert out == ""
        assert "more than once" in err


class TestSweep:
    def test_fixed_at_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "--quiet", "sweep", "--mode", "fixed-at",
            "--at", "100", "--gc-values", "25,100,2500",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [int(r["n_gc"]) for r in rows] == [25, 100, 2500]
        assert all(r["error"] == "" for r in rows)
        centers = [float(r["alpha0"]) for r in rows]
        assert centers == sorted(centers)

    def test_flat_pdf_row_is_an_error_row(self, capsys):
        code, out, err = run_cli(
            capsys, "--quiet", "sweep", "--mode", "fixed-at",
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

    def test_fixed_ratio_slope_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "--quiet", "sweep", "--mode", "fixed-ratio",
            "--ratio", "1:1", "--n-values", "80,120,160",
        )
        assert code == 0
        rows = parse_csv(out)
        slopes = {r["slope"] for r in rows}
        assert len(slopes) == 1
        assert abs(float(slopes.pop()) - 0.5) < 0.02

    def test_missing_mode_arguments_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--mode", "fixed-at")
        assert code == 2
        assert "--gc-values" in err
        code, _, err = run_cli(capsys, "sweep", "--mode", "fixed-ratio", "--ratio", "2:1")
        assert code == 2
        code, _, err = run_cli(capsys, "sweep", "--mode", "fixed-ratio", "--ratio", "2", "--n-values", "80")
        assert code == 2
        assert "GC:AT" in err


class TestOracleCommand:
    def test_length_four_buckets(self, capsys):
        code, out, _ = run_cli(capsys, "--quiet", "oracle", "--n", "4")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 6
        assert sum(int(r["count"]) for r in rows) == 6

    def test_out_of_range_rejected(self, capsys):
        assert run_cli(capsys, "oracle", "--n", "19")[0] == 2
        assert run_cli(capsys, "oracle", "--n", "0")[0] == 2


class TestExitCodes:
    def test_integrality_failure_maps_to_three(self, capsys, monkeypatch):
        def boom(spec, alpha):
            raise IntegralityError("rigged")

        monkeypatch.setattr(cli, "count_necklaces", boom)
        code, _, err = run_cli(capsys, "count", "--alpha", "2", "--at", "1", "--gc", "1")
        assert code == 3
        assert "integrality failure" in err


class TestProcessBoundaryRoundTrip:
    def test_pdf_counts_match_oracle_buckets(self, capsys):
        # The oracle side runs in a real subprocess; the pdf side in-process.
        for n in range(1, 15):
            proc = subprocess.run(
                [sys.executable, "-m", "dna_necklace", "--quiet", "oracle", "--n", str(n)],
                capture_output=True,
                text=True,
                check=True,
            )
            buckets = {
                (int(r["n_at"]), int(r["alpha"])): int(r["count"])
                for r in parse_csv(proc.stdout)
            }
            for n_at in range(n + 1):
                _, out, _ = run_cli(
                    capsys, "--quiet", "pdf", "--at", str(n_at), "--gc", str(n - n_at)
                )
                for row in parse_csv(out):
                    expected = buckets.get((n_at, int(row["alpha"])), 0)
                    assert int(row["count"]) == expected, (n, n_at, row)


# Prints which of numpy and scipy are loaded after importing the package
# and, given arguments, running `cli.main` on them.
IMPORT_PROBE = """
import sys
import dna_necklace
if sys.argv[1:]:
    from dna_necklace import cli
    assert cli.main(["--quiet", *sys.argv[1:]]) == 0
print(",".join(m for m in ("numpy", "scipy") if m in sys.modules), file=sys.stderr)
"""


class TestImportBoundary:
    """Counting needs neither library, Monte Carlo and the fits need numpy,
    and nothing needs scipy."""

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
        assert proc.stderr.splitlines()[-1] == loaded


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
        _command("fit", [("--at", _COUNT), ("--gc", _COUNT)], _TABLE),
        _command(
            "sweep",
            [
                ("--mode", st.just("fixed-at")),
                ("--at", _COUNT),
                ("--gc-values", _INT_LIST),
            ],
            _TABLE,
        ),
        _command(
            "sweep",
            [
                ("--mode", st.just("fixed-ratio")),
                ("--ratio", _RATIO),
                ("--n-values", _INT_LIST),
            ],
            _TABLE,
        ),
        _command("oracle", [("--n", _ints(-1, 20))], _TABLE),
    ),
).map(lambda t: t[0] + t[1])


def _run_captured(argv):
    """(exit code, stdout, stderr) of one in-process `cli.main` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the vector
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestExitCodeContract:
    @settings(max_examples=200)
    @given(argv=_ARGV)
    def test_every_argv_exits_zero_two_or_three(self, argv):
        code, out, err = _run_captured(argv)
        assert code in (0, 2, 3), (argv, (out + err)[-500:])
        # Identical invocations give byte-identical output.
        assert _run_captured(argv)[:2] == (code, out), argv
