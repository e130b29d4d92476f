"""Byte-for-byte replay of the golden CLI corpus in tests/golden/.

`cases.json` maps each case name to an argv and the exit code it must
return, and a rejected case also to the last line it must write to
stderr; `<name>.out` holds the exact stdout it must write.  The corpus
covers every subcommand, with `--format csv|json` where the subcommand
has it, each with and without `--quiet`, on small pinned inputs, plus
rejected invocations, one count past the interpreter's 4 300-digit
`str(int)` limit, one count whose gcd(M, n_at, n_gc) is 10^12, and the
help text of the program and of each subcommand.  The cases run in
process through `cli.main`, with ``COLUMNS=80`` so that argparse wraps
help and usage lines the same on any terminal; a rejected one must also
meet the exit-2 contract, one `error:` line of the program's or after
argparse's usage lines, and every other one must write nothing to
stderr.

Exact counts, pdfs, oracle tables and seeded Monte Carlo sets hold on
any machine.  The `fit` and `sweep` bytes hold on one CPU class only:
their 17-digit least-squares results depend on the SIMD code `np.exp`
picks for the CPU, as README states.
"""

import json
from pathlib import Path

import pytest

from dna_necklace import cli
from cli_harness import assert_usage_error, run_cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    case = CASES[name]
    code, out, err = result = run_cli(*case["argv"])
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert (code, out) == (case["exit"], expected)
    if code == 2:
        assert_usage_error(result, "")
        assert err.splitlines()[-1] == case["error"]
    else:
        assert err == "", err


def test_plain_lines_take_the_fast_path():
    # Help, a missing required flag and an unknown one are argparse's to
    # report; of the lines it accepts, only `--seed -1` is left to it,
    # which reads the negative number.
    fallbacks = {
        name for name, case in CASES.items() if cli._fast_parse(case["argv"]) is None
    }
    helps = {name for name, case in CASES.items() if "--help" in case["argv"]}
    refused = {"fit-at-without-gc", "fit-unknown-flag"}
    assert fallbacks == helps | refused | {"mc-bad-seed"}


def test_every_out_file_has_a_case():
    # An `.out` file with no case is never replayed, and a case with no
    # `.out` file fails only when it runs.
    assert {path.stem for path in GOLDEN.glob("*.out")} == set(CASES)
