"""Byte-for-byte replay of the golden CLI corpus in tests/golden/.

`cases.json` maps each case name to an argv and the exit code it must
return; `<name>.out` holds the exact stdout it must write.  The corpus
covers every subcommand, with `--format csv|json` where the subcommand
has it, each with and without `--quiet`, on small pinned inputs, plus
rejected invocations and one count past the interpreter's 4 300-digit
`str(int)` limit.  The cases run in process through `cli.main`; a
rejected one must also meet the one-line `error:` contract, and every
other one must write nothing to stderr.

Exact counts, pdfs, oracle tables and seeded Monte Carlo sets hold on
any machine.  The `fit` and `sweep` bytes hold on one CPU class only:
their 17-digit least-squares results depend on the SIMD code `np.exp`
picks for the CPU, as README states.
"""

import json
from pathlib import Path

import pytest

from cli_harness import assert_usage_error, run_cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    case = CASES[name]
    code, out, err = result = run_cli(*case["argv"])
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert (code, out) == (case["exit"], expected)
    if code == 2:
        assert_usage_error(result, "")
    else:
        assert err == "", err
