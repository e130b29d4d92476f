"""Byte-for-byte replay of the golden CLI corpus in tests/golden/.

`cases.json` maps each case name to an argv and the exit code it must
return; `<name>.out` holds the exact stdout it must write.  The corpus
covers every subcommand, with `--format csv|json` where the subcommand
has it, each with and without `--quiet`, on small pinned inputs, plus
two rejected invocations.  The cases run in process through `cli.main`.

Exact counts, pdfs, oracle tables and seeded Monte Carlo sets hold on
any machine.  The `fit` and `sweep` bytes hold on one CPU class only:
their 17-digit least-squares results depend on the SIMD code `np.exp`
picks for the CPU, as README states.
"""

import json
from pathlib import Path

import pytest

from dna_necklace import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    case = CASES[name]
    code = cli.main(list(case["argv"]))
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert (code, capsys.readouterr().out) == (case["exit"], expected)
