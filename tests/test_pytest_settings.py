"""The repository's pytest settings, run on a throwaway suite."""

from pathlib import Path

from cli_harness import run_pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

THROWAWAY = """
from hypothesis import given, settings, strategies as st

@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5

def test_passes():
    pass
"""


def test_failing_property_test_reports_its_example(tmp_path):
    # Under `filterwarnings = ["error"]`, a deprecation warning raised in
    # hypothesis's report hook turned a failing property test into an
    # INTERNALERROR (exit 3) that lost the falsifying example and ended
    # the run.
    path = tmp_path / "test_throwaway.py"
    path.write_text(THROWAWAY, encoding="utf-8")
    child = run_pytest("-c", str(PYPROJECT), str(path), cwd=tmp_path)
    assert child.returncode == 1, child.stdout[-2000:]
    assert "Falsifying example" in child.stdout, child.stdout[-2000:]
    assert "1 failed, 1 passed" in child.stdout, child.stdout[-2000:]
