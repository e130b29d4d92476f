"""The suite kills every mutant in `mutants.py`.

Each row runs on its own copy of the tree (``pyproject.toml``, ``src/``
and ``tests/``), so the child pytest's ``pythonpath`` and the
``PYTHONPATH`` it is given both name the copy's ``src/``, never the
checkout's.  A mutant's child must fail a test (exit 1, not a collection
error); the control's child, unmutated, must pass the same tests.
"""

import shutil
from pathlib import Path

import pytest

from cli_harness import run_pytest
from mutants import CONTROL, MUTANTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("row", [CONTROL, *MUTANTS], ids=lambda row: row.name)
def test_suite_kills_the_mutant(row, tmp_path, monkeypatch):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    for part in ("src", "tests"):
        shutil.copytree(
            ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__")
        )
    if row.old is not None:
        target = tmp_path / row.path
        text = target.read_text(encoding="utf-8")
        assert text.count(row.old) == 1, f"{row.name}: rewrite the row for {row.path}"
        target.write_text(text.replace(row.old, row.new), encoding="utf-8")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path / "src"))
    monkeypatch.delenv("HYPOTHESIS_STORAGE_DIRECTORY", raising=False)
    child = run_pytest("-x", *row.modules, cwd=tmp_path)
    assert child.returncode == (0 if row.old is None else 1), child.stdout[-2000:]
