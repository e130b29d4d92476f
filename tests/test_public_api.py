"""The package's public names and its modules, pinned: adding or removing
one is a deliberate change that shows up as a diff of the lists below.
What the benchmark under perfbench/ reads of the package is checked
against the package itself, so a change here cannot break it unseen."""

import ast
import pkgutil
from pathlib import Path

import dna_necklace
from cli_harness import run_python

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

MODULES = [
    "__main__",
    "_lmdif",
    "cli",
    "counting",
    "montecarlo",
    "oracle",
    "stats",
]

PUBLIC = [
    "DiscretePdf",
    "GaussianFit",
    "IntegralityError",
    "MAX_ENUMERATION_BITS",
    "MCConfig",
    "NecklaceSpec",
    "PRNG_NAME",
    "alternation_distribution",
    "alternation_histogram",
    "bracelet_count_direct",
    "convergence_study",
    "count_necklaces",
    "derive_subseed",
    "empirical_pdf",
    "enumerate_all",
    "fit_gaussian",
    "sample_chains",
    "split_by_ratio",
    "sweep_fixed_at",
    "sweep_fixed_ratio",
    "theoretical_pdf",
    "total_abs_diff",
]


def test_modules_are_pinned():
    found = sorted(info.name for info in pkgutil.iter_modules(dna_necklace.__path__))
    assert found == MODULES


def test_all_is_pinned():
    assert sorted(dna_necklace.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in dna_necklace.__all__:
        assert getattr(dna_necklace, name) is not None, name


def test_what_the_benchmark_reads_resolves():
    """Every `dn.<name>` the benchmark reads off the package resolves, and
    every `sys.modules["dna_necklace.<module>"]` it looks up is loaded by
    a fresh `import dna_necklace`."""
    names, modules = set(), set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "dn":
                names.add(node.attr)
            elif (
                isinstance(node, ast.Subscript)
                and ast.unparse(node.value) == "sys.modules"
                and isinstance(node.slice, ast.Constant)
                and str(node.slice.value).startswith("dna_necklace.")
            ):
                modules.add(node.slice.value)
    assert names and modules, "the benchmark's reads were not found"
    assert [name for name in sorted(names) if not hasattr(dna_necklace, name)] == []
    child = run_python("-c", "import sys, dna_necklace; print(*sorted(sys.modules))")
    assert child.returncode == 0, child.stderr
    assert sorted(modules - set(child.stdout.split())) == []
