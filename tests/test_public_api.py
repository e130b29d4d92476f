"""The package's public names and its modules, pinned: adding or removing
one is a deliberate change that shows up as a diff of the lists below.
What the benchmark under perfbench/ reads of the package is checked
against the package itself, so a change here cannot break it unseen."""

import ast
import importlib
import inspect
import pkgutil
import re
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


# Spans perfbench traces, as `<module>.<function>`, that name no function
# the package has: their code moved to tests/reference/ or was folded
# away, so their metrics read 0.  A span leaves this list when the
# benchmark re-hooks it on a live function or stops tracing it.
DEAD_SPANS = [
    "counting.necklace_count",
    "cycle_index.count_orbits",
    "cycle_index.dihedral_bipartite_index",
    "numtheory.binomial",
    "numtheory.divisors",
    "numtheory.totient",
    "oracle.canonical_form",
    "series.product_weight_coeff",
    "series.weight_coeff",
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


def test_traced_spans_resolve():
    """Every span perfbench traces, named in a ``<span>.calls`` or
    ``<span>.self_s`` metric or as a `tracer.hooks` key, is one its tracer
    wraps: a public function a module of the package defines (of `cli`,
    `main` only).  The dead ones are pinned in `DEAD_SPANS`."""
    spans = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                metric = re.fullmatch(r"(\w+\.\w+)\.(?:calls|self_s)", node.value)
                if metric:
                    spans.add(metric[1])
            elif (
                isinstance(node, ast.Subscript)
                and ast.unparse(node.value) == "tracer.hooks"
                and isinstance(node.slice, ast.Constant)
            ):
                spans.add(node.slice.value)
    wrapped = set()
    for name in MODULES:
        if name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"dna_necklace.{name}")
        wrapped |= {
            f"{name}.{attr}"
            for attr, value in vars(module).items()
            if inspect.isfunction(value)
            and value.__module__ == module.__name__
            and not attr.startswith("_")
            and (name != "cli" or attr == "main")
        }
    assert spans & wrapped, "the benchmark's spans were not found"
    assert sorted(spans - wrapped) == DEAD_SPANS
