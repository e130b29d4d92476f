"""Shared test configuration.

Property tests run under a derandomized hypothesis profile with no
example database, so every run draws the same examples.  ``deadline=None``
keeps a slow machine from turning a timing hiccup into a failure.
Hypothesis still caches the constants it scrapes from local source files;
that cache goes under pytest's own cache directory, or into a temporary
directory removed after the run when the cache plugin is off
(``-p no:cacheprovider``), never into a ``.hypothesis/`` directory in the
working tree.

The tests that start ``python -m dna_necklace`` in a child process pass it
the ``pythonpath`` entries of ``pyproject.toml`` through ``PYTHONPATH``,
so a checkout runs the suite without installing the package.

The ``pytester`` plugin lets a test run the repository's own pytest
settings on a throwaway suite in a child process.
"""

import os
import tempfile

from hypothesis import settings

pytest_plugins = ["pytester"]

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None
)
settings.load_profile("deterministic")


def pytest_configure(config):
    cache = getattr(config, "cache", None)  # absent under -p no:cacheprovider
    if cache is not None:
        directory = str(cache.mkdir("hypothesis"))
    else:
        scratch = tempfile.TemporaryDirectory(prefix="hypothesis-")
        config.add_cleanup(scratch.cleanup)
        directory = scratch.name
    os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", directory)
    paths = [str(path) for path in config.getini("pythonpath")]
    paths += os.environ.get("PYTHONPATH", "").split(os.pathsep)
    os.environ["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
