"""Shared test configuration.

Property tests run under a derandomized hypothesis profile with no
example database, so every run draws the same examples.  ``deadline=None``
keeps a slow machine from turning a timing hiccup into a failure.
Hypothesis still caches the constants it scrapes from local source files;
that cache goes under pytest's own cache directory, or into a temporary
directory removed after the run when the cache plugin is off
(``-p no:cacheprovider``), never into a ``.hypothesis/`` directory in the
working tree.

Every child process a test starts (through ``cli_harness.run_python``)
gets the ``pythonpath`` entries of ``pyproject.toml`` through
``PYTHONPATH``, so a checkout runs the suite without installing the
package.

The report header names the numpy and scipy versions and the SIMD
targets numpy dispatches to: those of its ``__cpu_dispatch__`` builds
that ``__cpu_features__`` marks usable, which is also what
``NPY_DISABLE_CPU_FEATURES`` turns off (a CPU feature flag alone says
nothing of that).  The `fit`/`sweep` goldens and the benchmark's fit
digests hold on one CPU class only, since ``np.exp`` picks SIMD code for
the CPU.  numpy is imported inside the hook alone, so the test
modules' own import probes (child processes) see no change.
"""

import os
import tempfile

from hypothesis import settings

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


def pytest_report_header(config):
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    try:
        import scipy
    except ImportError:  # the lmdif comparisons skip
        scipy = None
    targets = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    return (
        f"numpy {numpy.__version__}, "
        f"scipy {scipy.__version__ if scipy else 'absent'}, "
        f"numpy dispatches: {' '.join(targets) or 'its baseline only'}"
    )
