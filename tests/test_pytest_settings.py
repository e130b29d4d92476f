"""The repository's pytest settings, run on a throwaway suite."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_reports_its_example(pytester):
    # Under `filterwarnings = ["error"]`, a deprecation warning raised in
    # hypothesis's report hook turned a failing property test into an
    # INTERNALERROR that lost the falsifying example and ended the run.
    path = pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers(0, 10))
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "-p", "no:cacheprovider", str(path)
    )
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.assert_outcomes(failed=1, passed=1)
