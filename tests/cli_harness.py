"""The CLI runners and the exit-2 check the test modules share: exit code
2, nothing on stdout and one stderr line, ``error: ...``."""

import contextlib
import io
import os
import subprocess
import sys

from dna_necklace import cli


def run_cli(*argv):
    """(exit code, stdout, stderr) of one in-process `cli.main` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejecting the vector
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def child_env():
    """The environment for a child process.  PYTHONUNBUFFERED is dropped,
    so that a piped stdout is block-buffered as on a user's pipe, and
    output the program fails to flush is lost."""
    return {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}


def run_module(*argv, stdout=subprocess.PIPE):
    """The completed ``python -m dna_necklace`` child process, its stdout
    captured unless `stdout` names another target (a file descriptor or
    file object)."""
    return subprocess.run(
        [sys.executable, "-m", "dna_necklace", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )


def assert_usage_error(result, fragment):
    """`result` (a `run_cli` triple or a `run_module` process) took the
    exit-2 path of `cli.main`, with `fragment` in its one stderr line.
    A child whose stdout was not captured counts as writing nothing."""
    if isinstance(result, subprocess.CompletedProcess):
        result = result.returncode, result.stdout or "", result.stderr
    code, out, err = result
    assert (code, out) == (2, ""), result
    assert err.startswith("error: ") and err.endswith("\n"), err
    assert len(err.splitlines()) == 1, err
    assert fragment in err, err
