"""The CLI runners and the exit-2 check the test modules share: exit code
2, nothing on stdout and one ``error:`` line on stderr.  `run_python` is
the one way a test starts a process; `run_module` and `run_pytest` are
its two common cases."""

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
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_python(*args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen_kwargs):
    """The completed ``python *args`` child process, its stdout and stderr
    captured unless `stdout` or `stderr` names another target (a file
    descriptor or file object); keywords such as ``preexec_fn`` go to
    `subprocess.run`.  PYTHONUNBUFFERED is dropped, so that a piped stdout
    is block-buffered as on a user's pipe (``-u`` in `args` unbuffers it),
    and output the program fails to flush is lost."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=stderr,
        text=True,
        env=env,
        **popen_kwargs,
    )


def run_module(*argv, **kwargs):
    """The completed ``python -m dna_necklace *argv`` child process."""
    return run_python("-m", "dna_necklace", *argv, **kwargs)


def run_pytest(*args, **kwargs):
    """The completed ``python -m pytest *args`` child process, quiet and
    without the cache plugin.  A nested suite's verdict is its exit code,
    so its asserts are not rewritten (``--assert=plain``): rewriting
    recompiles every plugin module on each start when no bytecode is
    cached (``PYTHONDONTWRITEBYTECODE``), most of a short child's time."""
    return run_python(
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "--assert=plain", *args, **kwargs
    )


def assert_usage_error(result, fragment):
    """`result` (a `run_cli` triple or a `run_python` process) took an
    exit-2 path, with nothing on stdout and `fragment` on stderr: one
    ``error: ...`` line of `cli.main`'s, or argparse's usage lines ended
    by its one ``prog: error: ...`` line.  A child whose stdout was not
    captured counts as writing nothing."""
    if isinstance(result, subprocess.CompletedProcess):
        result = result.returncode, result.stdout or "", result.stderr
    code, out, err = result
    assert (code, out) == (2, ""), result
    assert err.endswith("\n"), err
    *usage, line = err.splitlines()
    if usage:  # argparse's refusal: its usage lines, then its error line
        assert err.startswith("usage: ") and ": error: " in line, err
        assert not any("error:" in text for text in usage), err
    else:
        assert line.startswith("error: "), err
    assert fragment in err, err
