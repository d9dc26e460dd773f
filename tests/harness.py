"""How a test runs the CLI: in a child process, or in this one.

A child is ``python`` started with this checkout's source, the tests' own
guards (see ``child_env``) and a timeout, so that a child that hangs fails
its test instead of the run.  ``run_cli`` builds the CLI's child program:
both two-process thresholds at ``limit``, then a few ``setup`` lines, then
``cli.main``.  ``run_main`` calls ``cli.main`` in this process, with
nothing from pytest, so that it also runs inside a Hypothesis example.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

from citemetric import cli

_SRC = Path(__file__).resolve().parents[1] / "src"
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
TWO_PROCESSES = hasattr(os, "fork") and _CPUS >= 2  # whether the CLI may load its inputs in two processes here


def child_env(encoding="utf-8"):
    """A CLI child's environment: this checkout's source, and the tests' own guards.

    Those are no bytecode written into the checkout, the development mode's
    checks and a warning for text read or written in the locale's encoding.
    """
    env = {"PYTHONPATH": str(_SRC), "PYTHONIOENCODING": encoding}
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONDEVMODE", "PYTHONWARNDEFAULTENCODING"):
        if name in os.environ:
            env[name] = os.environ[name]
    return env


def write_json(path, author_id, citations, **extra):
    data = {"author_id": author_id, "citations": list(citations), **extra}
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run_python(*argv, wrap=(), timeout=60, **run):
    """``python *argv`` in a child, its output captured, as ``subprocess.run`` returns it.

    ``wrap`` is a command that runs the interpreter, such as a shell that
    closes a descriptor first.  Other keywords go to ``subprocess.run``; the
    environment is ``child_env()`` unless one is given.  A child still running
    after ``timeout`` seconds is killed, and the test fails on
    ``subprocess.TimeoutExpired``.
    """
    run = {"env": child_env(), "stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **run}
    return subprocess.run([*wrap, sys.executable, *argv], timeout=timeout, **run)


def run_cli(*args, setup="", limit=None, flags=(), **run):
    """The CLI run on ``args`` in a child, through ``run_python``; ``flags`` go to the interpreter.

    The child imports ``citemetric.cli`` as ``cli``, sets both two-process
    thresholds to ``limit`` unless it is None, runs the ``setup`` lines, and
    exits with ``cli.main(args)``.
    """
    program = ["import sys", "from citemetric import cli"]
    if limit is not None:
        program.append(f"cli._TWO_PROCESS_BYTES = cli._TWO_PROCESS_FILES = {limit}")
    program += [textwrap.dedent(setup), "sys.exit(cli.main(sys.argv[1:]))"]
    return run_python(*flags, "-c", "\n".join(program), *args, **run)


def run_main(args, *, stdin=b"", limit=None, out=None):
    """Exit code, stdout bytes, stderr bytes and ``-o`` file's bytes of ``cli.main(args)`` in this process.

    ``stdin`` is standard input's bytes, and ``limit`` sets both two-process
    thresholds for the run.  With ``out``, a ``Path``, the command writes
    ``-o out``, whose bytes, or None if it wrote no file, are read and the
    file removed.  Standard error is encoded as a child's is.
    """
    if out is not None:
        args = [*args, "-o", str(out)]
    written = io.BytesIO(), io.BytesIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")))
        for redirect, buffer in zip((contextlib.redirect_stdout, contextlib.redirect_stderr), written):
            # write_through: each write reaches the buffer, which the CLI also writes through .buffer
            stream = io.TextIOWrapper(buffer, encoding="utf-8", errors="backslashreplace", write_through=True)
            stack.enter_context(redirect(stream))
        if limit is not None:
            stack.enter_context(mock.patch.multiple(cli, _TWO_PROCESS_BYTES=limit, _TWO_PROCESS_FILES=limit))
        code = cli.main(args)
        stdout, stderr = (buffer.getvalue() for buffer in written)  # while the wrappers, which close them, live
    data = out.read_bytes() if out is not None and out.exists() else None
    if data is not None:
        out.unlink()
    return code, stdout, stderr, data
