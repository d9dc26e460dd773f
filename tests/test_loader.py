"""The named inputs of merge, plot and compare load in two processes, with the bytes of one.

Each case runs the CLI with the two-process threshold at 0, so that any two
regular files load in two processes, and with no threshold, so that one
process loads every input, and checks that both runs write the same bytes,
the same error lines and the same exit code.  After each case no child of
this process is left, running or unreaped.
"""

import importlib
import io
import marshal
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from citemetric import cli, loader
from citemetric.cli import main
from test_cli import _child_env, _write_json

NO_LIMIT = sys.maxsize
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
pytestmark = pytest.mark.skipif(not hasattr(os, "fork") or _CPUS < 2, reason="inputs load in two processes only here")

BENCH = Path(__file__).resolve().parent.parent / "bench"
_BAD_CSV = "citations\n3\nx\n"  # fails on line 3


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The forks this process makes; a child counts none of its own."""
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return made


def _inputs(directory):
    _write_json(directory / "a.json", "a", [9, 4, 4, 1, 0], source="scholar")
    (directory / "b.csv").write_text("citations\n7\n0\n3\n12\n", encoding="utf-8")
    _write_json(directory / "c.json", "c", [30, 2, 2, 2], career_years=4)


def _run(monkeypatch, capsysbinary, limit, args, out):
    """Exit code, stdout, stderr and the -o file's bytes of one in-process run."""
    monkeypatch.setattr(cli, "_TWO_PROCESS_BYTES", limit)
    stdin = io.TextIOWrapper(io.BytesIO(b'{"author_id": "s", "citations": [5, 5]}'), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code = main([*args, "-o", str(out)])
    captured = capsysbinary.readouterr()
    data = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, captured.out, captured.err, data


@pytest.mark.parametrize(
    "args, forked",
    [
        pytest.param(("merge", "a.json", "b.csv", "--label", "team", "--include-kh"), 1, id="merge"),
        pytest.param(("merge", "a.json", "b.csv", "c.json", "--format", "csv"), 1, id="merge-three"),
        pytest.param(("plot", "a.json", "b.csv", "c.json", "--with-merged", "--guides", "--include-g"), 1, id="plot"),
        pytest.param(("plot", "a.json", "b.csv", "--format", "csv"), 1, id="plot-csv"),
        pytest.param(("compare", "a.json", "b.csv", "c.json", "--format", "md"), 1, id="compare"),
        pytest.param(("compare", "a.json", "-", "b.csv"), 0, id="stdin"),  # this process reads every input
        pytest.param(("plot", "a.json"), 0, id="one-input"),
    ],
)
def test_two_processes_write_the_bytes_of_one(tmp_path, monkeypatch, capsysbinary, forks, args, forked):
    _inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    runs = {}
    for limit in (0, NO_LIMIT):
        runs[limit] = _run(monkeypatch, capsysbinary, limit, args, tmp_path / "out")
        assert len(forks) == (forked if limit == 0 else 0)
        forks.clear()
    assert runs[0] == runs[NO_LIMIT]
    assert runs[0][0] == 0 and runs[0][2] == b""


@pytest.mark.parametrize("command", ["merge", "plot", "compare"])
@pytest.mark.parametrize("bad", [{0}, {1}, {2}, {0, 2}, {1, 2}], ids=lambda bad: "bad" + "".join(map(str, sorted(bad))))
def test_a_failing_input_in_either_half_gives_the_one_process_error(tmp_path, monkeypatch, capsysbinary, command, bad):
    # three inputs: this process loads the first, the child the second and third
    _inputs(tmp_path)
    names = ["a.json", "b.csv", "c.json"]
    for i in bad:
        names[i] = f"bad{i}.csv"
        (tmp_path / names[i]).write_text(_BAD_CSV, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    runs = [_run(monkeypatch, capsysbinary, limit, (command, *names), tmp_path / "out") for limit in (0, NO_LIMIT)]
    assert runs[0] == runs[1] == (1, b"", f"error: bad{min(bad)}.csv: line 3: not an integer: 'x'\n".encode(), None)


@pytest.mark.parametrize("end", ["killed", "cut-short"])
def test_a_child_that_ends_without_its_whole_payload_is_recovered(tmp_path, monkeypatch, capsysbinary, forks, end):
    _inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    parent = os.getpid()
    if end == "killed":
        load = cli._load_document

        def load_or_die(path):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return load(path)

        monkeypatch.setattr(cli, "_load_document", load_or_die)
    else:

        class CutShort:
            loads = staticmethod(marshal.loads)

            @staticmethod
            def dumps(value):
                return marshal.dumps(value)[:-1]

        monkeypatch.setattr(loader, "marshal", CutShort)
    args = ("merge", "a.json", "b.csv", "c.json", "--include-kh")
    recovered = _run(monkeypatch, capsysbinary, 0, args, tmp_path / "out")
    assert len(forks) == 1
    assert recovered == _run(monkeypatch, capsysbinary, NO_LIMIT, args, tmp_path / "out")
    assert recovered[0] == 0


def test_a_fifo_named_after_a_failing_input_is_never_waited_on(tmp_path):
    _inputs(tmp_path)
    (tmp_path / "bad.csv").write_text(_BAD_CSV, encoding="utf-8")
    os.mkfifo(tmp_path / "fifo.json")  # opening it would wait for a writer
    run = "import sys; from citemetric import cli; cli._TWO_PROCESS_BYTES = 0; sys.exit(cli.main(sys.argv[1:]))"
    # in a child process, so that a load that blocks on the FIFO fails the test instead of hanging it
    child = subprocess.run(
        [sys.executable, "-c", run, "merge", "a.json", "bad.csv", "fifo.json"],
        cwd=tmp_path,
        env=_child_env(),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (1, "", "error: bad.csv: line 3: not an integer: 'x'\n")


def test_a_child_still_loading_when_the_first_half_fails_is_stopped(tmp_path):
    _inputs(tmp_path)
    (tmp_path / "bad.csv").write_text(_BAD_CSV, encoding="utf-8")
    run = """if True:
        import os, sys, time
        from citemetric import cli
        cli._TWO_PROCESS_BYTES = 0
        parent, load = os.getpid(), cli._load_document
        def load_or_hang(path):
            if os.getpid() != parent:
                time.sleep(120)  # past the timeout below, and not much longer
            return load(path)
        cli._load_document = load_or_hang
        sys.exit(cli.main(sys.argv[1:]))
    """
    # in a child process, so that a CLI that waits for its loader fails the test instead of hanging it
    child = subprocess.run(
        [sys.executable, "-c", run, "merge", "bad.csv", "a.json"],
        cwd=tmp_path,
        env=_child_env(),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (1, "", "error: bad.csv: line 3: not an integer: 'x'\n")


def test_each_half_must_reach_the_threshold(tmp_path, monkeypatch):
    _inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    sizes = [os.path.getsize(name) for name in ("a.json", "b.csv", "c.json")]
    monkeypatch.setattr(cli, "_TWO_PROCESS_BYTES", min(sizes[0], sizes[1] + sizes[2]))
    assert cli._child_half(["a.json", "b.csv", "c.json"]) == 1
    monkeypatch.setattr(cli, "_TWO_PROCESS_BYTES", sizes[0] + 1)
    assert cli._child_half(["a.json", "b.csv", "c.json"]) == 3


def test_any_input_but_a_regular_file_keeps_every_input_in_this_process(tmp_path, monkeypatch):
    _inputs(tmp_path)
    os.mkfifo(tmp_path / "fifo.json")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_TWO_PROCESS_BYTES", 0)
    assert cli._child_half(["a.json", "b.csv", "c.json"]) == 1
    for other in ("-", "fifo.json", "missing.json", "."):
        assert cli._child_half(["a.json", other, "c.json"]) == 3


def test_a_traced_run_loads_every_input_in_its_own_process(tmp_path, monkeypatch, forks):
    # bench/tracer.py counts and times each load through the names it rebinds, which a child's calls would miss
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    _inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_TWO_PROCESS_BYTES", 0)
    trace, code, out, err = tracer.traced_command(("merge", "a.json", "b.csv", "c.json"))
    assert (code, err, forks) == (0, b"", [])
    assert (trace.counts["ingest.files"], trace.counts["profile.works"], len(trace.profiles)) == (3, 13, 4)
    assert cli._child_half(["a.json", "b.csv", "c.json"]) == 1  # the names are bound again as at import


def test_a_load_in_one_process_leaves_the_loader_unimported(tmp_path):
    _inputs(tmp_path)
    run = "import sys; from citemetric import cli; code = cli.main(sys.argv[1:]); sys.exit(code or 'citemetric.loader' in sys.modules)"
    child = subprocess.run(
        [sys.executable, "-c", run, "merge", "a.json", "b.csv", "-o", "out.json"],
        cwd=tmp_path,
        env=_child_env(),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, "")
