"""The named inputs of merge, plot and compare, and the files of table, load in two processes, with the bytes of one.

Each case runs the CLI with the two-process thresholds at 0, so that any two
regular files load in two processes, and any table of two entries is read,
built and reported in two, and with no threshold, so that one process does
it all, and checks that both runs write the same bytes, the same error lines
and the same exit code.  After each case no child of this process is left,
running or unreaped.
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
    monkeypatch.setattr(cli, "_TWO_PROCESS_FILES", limit)
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


def _table_corpus(directory):
    """Seven profiles, two of them author "a"'s: a.json in the first half of the listing, a.csv in the second."""
    directory.mkdir()
    _inputs(directory)
    _write_json(directory / "d.json", "d", [30, 1], career_years=2)  # ties c.json on c_max
    (directory / "a.csv").write_text("citations\n9\n0\n", encoding="utf-8")  # ties a.json on c_max and id
    (directory / "e.csv").write_text("citations\n", encoding="utf-8")  # no works
    (directory / "f.csv").write_text("\ufeffcitations\r\n5\r\n5\r\n", encoding="utf-8")
    (directory / "notes.txt").write_text("not a profile", encoding="utf-8")


@pytest.mark.parametrize("out", ["out", "corpus/table.csv"], ids=["outside", "inside"])
@pytest.mark.parametrize(
    "extra", [(), ("--with-total", "--include-kh"), ("--format", "md"), ("--format", "md", "--with-total")]
)
def test_a_table_in_two_processes_writes_the_bytes_of_one(tmp_path, monkeypatch, capsysbinary, forks, extra, out):
    _table_corpus(tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    runs = {}
    for limit in (0, NO_LIMIT):
        if out.startswith("corpus/"):  # a table from an earlier run, which the scan leaves out
            (tmp_path / out).write_text("no,r0\nstale,1\n", encoding="utf-8")
        runs[limit] = _run(monkeypatch, capsysbinary, limit, ("table", "corpus", *extra), tmp_path / out)
        assert len(forks) == (1 if limit == 0 else 0)
        forks.clear()
    assert runs[0] == runs[NO_LIMIT]
    code, stdout, stderr, table = runs[0]
    assert (code, stdout, stderr) == (0, b"", b"")
    if "md" not in extra:  # by c_max, then id; a.json's row before a.csv's, as listed
        rows = [line.split(",")[:2] for line in table.decode("utf-8").splitlines()[1:8]]
        assert rows == [["c", "4"], ["d", "2"], ["b", "4"], ["a", "5"], ["a", "2"], ["f", "2"], ["e", "0"]]


def _bad_entry(directory, kind, name):
    path = directory / name
    if kind == "not-utf8":
        path.write_bytes(b"citations\n3\n\xff\n")
    elif kind == "bad-line":
        path.write_text(_BAD_CSV, encoding="utf-8")
    elif kind == "directory":
        path.mkdir()
    elif kind == "dangling":
        path.symlink_to(directory / "missing.json")
    else:
        os.mkfifo(path)  # opening it would wait for a writer


# Counts its forks, and fails if a child is left unreaped; its stdout holds the fork count alone.
_TABLE_IN_A_CHILD = """if True:
    import os, sys
    from citemetric import cli
    cli._TWO_PROCESS_FILES = int(sys.argv[1])
    fork, forks = os.fork, []
    os.fork = lambda: forks.append(fork()) or forks[-1]
    code = cli.main(sys.argv[2:])
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print(len(forks))
        sys.exit(code)
    sys.exit("a child was left")
"""


def _table_in_a_child(directory, limit):
    """Exit code, forks, stderr and the -o file's bytes of ``table`` run in a child process.

    In a child process, so that a table that opens a FIFO fails the test instead of hanging it.
    """
    out = directory.parent / "table.csv"
    child = subprocess.run(
        [sys.executable, "-c", _TABLE_IN_A_CHILD, str(limit), "table", directory.name, "--with-total", "-o", out.name],
        cwd=directory.parent,
        env=_child_env(),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    data = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return child.returncode, child.stdout, child.stderr, data


@pytest.mark.parametrize("half", ["first", "second"])
@pytest.mark.parametrize(
    "kind, ext",
    [("not-utf8", "csv"), ("bad-line", "csv"), ("directory", "json"), ("dangling", "json"), ("fifo", "csv")],
    ids=["not-utf8", "bad-line", "directory", "dangling", "fifo"],
)
def test_a_failing_entry_in_either_half_of_a_table_gives_the_one_process_error(tmp_path, kind, ext, half):
    # eight good files, 1 JSON and 7 CSV or 7 JSON and 1 CSV, so that the bad entry
    # is listed first or last and falls in the half this process or the child reads
    directory = tmp_path / "corpus"
    directory.mkdir()
    json_files = 1 if half == "first" else 7
    for i in range(8):
        if i < json_files:
            _write_json(directory / f"m{i}.json", f"m{i}", [i + 3, 1])
        else:
            (directory / f"m{i}.csv").write_text(f"citations\n{i + 3}\n1\n", encoding="utf-8")
    name = f"{'a' if half == 'first' else 'z'}_bad.{ext}"
    _bad_entry(directory, kind, name)
    listed = [entry.name for _, entry in cli.list_profiles(directory)]
    assert (listed.index(name) < len(listed) // 2) == (half == "first")
    two, one = (_table_in_a_child(directory, limit) for limit in (0, NO_LIMIT))
    assert (two[1], one[1]) == ("1\n", "0\n")
    assert (two[0], two[2:]) == (one[0], one[2:])
    code, _, stderr, table = two
    assert code == 1 and stderr.startswith(f"error: {Path('corpus', name)}: ") and stderr.count("\n") == 1
    assert table.decode("utf-8").count("\n") == 10  # header, eight rows and the total


def test_a_table_of_failing_entries_alone_fails_in_either_half(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    for kind, name in [("directory", "d.json"), ("dangling", "s.json"), ("not-utf8", "u.csv"), ("fifo", "x.csv")]:
        _bad_entry(directory, kind, name)
    two, one = (_table_in_a_child(directory, limit) for limit in (0, NO_LIMIT))
    assert (two[1], one[1]) == ("1\n", "0\n")
    assert (two[0], two[2:]) == (one[0], one[2:])
    code, _, stderr, table = two
    assert (code, table) == (1, None)
    assert [line.split(": ")[1] for line in stderr.splitlines()] == [
        str(Path("corpus", name)) for name in ("d.json", "s.json", "u.csv", "x.csv")
    ] + ["no readable profiles in corpus"]


@pytest.mark.parametrize("end", ["killed", "cut-short"])
def test_a_table_child_that_ends_without_its_whole_payload_is_recovered(
    tmp_path, monkeypatch, capsysbinary, forks, end
):
    _table_corpus(tmp_path / "corpus")
    (tmp_path / "corpus" / "bad.csv").write_text(_BAD_CSV, encoding="utf-8")  # in the child's half
    monkeypatch.chdir(tmp_path)
    parent = os.getpid()
    if end == "killed":
        read = cli.read_profiles

        def read_or_die(entries):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return read(entries)

        monkeypatch.setattr(cli, "read_profiles", read_or_die)
    else:

        class CutShort:
            loads = staticmethod(marshal.loads)

            @staticmethod
            def dumps(value):
                return marshal.dumps(value)[:-1]

        monkeypatch.setattr(loader, "marshal", CutShort)
    args = ("table", "corpus", "--with-total", "--include-kh")
    recovered = _run(monkeypatch, capsysbinary, 0, args, tmp_path / "out")
    assert len(forks) == 1
    assert recovered == _run(monkeypatch, capsysbinary, NO_LIMIT, args, tmp_path / "out")
    assert recovered[:3] == (1, b"", f"error: {Path('corpus', 'bad.csv')}: line 3: not an integer: 'x'\n".encode())


def test_a_table_below_the_threshold_leaves_the_loader_unimported(tmp_path):
    _table_corpus(tmp_path / "corpus")  # seven entries, below the threshold
    run = "import sys; from citemetric import cli; code = cli.main(sys.argv[1:]); sys.exit(code or 'citemetric.loader' in sys.modules)"
    child = subprocess.run(
        [sys.executable, "-c", run, "table", "corpus", "--with-total", "-o", "out.csv"],
        cwd=tmp_path,
        env=_child_env(),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, "")


def test_a_traced_table_reads_every_file_in_its_own_process(tmp_path, monkeypatch, forks):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    _table_corpus(tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_TWO_PROCESS_FILES", 0)
    trace, code, out, err = tracer.traced_command(("table", "corpus", "--with-total"))
    assert (code, err, forks) == (0, b"", [])
    assert (trace.counts["ingest.files"], trace.counts["indices.reports"], len(trace.profiles)) == (7, 8, 8)
    assert [name for name, _, _, _ in trace.spans].count("ingest.scan") == 1
