"""The named inputs of merge, plot and compare, and the files of table, load in two processes, with the bytes of one.

Each case runs the CLI with the two-process thresholds at 0, so that any two
regular files load in two processes, and any table of two entries is read,
built and reported in two, and with no threshold, so that one process does
it all, and checks that both runs write the same bytes, the same error lines
and the same exit code.  One case runs each command in a child process at the
program's own thresholds, on inputs just past them, and again pinned to one
CPU, where it must not fork.  After each case no child of this process is
left, running or unreaped.
"""

import errno
import importlib
import os
import pickle
import signal
import sys
import threading
import types
from pathlib import Path
from unittest import mock

import pytest

from citemetric import cli, loader
from citemetric.ingest import ProfileDocument
from harness import TWO_PROCESSES, run_cli, run_main, write_json

NO_LIMIT = sys.maxsize
pytestmark = pytest.mark.skipif(not TWO_PROCESSES, reason="inputs load in two processes only here")

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
    write_json(directory / "a.json", "a", [9, 4, 4, 1, 0], source="scholar")
    (directory / "b.csv").write_text("citations\n7\n0\n3\n12\n", encoding="utf-8")
    write_json(directory / "c.json", "c", [30, 2, 2, 2], career_years=4)


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
def test_two_processes_write_the_bytes_of_one(tmp_path, monkeypatch, forks, args, forked):
    _inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    runs = {}
    for limit in (0, NO_LIMIT):
        stdin = b'{"author_id": "s", "citations": [5, 5]}'
        runs[limit] = run_main(args, stdin=stdin, limit=limit, out=tmp_path / "out")
        assert len(forks) == (forked if limit == 0 else 0)
        forks.clear()
    assert runs[0] == runs[NO_LIMIT]
    assert runs[0][0] == 0 and runs[0][2] == b""


@pytest.mark.parametrize("command", ["merge", "plot", "compare"])
@pytest.mark.parametrize("bad", [{0}, {1}, {2}, {0, 2}, {1, 2}], ids=lambda bad: "bad" + "".join(map(str, sorted(bad))))
def test_a_failing_input_in_either_half_gives_the_one_process_error(tmp_path, monkeypatch, command, bad):
    # three inputs: this process loads the first, the child the second and third
    _inputs(tmp_path)
    names = ["a.json", "b.csv", "c.json"]
    for i in bad:
        names[i] = f"bad{i}.csv"
        (tmp_path / names[i]).write_text(_BAD_CSV, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    runs = [run_main((command, *names), limit=limit, out=tmp_path / "out") for limit in (0, NO_LIMIT)]
    assert runs[0] == runs[1] == (1, b"", f"error: bad{min(bad)}.csv: line 3: not an integer: 'x'\n".encode(), None)


def _cut_short(monkeypatch):
    """Every payload a forked child sends comes one byte short."""
    cut = types.SimpleNamespace(**vars(pickle))
    cut.dumps = lambda value, protocol: pickle.dumps(value, protocol)[:-1]
    monkeypatch.setattr(loader, "pickle", cut)


@pytest.mark.parametrize("end", ["killed", "cut-short"])
def test_a_child_that_ends_without_its_whole_payload_is_recovered(tmp_path, monkeypatch, forks, end):
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
        _cut_short(monkeypatch)
    args = ("merge", "a.json", "b.csv", "c.json", "--include-kh")
    recovered = run_main(args, limit=0, out=tmp_path / "out")
    assert len(forks) == 1
    assert recovered == run_main(args, limit=NO_LIMIT, out=tmp_path / "out")
    assert recovered[0] == 0


def test_a_fifo_named_after_a_failing_input_is_never_waited_on(tmp_path):
    _inputs(tmp_path)
    (tmp_path / "bad.csv").write_text(_BAD_CSV, encoding="utf-8")
    os.mkfifo(tmp_path / "fifo.json")  # opening it would wait for a writer
    # in a child process, so that a load that blocks on the FIFO fails the test instead of hanging it
    child = run_cli("merge", "a.json", "bad.csv", "fifo.json", limit=0, cwd=tmp_path, encoding="utf-8")
    assert (child.returncode, child.stdout, child.stderr) == (1, "", "error: bad.csv: line 3: not an integer: 'x'\n")


def test_a_child_still_loading_when_the_first_half_fails_is_stopped(tmp_path):
    _inputs(tmp_path)
    (tmp_path / "bad.csv").write_text(_BAD_CSV, encoding="utf-8")
    hang_in_the_child = """
        import os, time
        parent, load = os.getpid(), cli._load_document
        def load_or_hang(path):
            if os.getpid() != parent:
                time.sleep(120)  # past the child's timeout, and not much longer
            return load(path)
        cli._load_document = load_or_hang
    """
    # in a child process, so that a CLI that waits for its loader fails the test instead of hanging it
    child = run_cli("merge", "bad.csv", "a.json", limit=0, setup=hang_in_the_child, cwd=tmp_path, encoding="utf-8")
    assert (child.returncode, child.stdout, child.stderr) == (1, "", "error: bad.csv: line 3: not an integer: 'x'\n")


# Lowers the child's descriptor limit to one above those it has open, so that a pipe, which
# needs two, fails while each file still opens; exits with a message if a pipe opens.
_NO_PIPE = """
import os, resource
open_now = len(os.listdir("/proc/self/fd")) - 1  # less the one that lists them
resource.setrlimit(resource.RLIMIT_NOFILE, (open_now + 1, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
try:
    os.pipe()
except OSError:
    pass
else:
    sys.exit("a pipe still opens")
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts its open descriptors in /proc/self/fd")
def test_a_merge_with_no_descriptor_for_a_pipe_loads_in_one_process(tmp_path):
    pytest.importorskip("resource")
    _inputs(tmp_path)
    args = ("merge", "a.json", "b.csv", "-o", "out.json")
    runs = [run_cli(*args, limit=limit, setup=_NO_PIPE, cwd=tmp_path, encoding="utf-8") for limit in (0, NO_LIMIT)]
    assert [(run.returncode, run.stdout, run.stderr) for run in runs] == [(0, runs[1].stdout, "")] * 2


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


def _table_corpus(directory):
    """Seven profiles, two of them author "a"'s: a.json in the first half of the listing, a.csv in the second."""
    directory.mkdir()
    _inputs(directory)
    write_json(directory / "d.json", "d", [30, 1], career_years=2)  # ties c.json on c_max
    (directory / "a.csv").write_text("citations\n9\n0\n", encoding="utf-8")  # ties a.json on c_max and id
    (directory / "e.csv").write_text("citations\n", encoding="utf-8")  # no works
    (directory / "f.csv").write_text("\ufeffcitations\r\n5\r\n5\r\n", encoding="utf-8")
    (directory / "notes.txt").write_text("not a profile", encoding="utf-8")


@pytest.mark.parametrize("out", ["out", "corpus/table.csv"], ids=["outside", "inside"])
@pytest.mark.parametrize(
    "extra", [(), ("--with-total", "--include-kh"), ("--format", "md"), ("--format", "md", "--with-total")]
)
def test_a_table_in_two_processes_writes_the_bytes_of_one(tmp_path, monkeypatch, forks, extra, out):
    _table_corpus(tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    runs = {}
    for limit in (0, NO_LIMIT):
        if out.startswith("corpus/"):  # a table from an earlier run, which the scan leaves out
            (tmp_path / out).write_text("no,r0\nstale,1\n", encoding="utf-8")
        runs[limit] = run_main(("table", "corpus", *extra), limit=limit, out=tmp_path / out)
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


# Pins the child to one CPU, as `taskset -c 0` would pin it.
_PINNED = "import os; os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])\n"

# Counts the child's forks into the file child.forks, apart from the command's own
# output, once the command has run, and fails if a child is left.
_FORKS_COUNTED = """
import os
fork, forks, main = os.fork, [], cli.main
os.fork = lambda: forks.append(fork()) or forks[-1]
def main_then_count(args):
    code = main(args)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        with open("child.forks", "w", encoding="ascii") as counted:
            counted.write(str(len(forks)))
        return code
    sys.exit("a child was left")
cli.main = main_then_count
"""


def _cli_in_a_child(cwd, args, limit=None, pinned=False):
    """The forks made, and the exit code, stdout, stderr and -o file's bytes, of the CLI run in a child process.

    In a child process under -W error, so that a command that opens a FIFO
    fails the test instead of hanging it, and so that it may be pinned to one
    CPU.  ``limit`` sets both thresholds; by default they are the program's own.
    """
    out, forks = cwd / "child.out", cwd / "child.forks"
    setup = (_PINNED if pinned else "") + _FORKS_COUNTED
    child = run_cli(
        *args, "-o", out.name, setup=setup, limit=limit, flags=("-W", "error"), cwd=cwd, encoding="utf-8", timeout=120
    )
    data = out.read_bytes() if out.exists() else None
    counted = int(forks.read_text(encoding="ascii")) if forks.exists() else None
    out.unlink(missing_ok=True)
    forks.unlink(missing_ok=True)
    return counted, (child.returncode, child.stdout, child.stderr, data)


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
            write_json(directory / f"m{i}.json", f"m{i}", [i + 3, 1])
        else:
            (directory / f"m{i}.csv").write_text(f"citations\n{i + 3}\n1\n", encoding="utf-8")
    name = f"{'a' if half == 'first' else 'z'}_bad.{ext}"
    _bad_entry(directory, kind, name)
    listed = [entry.name for _, entry in cli.list_profiles(directory)]
    assert (listed.index(name) < len(listed) // 2) == (half == "first")
    two, one = (_cli_in_a_child(tmp_path, ("table", "corpus", "--with-total"), limit) for limit in (0, NO_LIMIT))
    assert (two[0], one[0]) == (1, 0)
    assert two[1] == one[1]
    code, _, stderr, table = two[1]
    assert code == 1 and stderr.startswith(f"error: {Path('corpus', name)}: ") and stderr.count("\n") == 1
    assert table.decode("utf-8").count("\n") == 10  # header, eight rows and the total


def test_a_table_of_failing_entries_alone_fails_in_either_half(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    for kind, name in [("directory", "d.json"), ("dangling", "s.json"), ("not-utf8", "u.csv"), ("fifo", "x.csv")]:
        _bad_entry(directory, kind, name)
    two, one = (_cli_in_a_child(tmp_path, ("table", "corpus", "--with-total"), limit) for limit in (0, NO_LIMIT))
    assert (two[0], one[0]) == (1, 0)
    assert two[1] == one[1]
    code, _, stderr, table = two[1]
    assert (code, table) == (1, None)
    assert [line.split(": ")[1] for line in stderr.splitlines()] == [
        str(Path("corpus", name)) for name in ("d.json", "s.json", "u.csv", "x.csv")
    ] + ["no readable profiles in corpus"]


def _profile_over(path, size):
    """A profile of two-digit counts whose file holds just over ``size`` bytes, as JSON or CSV by its suffix."""
    counts = [10 + i * 37 % 90 for i in range(size // 3 + 1)]  # a count takes three bytes in CSV, four in JSON
    if path.suffix == ".csv":
        path.write_text("citations\n" + "".join(f"{count}\n" for count in counts), encoding="utf-8")
    else:
        write_json(path, path.stem, counts[: size // 4 + 1])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a child to one CPU")
@pytest.mark.parametrize(
    "args",
    [
        ("merge", "a.json", "b.csv", "--include-kh"),
        ("compare", "a.json", "b.csv"),
        ("plot", "a.json", "b.csv", "--format", "csv"),
        ("table", "corpus", "--with-total", "--include-kh"),
    ],
    ids=lambda args: args[0],
)
def test_past_the_thresholds_a_command_forks_once_and_pinned_to_one_cpu_never_with_the_same_bytes(tmp_path, args):
    # input sizes are read from the thresholds, so a new threshold needs no edit here
    if args[0] == "table":
        (tmp_path / "corpus").mkdir()
        for i in range(2 * cli._TWO_PROCESS_FILES):
            write_json(tmp_path / "corpus" / f"a{i:04d}.json", f"a{i:04d}", [i % 50 + 1, i % 7, 1])
        (tmp_path / "corpus" / "bad.csv").write_text(_BAD_CSV, encoding="utf-8")  # listed last, in the child's half
    else:
        _profile_over(tmp_path / "a.json", cli._TWO_PROCESS_BYTES)
        _profile_over(tmp_path / "b.csv", cli._TWO_PROCESS_BYTES)
    (forks, two), (none, one) = (_cli_in_a_child(tmp_path, args, pinned=pinned) for pinned in (False, True))
    assert (forks, none) == (1, 0)
    assert two == one
    code, stdout, stderr, data = two
    if args[0] == "table":
        assert (code, stdout, stderr) == (1, "", f"error: {Path('corpus', 'bad.csv')}: line 3: not an integer: 'x'\n")
        assert data.count(b"\n") == 2 * cli._TWO_PROCESS_FILES + 2  # the header, every good file and the total
    else:
        assert (code, stderr) == (0, "") and data


def test_a_second_live_thread_keeps_every_input_in_this_process(tmp_path, monkeypatch, forks):
    # a fork copies the calling thread alone
    _table_corpus(tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_TWO_PROCESS_BYTES", 0)
    paths = ["corpus/a.json", "corpus/b.csv", "corpus/c.json"]
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        split = cli._child_half(paths)
        code = run_main(("table", "corpus"), limit=0, out=tmp_path / "out")[0]
    finally:
        release.set()
        waiting.join(timeout=60)
    assert not waiting.is_alive()
    assert (split, code, forks) == (3, 0, [])
    assert cli._child_half(paths) == 1  # with the thread gone


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts its open descriptors in /proc/self/fd")
def test_a_failing_fork_leaves_both_halves_to_this_process(tmp_path, monkeypatch):
    _inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    args = ("merge", "a.json", "b.csv", "c.json", "--include-kh")
    one = run_main(args, limit=NO_LIMIT, out=tmp_path / "out")

    def out_of_processes():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", out_of_processes)
    open_before = os.listdir("/proc/self/fd")
    two = run_main(args, limit=0, out=tmp_path / "out")
    assert os.listdir("/proc/self/fd") == open_before
    assert two == one and two[0] == 0


@pytest.mark.parametrize("step", ["build", "report"])
def test_a_profile_that_runs_out_of_memory_in_a_table_costs_only_its_own_row(
    tmp_path, monkeypatch, forks, step
):
    # c.json is in this process's half of the listing, b.csv and bad.csv in the child's
    _table_corpus(tmp_path / "corpus")
    (tmp_path / "corpus" / "bad.csv").write_text(_BAD_CSV, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    owner, name = (ProfileDocument, "to_profile") if step == "build" else (cli, "compute_report")
    step_of = getattr(owner, name)

    def out_of_memory_for_b_and_c(item):
        if item.author_id in ("b", "c"):
            raise MemoryError
        return step_of(item)

    monkeypatch.setattr(owner, name, out_of_memory_for_b_and_c)
    args = ("table", "corpus", "--with-total")
    runs = {}
    for limit in (0, NO_LIMIT):
        runs[limit] = run_main(args, limit=limit, out=tmp_path / "out")
        assert len(forks) == (1 if limit == 0 else 0)
        forks.clear()
    assert runs[0] == runs[NO_LIMIT]
    code, stdout, stderr, table = runs[0]
    assert (code, stdout) == (1, b"")
    assert stderr.decode("utf-8").splitlines() == [
        f"error: {Path('corpus', 'bad.csv')}: line 3: not an integer: 'x'",
        "error: corpus: b: out of memory",
        "error: corpus: c: out of memory",
    ]
    assert [line.split(",")[0] for line in table.decode("utf-8").splitlines()] == [
        "no", "d", "a", "a", "f", "e", "total"
    ]
    for name in ("b.csv", "c.json"):  # the total pools the rows shown, as a corpus without b and c does
        (tmp_path / "corpus" / name).unlink()
    assert table.splitlines()[-1] == run_main(args, limit=NO_LIMIT, out=tmp_path / "out")[3].splitlines()[-1]


@pytest.mark.parametrize("end", ["killed", "cut-short"])
def test_a_table_child_that_ends_without_its_whole_payload_is_recovered(
    tmp_path, monkeypatch, forks, end
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
        _cut_short(monkeypatch)
    args = ("table", "corpus", "--with-total", "--include-kh")
    recovered = run_main(args, limit=0, out=tmp_path / "out")
    assert len(forks) == 1
    assert recovered == run_main(args, limit=NO_LIMIT, out=tmp_path / "out")
    assert recovered[:3] == (1, b"", f"error: {Path('corpus', 'bad.csv')}: line 3: not an integer: 'x'\n".encode())


@pytest.mark.parametrize(
    "args, shown",
    [
        pytest.param(
            ("merge", "corpus/a.json", os.fsdecode(b"corpus/z\xff.csv"), "--label", "team"),
            b"c_sigma: %d\n" % (2**54 + 2 + 18),
            id="merge",
        ),
        pytest.param(("table", "corpus"), b"\nz\xff,3,3,%d," % (2**54 + 2), id="table"),
    ],
)
def test_the_child_half_comes_back_whole(tmp_path, monkeypatch, forks, args, shown):
    # z\xff.csv, in the child's half, gives an author id with a surrogate (a merged document
    # could not hold it, so merge takes a label), and counts whose sum passes 2**53:
    # c_sigma is an int that no float holds, and c_s a rounded float
    _table_corpus(tmp_path / "corpus")
    (tmp_path / "corpus" / os.fsdecode(b"z\xff.csv")).write_text(f"citations\n{2**53}\n{2**53 - 1}\n3\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    runs = {}
    for limit in (0, NO_LIMIT):
        runs[limit] = run_main((*args, "--include-kh"), limit=limit, out=tmp_path / "out")
        assert len(forks) == (1 if limit == 0 else 0)
        forks.clear()
    assert runs[0] == runs[NO_LIMIT]
    code, stdout, stderr, data = runs[0]
    assert (code, stderr) == (0, b"")
    assert shown in stdout + data


def test_a_table_below_the_threshold_lists_its_directory_once(tmp_path, monkeypatch, forks):
    # in one process, forked or not, so one listing serves the count that decides and the files read
    _table_corpus(tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    listings, scandir = [], os.scandir
    monkeypatch.setattr(os, "scandir", lambda path: listings.append(path) or scandir(path))
    runs = []
    for may_fork in (True, False):  # False: as when traced, on one CPU or beside another thread
        with mock.patch.object(cli, "_may_fork", return_value=may_fork):
            runs.append(run_main(("table", "corpus", "--with-total"), out=tmp_path / "out"))
        assert len(listings) == 1
        listings.clear()
    assert runs[0] == runs[1]
    assert (runs[0][0], runs[0][2], forks) == (0, b"", [])


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
