"""The CLI's one-line promise, over generated file bytes.

Whatever the input files or standard input hold, and whether or not
the ``-o`` target can be written, each of the five subcommands ends in
either its output or ``error:`` lines on stderr, never a traceback, and
it exits 1 exactly when it wrote an error line.  ``table`` goes on past
a bad file: one error line per bad file, one row per good one, and one
more error line when its table cannot be written.  ``table``, ``merge``,
``plot`` and ``compare`` write the same bytes and exit with the same code
whether a forked child loads half of their inputs or not.
"""

import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetric import collective_report, merge_profiles, parse_profile, write_report_table
from harness import TWO_PROCESSES, run_main

_GOOD_COUNT = st.one_of(st.integers(0, 40), st.sampled_from([2**53 - 1, 2**53]))  # 2**53 is the largest taken
_COUNT = st.one_of(_GOOD_COUNT, st.sampled_from([2**53 + 1, -1]))
_SCALAR = st.one_of(st.none(), st.booleans(), _COUNT, st.floats(), st.text(max_size=4))
_VALUE = st.one_of(  # every JSON type
    _SCALAR, st.lists(_SCALAR, max_size=2), st.dictionaries(st.text(max_size=2), _SCALAR, max_size=2)
)
_GOOD_JSON = st.fixed_dictionaries(
    {"author_id": st.text(min_size=1, max_size=4), "citations": st.lists(_GOOD_COUNT, max_size=6)},
    optional={"career_years": st.integers(1, 60), "source": st.text(max_size=4)},
)
_ANY_JSON = st.fixed_dictionaries(
    {
        "author_id": st.one_of(st.text(max_size=4), st.sampled_from(["\ud800", "\udcff"]), _VALUE),
        "citations": st.one_of(st.lists(_COUNT, max_size=6), _VALUE),
    },
    optional={"career_years": _VALUE, "source": _VALUE},
)
_GOOD_CELLS = st.lists(_GOOD_COUNT.map(str), max_size=6)
_ANY_CELLS = st.lists(
    st.one_of(_COUNT.map(str), st.sampled_from(["", " 7 ", "+3", "-0", "007", "1_0", "0x1", "1e3", "٣", "x", "9" * 4301])),
    max_size=6,
)


@st.composite
def _json_bytes(draw, documents):
    # ensure_ascii writes a lone surrogate as \ud800, else surrogatepass writes its bytes, which are not UTF-8
    return json.dumps(draw(documents), ensure_ascii=draw(st.booleans())).encode("utf-8", "surrogatepass")


@st.composite
def _csv_bytes(draw, cells):
    header = draw(st.sampled_from(["citations", "citations", "citations\r", " citations ", "count", ""]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (end.join([header, *draw(cells)]) + end * draw(st.integers(0, 2))).encode("utf-8")


_CONTENTS = [
    ("json", _json_bytes(_GOOD_JSON)),
    ("json", _json_bytes(_ANY_JSON)),
    ("csv", _csv_bytes(_GOOD_CELLS)),
    ("csv", _csv_bytes(_ANY_CELLS)),
    ("csv", st.binary(max_size=24)),
]


@st.composite
def _file(draw):
    """A file's format, mostly the one its bytes were drawn as, and its bytes."""
    fmt, data = draw(st.sampled_from(_CONTENTS))
    data = draw(data)
    if draw(st.integers(0, 7)) == 0:
        fmt = "json" if fmt == "csv" else "csv"
    if draw(st.integers(0, 3)) == 0:
        data = b"\xef\xbb\xbf" + data  # a byte order mark
    if draw(st.integers(0, 7)) == 0:  # splice in bytes that are not UTF-8, or cut the rest off
        at = draw(st.integers(0, len(data)))
        insert = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", None]))
        data = data[:at] if insert is None else data[:at] + insert + data[at:]
    return fmt, data


def _write(directory, files):
    """The paths of the drawn files, written into ``directory``."""
    paths = []
    for i, (fmt, data) in enumerate(files):
        path = Path(directory, f"p{i}.{fmt}")
        path.write_bytes(data)
        paths.append(str(path))
    return paths


def _error_lines(err):
    err = err.decode("utf-8")
    assert err == "" or err.endswith("\n")
    lines = err.split("\n")[:-1]
    assert all(line.startswith("error:") for line in lines), err
    return lines


def _args(command, directory, paths, flag):
    if command == "compute":
        return ["compute", paths[0], *(["--format", "csv", "--include-kh"] if flag else [])]
    if command == "table":
        return ["table", directory, "--format", "csv", *(["--with-total"] if flag else [])]
    if command == "merge":
        return ["merge", *paths, *(["--format", "csv"] if flag else [])]
    if command == "plot":
        return ["plot", *paths, *(["--with-merged", "--guides", "--include-g"] if flag else ["--format", "csv"])]
    return ["compare", *(paths if len(paths) > 1 else paths * 2), *(["--format", "md"] if flag else [])]


@pytest.mark.parametrize("command", ["compute", "table", "merge", "plot", "compare"])
@settings(max_examples=100, deadline=None)
@given(
    files=st.lists(_file(), min_size=1, max_size=3),
    flag=st.booleans(),
    stdin=st.one_of(st.none(), st.integers(0, 2)),  # the input, if any, read as - from standard input
    output=st.sampled_from([None, None, "missing", "directory"]),  # an -o target that cannot be written
)
def test_any_file_bytes_end_in_output_or_error_lines_and_the_exit_code_says_which(command, files, flag, stdin, output):
    with tempfile.TemporaryDirectory() as directory:
        paths = _write(directory, files)
        args = _args(command, directory, paths, flag)
        piped = b""
        if stdin is not None and command != "table":  # table reads a directory
            at = 0 if command == "compute" else stdin % len(paths)  # compute reads the first path
            args[args.index(paths[at])], piped = "-", files[at][1]
        if output is not None:
            args += ["-o", str(Path(directory, "missing", "out")) if output == "missing" else directory]
        code, out, err, _ = run_main(args, stdin=piped)
        lines = _error_lines(err)
        assert code == (1 if lines else 0)
        if output is not None:
            assert lines and out == b""
        if command != "table":
            return
        bad = [path for path in paths if run_main(["compute", path])[0] == 1]
        good = [path for path in paths if path not in bad]
        assert sorted(line.split(": ")[1] for line in lines[: len(bad)]) == sorted(bad)
        if good and output is not None:
            assert len(lines) == len(bad) + 1  # and the -o target's line
        elif good:
            rows = list(csv.reader(io.StringIO(out.decode("utf-8"), newline="")))[1:]
            assert len(lines) == len(bad)
            assert len(rows) == len(good) + flag  # and the total row
            if flag:  # the total row pools exactly the rows shown: the good files' profiles
                total = collective_report(merge_profiles([parse_profile(path).to_profile() for path in good]))
                written = write_report_table([], "csv", total=total)
                assert rows[-1] == list(csv.reader(io.StringIO(written, newline="")))[-1]
        else:
            assert lines[len(bad) :] == [f"error: no readable profiles in {directory}"]
            assert out == b""


@pytest.mark.skipif(not TWO_PROCESSES, reason="inputs load in two processes only here")
@pytest.mark.parametrize("command", ["table", "merge", "plot", "compare"])
@settings(max_examples=50, deadline=None)
@given(files=st.lists(_file(), min_size=2, max_size=5), flag=st.booleans())
def test_any_file_bytes_give_the_same_exit_code_and_bytes_in_two_processes_as_in_one(command, files, flag):
    # at thresholds of 0, any two files or entries load in two processes; at no limit, in one
    with tempfile.TemporaryDirectory() as directory:
        args = _args(command, directory, _write(directory, files), flag)
        two, one = (run_main(args, limit=limit, out=Path(directory, "out")) for limit in (0, sys.maxsize))
        assert two == one
        with pytest.raises(ChildProcessError):  # no child is left, running or unreaped
            os.waitpid(-1, os.WNOHANG)
