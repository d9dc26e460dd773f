import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetric import synthesize_counts
from citemetric.cli import main


_SRC = Path(__file__).resolve().parents[1] / "src"


def _child_env(encoding="utf-8"):
    """A CLI child's environment: this checkout's source, and the tests' own guards.

    Those are no bytecode written into the checkout, the development mode's
    checks and a warning for text read or written in the locale's encoding.
    """
    env = {"PYTHONPATH": str(_SRC), "PYTHONIOENCODING": encoding}
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONDEVMODE", "PYTHONWARNDEFAULTENCODING"):
        if name in os.environ:
            env[name] = os.environ[name]
    return env


def _write_json(path, author_id, citations, **extra):
    data = {"author_id": author_id, "citations": list(citations), **extra}
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_compute_text_output(tmp_path, capsys):
    path = _write_json(tmp_path / "w.json", "w", [2, 0, 0])
    assert main(["compute", path]) == 0
    out = capsys.readouterr().out
    assert "kh1: 2.0\n" in out
    assert "kh2: 1.4\n" in out
    assert "kh3: 1.7\n" in out
    assert "m: -\n" in out


def test_compute_rounds_for_display(tmp_path, capsys):
    path = _write_json(tmp_path / "a.json", "a", [7, 1], career_years=7)
    assert main(["compute", path]) == 0
    out = capsys.readouterr().out
    assert "kh3: 4.2\n" in out
    assert "m: 0.1\n" in out
    assert "c_s: 4.0\n" in out


def test_compute_csv_output(tmp_path, capsys):
    path = _write_json(tmp_path / "w.json", "w", [2, 0, 0], career_years=2)
    assert main(["compute", path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "w,3,1,2,2,2,2.0,1,1,0.5,0,2.0,1.4,1.7"


def test_compute_reads_stdin_dash(tmp_path, capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b'{"author_id": "s", "citations": [4]}'), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["compute", "-"]) == 0
    assert "kh1: 4.0\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "stream, args",
    [("stdin", ["compute", "-"]), ("stdout", ["compute", None]), ("stdout", ["merge", None, "-o", "m.json"])],
)
def test_a_closed_standard_stream_ends_in_one_error_line(tmp_path, capsys, monkeypatch, stream, args):
    path = _write_json(tmp_path / "a.json", "a", [3, 1])
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(f"sys.{stream}", None)  # what the interpreter sets when the descriptor was closed at start
    assert main([arg or path for arg in args]) == 1
    what = "input" if stream == "stdin" else "output"
    assert capsys.readouterr().err == f"error: standard {what} is closed\n"
    assert not (tmp_path / "m.json").exists()  # merge fails before it writes its document


@pytest.mark.parametrize("fd, what", [(0, "input"), (1, "output")])
def test_a_child_with_a_closed_standard_stream_ends_in_one_error_line(tmp_path, fd, what):
    path = _write_json(tmp_path / "a.json", "a", [3, 1])
    argv = [sys.executable, "-m", "citemetric.cli", "compute", "-" if fd == 0 else path]
    child = subprocess.run(
        ["sh", "-c", f'exec "$@" {fd}<&-', "sh", *argv],  # the shell closes the descriptor, then runs the CLI
        env=_child_env(),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (1, f"error: standard {what} is closed\n")


def test_compute_missing_file_fails_with_diagnostic(tmp_path, capsys):
    assert main(["compute", str(tmp_path / "gone.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_compute_malformed_json_names_the_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken", encoding="utf-8")
    assert main(["compute", str(path)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_env_var_sets_default_format(tmp_path, capsys, monkeypatch):
    path = _write_json(tmp_path / "w.json", "w", [2])
    monkeypatch.setenv("CITEMETRIC_FORMAT", "csv")
    assert main(["compute", path]) == 0
    assert capsys.readouterr().out.startswith("no,r0,")
    monkeypatch.setenv("CITEMETRIC_FORMAT", "md")  # not valid for compute, fall back to text
    assert main(["compute", path]) == 0
    assert "kh1: 2.0" in capsys.readouterr().out


def test_table_orders_by_top_count_then_id(tmp_path, capsys):
    _write_json(tmp_path / "y.json", "y", [9, 1])
    _write_json(tmp_path / "x.json", "x", [9])
    _write_json(tmp_path / "z.json", "z", [5, 5])
    assert main(["table", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["x", "y", "z"]


def test_table_with_total_and_kh(tmp_path, capsys):
    _write_json(tmp_path / "a.json", "a", [3])
    _write_json(tmp_path / "b.json", "b", [2, 1])
    assert main(["table", str(tmp_path), "--with-total", "--include-kh"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].endswith(",kh")
    assert rows[-1].startswith("total,3,3,6,")


def test_table_markdown(tmp_path, capsys):
    _write_json(tmp_path / "a.json", "a", [3])
    assert main(["table", str(tmp_path), "--format", "md"]) == 0
    assert capsys.readouterr().out.startswith("| no | r0 |")


def test_table_reports_bad_files_but_finishes(tmp_path, capsys):
    _write_json(tmp_path / "good.json", "good", [4])
    (tmp_path / "bad.json").write_text("{oops", encoding="utf-8")
    assert main(["table", str(tmp_path)]) == 1  # diagnostics were emitted
    captured = capsys.readouterr()
    assert "bad.json" in captured.err
    assert any(row.startswith("good,") for row in captured.out.splitlines())


@pytest.mark.parametrize(
    "make_bad, message",
    [
        pytest.param(lambda path: path.mkdir(), "not a regular file", id="directory"),
        pytest.param(
            lambda path: path.write_bytes(b'{"author_id": "\xe9", "citations": [1]}'), "not UTF-8 text", id="not-utf8"
        ),
        pytest.param(os.mkfifo, "not a regular file", id="fifo"),  # opening it would wait for a writer
        pytest.param(lambda path: path.symlink_to(os.devnull), "not a regular file", id="devnull-symlink"),
        pytest.param(lambda path: path.symlink_to("nowhere"), "[Errno 2] No such file or directory", id="dangling"),
        pytest.param(lambda path: path.symlink_to(path.name), "[Errno 40] Too many levels", id="symlink-loop"),
    ],
)
def test_table_isolates_unreadable_entries(tmp_path, make_bad, message):
    _write_json(tmp_path / "good.json", "good", [4])
    make_bad(tmp_path / "x.json")
    # in a child process, so that a scan that blocks on an entry fails the test instead of hanging it
    child = subprocess.run(
        [sys.executable, "-m", "citemetric.cli", "table", str(tmp_path)],
        env=_child_env(),
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=60,
    )
    assert child.returncode == 1
    assert len(child.stderr.splitlines()) == 1
    assert child.stderr.startswith(f"error: {tmp_path / 'x.json'}: {message}")
    assert any(row.startswith("good,") for row in child.stdout.splitlines())


_BAD_ENTRIES = {
    "fifo": os.mkfifo,
    "directory": Path.mkdir,
    "dangling": lambda path: path.symlink_to("nowhere"),
    "symlink-loop": lambda path: path.symlink_to(path.name),
}


@settings(max_examples=10, deadline=None)
@given(
    goods=st.lists(st.tuples(st.sampled_from([".json", ".csv"]), st.booleans()), min_size=1, max_size=4),
    bads=st.lists(
        st.tuples(st.sampled_from(sorted(_BAD_ENTRIES)), st.sampled_from([".json", ".csv"]), st.booleans()),
        min_size=1,
        max_size=5,
    ),
)
def test_table_of_a_mixed_directory_reports_each_bad_entry_and_tabulates_each_profile(tmp_path_factory, goods, bads):
    """Profiles, FIFOs, directories named x.json and broken symlinks, some under non-UTF-8 names, in one scan."""
    directory = tmp_path_factory.mktemp("mixed")

    def entry(i, suffix, non_utf8):
        return directory / os.fsdecode(b"\xff" * non_utf8 + f"e{i}{suffix}".encode())

    ids = set()
    for i, (suffix, non_utf8) in enumerate(goods):
        path = entry(i, suffix, non_utf8)
        if suffix == ".json":
            _write_json(path, f"g{i}", [i + 1])
            ids.add(f"g{i}")
        else:  # a CSV profile takes its id from the file name
            path.write_text(f"citations\n{i + 1}\n", encoding="utf-8")
            ids.add(path.stem)
    bad_paths = []
    for i, (kind, suffix, non_utf8) in enumerate(bads, start=len(goods)):
        path = entry(i, suffix, non_utf8)
        _BAD_ENTRIES[kind](path)
        bad_paths.append(path)
    # in a child process with a deadline, so that a scan that blocks on an entry fails instead of hanging
    child = subprocess.run(
        [sys.executable, "-m", "citemetric.cli", "table", str(directory)],
        env=_child_env(),
        capture_output=True,
        encoding="utf-8",
        errors="surrogateescape",
        timeout=60,
    )
    assert child.returncode == 1
    errors = child.stderr.splitlines()
    assert len(errors) == len(bad_paths)
    for path in bad_paths:  # stderr shows a non-UTF-8 byte as its escaped surrogate
        shown = str(path).encode("utf-8", "backslashreplace").decode("utf-8")
        assert sum(line.startswith(f"error: {shown}: ") for line in errors) == 1
    assert {row.split(",")[0] for row in child.stdout.splitlines()[1:]} == ids


def test_compute_non_utf8_file_fails_with_diagnostic(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"author_id": "\xe9", "citations": [1]}')
    assert main(["compute", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not UTF-8 text")
    assert len(captured.err.splitlines()) == 1


def test_table_reads_profiles_named_in_any_letter_case_and_dotfiles(tmp_path, capsys):
    _write_json(tmp_path / "A.JSON", "upper", [5, 1])
    (tmp_path / "b.Csv").write_text("citations\n4\n", encoding="utf-8")
    _write_json(tmp_path / ".json", "dotfile", [3])
    assert main(["table", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [row.split(",")[0] for row in captured.out.splitlines()] == ["no", "upper", "b", "dotfile"]


def test_table_empty_directory_fails(tmp_path, capsys):
    assert main(["table", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_merge_emits_document_and_report(tmp_path, capsys):
    a = _write_json(tmp_path / "a.json", "a", [3])
    b = _write_json(tmp_path / "b.json", "b", [2, 1])
    assert main(["merge", a, b, "--label", "pair"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out.splitlines()[0])
    assert doc == {"author_id": "pair", "citations": [3, 2, 1]}
    assert "c_sigma: 6\n" in out
    assert "m: -\n" in out


def test_merge_writes_document_to_file(tmp_path, capsys):
    a = _write_json(tmp_path / "a.json", "a", [3])
    out_path = tmp_path / "merged.json"
    assert main(["merge", a, "--label", "solo", "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc == {"author_id": "solo", "citations": [3]}
    assert "r0: 1\n" in capsys.readouterr().out


def test_merge_group_sums(tmp_path, capsys):
    paths = []
    for name, (r0, r, c_sigma, c_max) in {
        "g1": (734, 314, 8801, 2589),
        "g2": (1127, 541, 3649, 97),
        "g3": (301, 60, 219, 13),
    }.items():
        paths.append(_write_json(tmp_path / f"{name}.json", name, synthesize_counts(r0, r, c_sigma, c_max)))
    assert main(["merge", *paths, "--label", "all", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    row = out.splitlines()[-1]
    assert row.startswith("all,2162,915,12669,")
    assert ",112.6," in row


def test_plot_svg_file(tmp_path, capsys):
    a = _write_json(tmp_path / "a.json", "a", [7, 1])
    out_path = tmp_path / "chart.svg"
    assert main(["plot", a, "-o", str(out_path)]) == 0
    svg = out_path.read_text(encoding="utf-8")
    assert svg.startswith('<?xml version="1.0"')
    assert svg.count("<path ") == 1
    assert svg.count('class="marker') == 4


def test_plot_with_merged_overlay(tmp_path):
    paths = [
        _write_json(tmp_path / name, name.split(".")[0], counts)
        for name, counts in [("a.json", [9, 2]), ("b.json", [4]), ("c.json", [3, 3])]
    ]
    out_path = tmp_path / "chart.svg"
    assert main(["plot", *paths, "--with-merged", "--guides", "-o", str(out_path)]) == 0
    svg = out_path.read_text(encoding="utf-8")
    assert svg.count("<path ") == 4  # three member curves plus the pooled overlay
    assert svg.count("stroke-dasharray") == 1


def test_plot_log_axis_flag(tmp_path):
    a = _write_json(tmp_path / "a.json", "a", [1000, 10, 1])
    out_path = tmp_path / "chart.svg"
    assert main(["plot", a, "--log-y", "-o", str(out_path)]) == 0
    assert ">1000<" in out_path.read_text(encoding="utf-8")  # decade tick labels


def test_plot_points_csv(tmp_path, capsys):
    a = _write_json(tmp_path / "a.json", "a", [7, 1])
    assert main(["plot", a, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "label,kind,r,c"
    assert "a,kh1,1.3,5.2" in out


def test_plot_points_csv_writes_curve_counts_whole(tmp_path, capsys):
    # an 11-digit count keeps every digit in its curve row; marker rows keep ten significant digits
    b = _write_json(tmp_path / "b.json", "b", [12345678901, 98765, 3])
    assert main(["plot", b, "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "label,kind,r,c\n"
        "b,curve,1,12345678901\nb,curve,2,98765\nb,curve,3,3\nb,curve,4,0\n"
        "b,h,3,3\nb,kh1,1.5,6172888834\nb,kh2,1.999999,111111.5551\nb,kh3,1.99999,222221.999\n"
    )


def test_table_quotes_an_id_of_a_bare_cr(tmp_path, capsysbinary):
    # csv before Python 3.13 leaves the cell unquoted, so a CSV reader splits the row at the CR
    (tmp_path / "cr.json").write_text('{"author_id": "\\r", "citations": []}', encoding="utf-8")
    assert main(["table", str(tmp_path)]) == 0
    assert capsysbinary.readouterr().out == (
        b"no,r0,r,c_sigma,c10,c_max,c_s,h,g,m,i10,kh1,kh2,kh3\n"
        b'"\r",0,0,0,0,0,0.0,0,0,-,0,0.0,0.0,0.0\n'
    )


def test_plot_is_deterministic(tmp_path):
    a = _write_json(tmp_path / "a.json", "a", [8, 3, 2])
    first, second = tmp_path / "one.svg", tmp_path / "two.svg"
    assert main(["plot", a, "--guides", "-o", str(first)]) == 0
    assert main(["plot", a, "--guides", "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_compare_ratio_row(tmp_path, capsys):
    a = _write_json(tmp_path / "a.json", "w", synthesize_counts(200, 68, 737, 100), source="scholar")
    b = _write_json(tmp_path / "b.json", "w", synthesize_counts(16, 12, 23, 11), source="wos")
    assert main(["compare", a, b]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "source,r0,r,c_sigma,mean_per_work,mean_per_cited,h,i10"
    assert rows[1].split(",")[:4] == ["scholar", "200", "68", "737"]
    ratio = rows[-1].split(",")
    assert ratio[0] == "max/min"
    assert ratio[3] == "32.0"  # 737 / 23
    assert ratio[1] == "12.5"  # 200 / 16


def test_compare_prints_dash_for_undefined_cells(tmp_path, capsys):
    a = _write_json(tmp_path / "a.json", "w", [4], source="s1")
    b = _write_json(tmp_path / "b.json", "w", [0, 0], source="s2")
    assert main(["compare", a, b]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[2].split(",")[5] == "-"  # mean per cited work undefined when r == 0
    assert rows[-1].split(",")[5] == "-"


def test_compare_identical_sources_all_ratios_one(tmp_path, capsys):
    a = _write_json(tmp_path / "a.json", "w", [6, 2], source="s1")
    b = _write_json(tmp_path / "b.json", "w", [6, 2], source="s2")
    assert main(["compare", a, b]) == 0
    ratio = capsys.readouterr().out.splitlines()[-1].split(",")
    assert ratio[1:4] == ["1.0", "1.0", "1.0"]


def test_compare_needs_two_sources(tmp_path, capsys):
    a = _write_json(tmp_path / "a.json", "w", [6, 2])
    with pytest.raises(SystemExit) as excinfo:
        main(["compare", a])
    assert excinfo.value.code != 0


def test_compare_markdown(tmp_path, capsys):
    a = _write_json(tmp_path / "a.json", "w", [6, 2], source="s1")
    b = _write_json(tmp_path / "b.json", "w", [5], source="s2")
    assert main(["compare", a, b, "--format", "md"]) == 0
    assert capsys.readouterr().out.startswith("| source | r0 |")


_COMPARE_ROWS = [
    "source,r0,r,c_sigma,mean_per_work,mean_per_cited,h,i10",
    "scholar,4,3,20,5.0,6.7,3,1",
    "wos,{r0},0,0,{mean},-,0,0",
    "ann,3,3,20,6.7,6.7,2,0",
    "max/min,{ratio},-,-,-,-,-,-",
]


@pytest.mark.parametrize(
    "citations, cells",
    [
        pytest.param([], dict(r0=0, mean="-", ratio="-"), id="zero-work"),
        pytest.param([0, 0], dict(r0=2, mean="0.0", ratio="2.0"), id="uncited"),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "md"])
def test_compare_output_bytes_are_pinned(tmp_path, capsys, citations, cells, fmt):
    """Three sources, one of them without works or without cited works: '-' cells and '-' ratios."""
    a = _write_json(tmp_path / "a.json", "ann", [12, 5, 3, 0], source="scholar")
    b = _write_json(tmp_path / "b.json", "ann", citations, source="wos")
    c = tmp_path / "ann.csv"
    c.write_text("citations\n9\n9\n2\n", encoding="utf-8")
    assert main(["compare", a, b, str(c), "--format", fmt]) == 0
    rows = [row.format(**cells).split(",") for row in _COMPARE_ROWS]
    if fmt == "csv":
        expected = "".join(",".join(row) + "\n" for row in rows)
    else:
        rows.insert(1, ["---"] * len(rows[0]))
        expected = "".join("| " + " | ".join(row) + " |\n" for row in rows)
    assert capsys.readouterr().out == expected


def test_output_files_via_dash_o(tmp_path):
    a = _write_json(tmp_path / "a.json", "a", [5, 1])
    out_path = tmp_path / "report.csv"
    assert main(["compute", a, "--format", "csv", "-o", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8").startswith("no,r0,")


def test_compute_text_output_golden(tmp_path, capsys):
    path = _write_json(tmp_path / "a.json", "a", [7, 1, 0], career_years=7)
    assert main(["compute", path]) == 0
    assert capsys.readouterr().out == (
        "author_id: a\nr0: 3\nr: 2\nc_sigma: 8\nc10: 8\nc_max: 7\nc_s: 4.0\nh: 1\ng: 1\n"
        "m: 0.1\ni10: 0\nkh1: 5.2\nkh2: 2.8\nkh3: 4.2\nkh: 5.2\n"
    )


@pytest.mark.parametrize(
    "fmt, report",
    [
        pytest.param(
            "text",
            "author_id: ab\nr0: 6\nr: 5\nc_sigma: 18\nc10: 18\nc_max: 7\nc_s: 3.6\nh: 3\ng: 4\n"
            "m: -\ni10: 0\nkh1: 5.5\nkh2: 4.2\nkh3: 5.9\nkh: 5.9\n",
            id="text",
        ),
        pytest.param(
            "csv",
            "no,r0,r,c_sigma,c10,c_max,c_s,h,g,m,i10,kh1,kh2,kh3\nab,6,5,18,18,7,3.6,3,4,-,0,5.5,4.2,5.9\n",
            id="csv",
        ),
    ],
)
def test_merge_stdout_layout_golden(tmp_path, capsys, fmt, report):
    a = _write_json(tmp_path / "a.json", "a", [7, 1, 0], career_years=7)
    b = _write_json(tmp_path / "b.json", "b", [4, 4, 2])
    assert main(["merge", a, b, "--label", "ab", "--format", fmt]) == 0
    assert capsys.readouterr().out == '{"author_id": "ab", "citations": [7, 4, 4, 2, 1, 0]}\n\n' + report


_UNUSABLE_INPUTS = [
    pytest.param("x.json", '{"author_id": "x"}', "citations is required", id="no-citations"),
    pytest.param(
        "x.json",
        '{"author_id": "x", "citations": 3}',
        "citations must be an array of integers",
        id="citations-not-array",
    ),
    pytest.param(
        "x.json",
        '{"author_id": "x", "citations": [1], "source": 7}',
        "source must be a string, got 7",
        id="source-not-str",
    ),
    pytest.param("x.json", "[" * 100_000, "invalid JSON: nested too deeply", id="deep-nesting"),
    pytest.param(
        "x.json",
        '{"author_id": "x", "citations": [' + "9" * 5000 + "]}",
        "invalid JSON: a number has too many digits",
        id="long-literal",
    ),
    pytest.param(
        "x.json",
        '{"author_id": "x", "citations": [3, 1' + "0" * 400 + "]}",
        "citations[1] is above the largest supported count",
        id="count-over-bound-json",
    ),
    pytest.param(
        "x.csv",
        "citations\n3\n1" + "0" * 400 + "\n",
        "line 3: citations must be at most 2**53",
        id="count-over-bound-csv",
    ),
    pytest.param(
        "x.csv",
        "citations\n3\n+1" + "0" * 5000 + "\n",
        "line 3: citations must be at most 2**53\n",
        id="over-long-csv-cell",
    ),
    pytest.param(
        "x.csv",
        "citations\n3\n-1" + "0" * 5000 + "\n",
        "line 3: citations must be non-negative\n",
        id="over-long-negative-csv-cell",
    ),
    pytest.param(
        "x.json",
        '{"author_id": "a\\ud800", "citations": [1]}',
        "author_id has a lone surrogate at position 1",
        id="surrogate-author-id",
    ),
    pytest.param(
        "x.json",
        '{"author_id": "x", "citations": [1], "source": "\\udfff"}',
        "source has a lone surrogate at position 0",
        id="surrogate-source",
    ),
    pytest.param(
        "x.json",
        '{"author_id": "\\udcff", "citations": [1]}',
        "author_id holds the byte 0xff at position 0, which is not UTF-8",
        id="escaped-byte-author-id",
    ),
    pytest.param("x.csv", "citations\n3\n1_000\n", "line 3: not an integer: '1_000'\n", id="underscore-csv-cell"),
    pytest.param(
        "x.csv", "citations\n\u0663\n", "line 2: not an integer: '\u0663'\n", id="non-ascii-digit-csv-cell"
    ),
    pytest.param(
        "x.csv",
        "citations\n" + "x" * 5000 + "\n",
        "line 2: not an integer: 'xxxxxxxxxxxxxxxxxxxx\u2026' (5000 characters)\n",
        id="long-garbage-csv-cell",
    ),
]


@pytest.mark.parametrize("name, text, message", _UNUSABLE_INPUTS)
def test_compute_rejects_unusable_input_with_one_diagnostic(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["compute", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert len(captured.err.splitlines()) == 1
    assert len(captured.err.encode("utf-8")) < 200


@pytest.mark.parametrize("name, text, message", _UNUSABLE_INPUTS)
def test_table_keeps_good_rows_past_unusable_input(tmp_path, capsys, name, text, message):
    _write_json(tmp_path / "good.json", "good", [4])
    (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(["table", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {tmp_path / name}: {message}")
    assert len(captured.err.splitlines()) == 1
    assert any(row.startswith("good,") for row in captured.out.splitlines())


def test_compute_accepts_the_largest_supported_count(tmp_path, capsys):
    path = _write_json(tmp_path / "top.json", "top", [2**53, 0])
    assert main(["compute", path, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(f"top,2,1,{2**53},{2**53},{2**53},")


def test_table_written_into_its_own_directory_is_not_read_back(tmp_path):
    _write_json(tmp_path / "a.json", "a", [5, 1])
    _write_json(tmp_path / "b.json", "b", [3, 3])
    out_path = tmp_path / "report.csv"
    outputs = []
    for _ in range(2):
        assert main(["table", str(tmp_path), "-o", str(out_path)]) == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert [row.split(",")[0] for row in outputs[0].decode().splitlines()] == ["no", "a", "b"]


def test_cli_import_loads_no_xml_or_network_modules():
    # -S keeps site-packages' .pth hooks, which may import these themselves, out of the child
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import citemetric.cli; "
        "print(sorted(m for m in ('xml.sax', 'urllib.request', 'http.client', 'email', 'dataclasses', 'inspect')"
        " if m in sys.modules))"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", code, str(_SRC)], capture_output=True, text=True, encoding="utf-8", check=True
    )
    assert child.stdout == "[]\n"


def test_the_package_loads_the_standard_library_only():
    # -S as above; __main__ is the child's own -c code
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import citemetric, citemetric.cli, citemetric.synth; "
        "print(sorted({m.partition('.')[0] for m in sys.modules} - sys.stdlib_module_names - {'__main__'}))"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", code, str(_SRC)], capture_output=True, text=True, encoding="utf-8", check=True
    )
    assert child.stdout == "['citemetric']\n"


def test_merge_document_bytes_are_pinned(tmp_path):
    """The merged document of two 10^5-work Pareto profiles, hashed before write_profile wrote in blocks."""
    rng = random.Random(7)
    a, b = ([0 if rng.random() < 0.2 else int(2 * rng.paretovariate(1.1)) for _ in range(100_000)] for _ in "ab")
    _write_json(tmp_path / "a.json", "a", a, career_years=12, source="scholar")
    (tmp_path / "b.csv").write_text("citations\n" + "".join(f"{c}\n" for c in b), encoding="utf-8")
    out_path = tmp_path / "pooled.json"
    args = ["merge", str(tmp_path / "a.json"), str(tmp_path / "b.csv"), "--label", "pooled", "-o", str(out_path)]
    assert main(args) == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == "fb8ebba0806c4007fde241bed502c911793c1b230ecb6a0fadd2da10d321a1c3"


@pytest.mark.parametrize(
    "args, out_name, expected",
    [
        pytest.param(("compute", "\udcff.csv"), None, b"author_id: \xff\n", id="compute-stdout"),
        pytest.param(("table", ".", "-o", "t.csv"), "t.csv", b"\n\xff,2,2,4,", id="table"),
        pytest.param(  # the SVG is UTF-8 XML, so the byte is written as U+FFFD
            ("plot", "\udcff.csv", "--with-merged", "-o", "p.svg"), "p.svg", b'data-label="\xef\xbf\xbd"', id="plot"
        ),
    ],
)
def test_ids_from_non_utf8_names_are_written_back_as_their_bytes(tmp_path, args, out_name, expected):
    # the file name \xff.csv (and the label \xfe) reach the program as surrogateescape code points
    (tmp_path / "\udcff.csv").write_text("citations\n3\n1\n", encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "citemetric.cli", *args],
        cwd=tmp_path,
        env=_child_env(),
        capture_output=True,
    )
    assert child.returncode == 0, child.stderr
    output = (tmp_path / out_name).read_bytes() if out_name else child.stdout
    assert expected in output
    if out_name == "p.svg":
        ElementTree.fromstring(output)


@pytest.mark.parametrize("encoding", ["utf-8:strict", "latin-1"])
def test_compute_reads_stdin_as_utf8_whatever_the_stdio_encoding(encoding):
    def compute(data):
        return subprocess.run(
            [sys.executable, "-m", "citemetric.cli", "compute", "-"],
            input=data,
            env=_child_env(encoding),
            capture_output=True,
        )

    good = compute('{"author_id": "\u00e9", "citations": [1]}'.encode("utf-8"))
    assert good.returncode == 0, good.stderr
    assert good.stdout.startswith("author_id: \u00e9\n".encode("utf-8"))
    bad = compute(b'{"author_id":"\xff","citations":[1]}')
    assert bad.returncode == 1
    assert bad.stdout == b""
    assert bad.stderr.startswith(b"error: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 14")
    assert len(bad.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "args, byte",
    [
        pytest.param(("merge", "\udcff.csv", "--label", "\udcfe", "-o", "m.json"), b"0xfe", id="label"),
        pytest.param(("merge", "\udcff.csv", "-o", "m.json"), b"0xff", id="file-name"),
    ],
)
def test_merge_rejects_an_id_that_utf8_cannot_encode(tmp_path, args, byte):
    # a JSON document holding the bytes \xfe or \xff could not be read back by any command
    (tmp_path / "\udcff.csv").write_text("citations\n3\n1\n", encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "citemetric.cli", *args],
        cwd=tmp_path,
        env=_child_env(),
        capture_output=True,
    )
    assert child.returncode == 1
    assert child.stdout == b""
    assert child.stderr.startswith(b"error: author_id holds the byte " + byte + b" at position 0, which is not UTF-8")
    assert len(child.stderr.splitlines()) == 1
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(("merge", "a.json", "--label", ""), "--label must not be empty", id="merge-empty"),
        pytest.param(
            ("plot", "a.json", "--with-merged", "--label", ""), "--label must not be empty", id="plot-empty"
        ),
        pytest.param(
            ("plot", "a.json", "b.json", "--with-merged", "--label", "b"),
            "--label 'b' is also an input's author id",
            id="plot-label-is-an-input-id",
        ),
        pytest.param(
            ("plot", "merged.json", "b.json", "--with-merged"),
            "--label 'merged' is also an input's author id",
            id="plot-default-label-is-an-input-id",
        ),
    ],
)
def test_unusable_label_fails_with_one_diagnostic(tmp_path, capsys, monkeypatch, args, message):
    for name in ("a", "b", "merged"):
        _write_json(tmp_path / f"{name}.json", name, [3, 1])
    monkeypatch.chdir(tmp_path)
    assert main([*args, "-o", "out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["table", "compare"])
def test_markdown_cells_escape_pipes_and_line_breaks(tmp_path, capsys, command):
    paths = [
        _write_json(tmp_path / "p.json", "a|b", [3, 1], source="a|b"),
        _write_json(tmp_path / "q.json", "line\nbreak", [2], source="line\nbreak"),
    ]
    args = ["table", str(tmp_path)] if command == "table" else ["compare", *paths]
    assert main([*args, "--format", "md"]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines.pop() == ""
    assert len(lines) == 2 + len(paths) + (command == "compare")  # header, rule, one line per row
    pipes = [len(re.findall(r"(?<!\\)\|", line)) for line in lines]
    assert pipes == [pipes[0]] * len(lines)
    assert any(line.startswith("| a\\|b |") for line in lines)
    assert any(line.startswith("| line<br>break |") for line in lines)


@pytest.mark.parametrize(
    "name, data",
    [
        pytest.param("bom.json", '{"author_id": "bom", "citations": [3, 1]}', id="json"),
        pytest.param("bom.csv", "citations\n3\n1\n", id="csv"),
        pytest.param("-", '{"author_id": "bom", "citations": [3, 1]}', id="stdin"),
    ],
)
def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys, monkeypatch, name, data):
    raw = ("\ufeff" + data).encode("utf-8")
    if name == "-":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    else:
        (tmp_path / name).write_bytes(raw)
    assert main(["compute", name if name == "-" else str(tmp_path / name), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("bom,2,2,4,")


def test_plot_of_an_id_with_a_control_character_is_well_formed(tmp_path):
    a = _write_json(tmp_path / "a.json", "ctl\u0001", [3, 1])
    out = tmp_path / "a.svg"
    assert main(["plot", a, "--guides", "-o", str(out)]) == 0
    root = ElementTree.fromstring(out.read_bytes())
    assert root.find("{http://www.w3.org/2000/svg}path").get("data-label") == "ctl\ufffd"


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(("merge", "t.json", "bad.csv"), "bad.csv: line 3: not an integer: 'x'", id="merge"),
        pytest.param(("plot", "t.json", "bad.csv"), "bad.csv: line 3: not an integer: 'x'", id="plot"),
        pytest.param(("compare", "t.json", "bad.csv"), "bad.csv: line 3: not an integer: 'x'", id="compare"),
        pytest.param(("merge", "t.json", "-"), "-: invalid JSON at line 1, column 2", id="merge-stdin"),
        # an OSError's own text names the path, so it is not named twice
        pytest.param(("plot", "t.json", "gone.json"), "[Errno 2] No such file or directory: 'gone.json'", id="os-error"),
    ],
)
def test_commands_of_several_inputs_name_the_input_that_failed_to_load(
    tmp_path, capsys, monkeypatch, args, message
):
    _write_json(tmp_path / "t.json", "t", [3, 1])
    (tmp_path / "bad.csv").write_text("citations\n3\nx\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"{"), encoding="utf-8"))
    assert main([*args, "-o", "out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(("compute", "a.json"), id="compute"),
        pytest.param(("plot", "a.json"), id="plot-svg"),
        pytest.param(("plot", "a.json", "--format", "csv"), id="plot-csv"),
        pytest.param(("merge", "a.json"), id="merge"),
        pytest.param(("table", "."), id="table"),
    ],
)
@pytest.mark.parametrize("sink", ["closed-pipe", "full-device"])
def test_a_child_whose_stdout_fails_ends_in_one_error_line(tmp_path, args, sink):
    """Outputs this small sit in stdout's buffer, so the error comes on the flush, which must not repeat at exit."""
    if sink == "full-device" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    _write_json(tmp_path / "a.json", "a", [3, 1])
    if sink == "closed-pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)  # before the spawn, so every write to the pipe fails
    else:
        stdout = os.open("/dev/full", os.O_WRONLY)  # every write fails with ENOSPC
    try:
        # -X dev also reports an error that the flush at exit hits and ignores
        child = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "citemetric.cli", *args],
            cwd=tmp_path,
            env=_child_env(),
            stdout=stdout,
            stderr=subprocess.PIPE,
            encoding="utf-8",
            timeout=60,
        )
    finally:
        os.close(stdout)
    line = "error: [Errno 32] Broken pipe\n" if sink == "closed-pipe" else "error: [Errno 28] No space left on device\n"
    assert (child.returncode, child.stderr) == (1, line)
