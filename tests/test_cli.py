import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from citemetric import synthesize_counts
from citemetric.cli import main


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
    monkeypatch.setattr("sys.stdin", io.StringIO('{"author_id": "s", "citations": [4]}'))
    assert main(["compute", "-"]) == 0
    assert "kh1: 4.0\n" in capsys.readouterr().out


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
    "make_bad",
    [
        pytest.param(lambda path: path.mkdir(), id="directory"),
        pytest.param(lambda path: path.write_bytes(b'{"author_id": "\xe9", "citations": [1]}'), id="not-utf8"),
    ],
)
def test_table_isolates_unreadable_entries(tmp_path, capsys, make_bad):
    _write_json(tmp_path / "good.json", "good", [4])
    make_bad(tmp_path / "x.json")
    assert main(["table", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {tmp_path / 'x.json'}: ")
    assert any(row.startswith("good,") for row in captured.out.splitlines())


def test_compute_non_utf8_file_fails_with_diagnostic(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"author_id": "\xe9", "citations": [1]}')
    assert main(["compute", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not UTF-8 text")
    assert len(captured.err.splitlines()) == 1


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
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import citemetric.cli; "
        "print(sorted(m for m in ('xml.sax', 'urllib.request', 'http.client', 'email') if m in sys.modules))"
    )
    child = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert child.stdout == "[]\n"
