import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetric import (
    ParseError,
    ProfileDocument,
    ValidationError,
    build_profile,
    compute_report,
    format_real,
    parse_profile,
    round_half_up,
    scan_directory,
    write_profile,
    write_report_table,
)
from citemetric.cli import main
from citemetric.ingest import write_table


def test_parse_json_full_document(tmp_path):
    path = tmp_path / "ivanova.json"
    path.write_text(json.dumps({
        "author_id": "ivanova",
        "citations": [4, 0, 9],
        "career_years": 11,
        "source": "scholar",
    }), encoding="utf-8")
    doc = parse_profile(path)
    assert doc == ProfileDocument("ivanova", (4, 0, 9), 11, "scholar")


def test_parse_json_minimal_document(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"author_id": "p", "citations": []}', encoding="utf-8")
    doc = parse_profile(path)
    assert doc == ProfileDocument("p", ())


def test_parse_json_requires_author_id(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"citations": [1]}', encoding="utf-8")
    with pytest.raises(ValidationError, match="author_id"):
        parse_profile(path)


def test_parse_json_rejects_negative_citations(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"author_id": "p", "citations": [2, -1]}', encoding="utf-8")
    with pytest.raises(ValidationError, match=r"citations\[1\]"):
        parse_profile(path)


def test_parse_json_reports_the_error_position(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"author_id": "p",\n  "citations": [1,]}', encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        parse_profile(path)


def test_parse_csv_with_author_id_from_stem(tmp_path):
    path = tmp_path / "petrov.csv"
    path.write_text("citations\n7\n0\n3\n", encoding="utf-8")
    doc = parse_profile(path)
    assert doc == ProfileDocument("petrov", (7, 0, 3))


def test_parse_csv_rejects_other_headers(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("key,value\ncitations,7\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        parse_profile(path)


def test_parse_csv_rejects_non_integer_rows(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("citations\n7\nmany\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 3"):
        parse_profile(path)


def test_parse_csv_rejects_thousands_separators(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("citations\n1,000\n", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_profile(path)


def test_parse_csv_rejects_negative_rows(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("citations\n-4\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 2"):
        parse_profile(path)


def test_parse_stream_needs_format_and_csv_needs_author():
    import io
    doc = parse_profile(io.StringIO('{"author_id": "s", "citations": [1]}'), fmt="json")
    assert doc.author_id == "s"
    with pytest.raises(ValidationError, match="a stream needs an explicit format"):
        parse_profile(io.StringIO('{"author_id": "s", "citations": [1]}'))
    with pytest.raises(ValidationError):
        parse_profile(io.StringIO("citations\n1\n"), fmt="csv")
    doc = parse_profile(io.StringIO("citations\n1\n"), fmt="csv", author_id="s")
    assert doc.citations == (1,)


@pytest.mark.parametrize(
    "name, fmt",
    [("a.json", "json"), ("A.JSON", "json"), ("b.Csv", "csv"), (".json", "json"), ("x.tar.csv", "csv"),
     ("README", ""), ("a.", ""), ("a.txt", "txt")],
)
def test_profile_format_is_the_lower_cased_text_after_the_last_dot(name, fmt):
    from citemetric.ingest import profile_format
    assert profile_format(name) == fmt


def test_unknown_profile_format_is_rejected(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("citations\n1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="unknown profile format: 'txt'"):
        parse_profile(path)
    with pytest.raises(ValidationError, match="unknown profile format: 'xml'"):
        write_profile(ProfileDocument("a", (1,)), "xml")


def test_unknown_table_format_is_rejected():
    with pytest.raises(ValidationError, match="unknown table format: 'html'"):
        write_table(["no"], [["a"]], "html")


def test_round_trip_json():
    from citemetric.ingest import parse_profile_json
    doc = ProfileDocument("weil", (12, 0, 3), 21, "index-db")
    assert parse_profile_json(write_profile(doc, "json")) == doc


def test_round_trip_csv_carries_counts_only():
    from citemetric.ingest import parse_profile_csv
    doc = ProfileDocument("weil", (12, 0, 3))
    assert parse_profile_csv(write_profile(doc, "csv"), "weil") == doc


@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param(
            ProfileDocument("\udcff", (1,)),
            "author_id holds the byte 0xff at position 0, which is not UTF-8",
            id="id-from-file-name-xff",
        ),
        pytest.param(
            ProfileDocument("a", (1,), source="x\udcfe"),
            "source holds the byte 0xfe at position 1, which is not UTF-8",
            id="source",
        ),
        pytest.param(
            ProfileDocument("a\ud800", (1,)),
            "author_id has a lone surrogate at position 1, which UTF-8 cannot encode",
            id="lone-surrogate",
        ),
    ],
)
def test_write_json_rejects_text_utf8_cannot_encode(doc, message):
    with pytest.raises(ValidationError) as caught:
        write_profile(doc, "json")
    assert str(caught.value) == message


def test_scan_directory_sorted_and_tolerant(tmp_path):
    (tmp_path / "b.json").write_text('{"author_id": "b", "citations": [2]}', encoding="utf-8")
    (tmp_path / "a.csv").write_text("citations\n5\n", encoding="utf-8")
    (tmp_path / "broken.json").write_text("{nope", encoding="utf-8")
    result = scan_directory(tmp_path)
    assert [doc.author_id for doc in result.documents] == ["a", "b"]
    assert len(result.failures) == 1
    assert result.failures[0].path.name == "broken.json"


def test_scan_directory_missing_is_an_io_error(tmp_path):
    with pytest.raises(OSError):
        scan_directory(tmp_path / "nowhere")


def test_scan_directory_empty(tmp_path):
    result = scan_directory(tmp_path)
    assert result.documents == () and result.failures == ()


def test_half_up_rounding():
    assert round_half_up(0.25) == 0.3
    assert round_half_up(2.85) == 2.9
    assert round_half_up(1.649) == 1.6
    assert round_half_up(112.556, 0) == 113.0
    assert format_real(2.0) == "2.0"
    assert format_real(1.6568542494923804) == "1.7"
    assert format_real(None) == "-"


@pytest.mark.parametrize(
    "value, text",
    [
        (0.05, "0.1"),
        (0.15, "0.2"),
        (0.25, "0.3"),
        (2.675, "2.7"),  # the float is 2.67499999..., its shortest form the tie
        (9.95, "10.0"),
        (1e-05, "0.0"),
        (-0.0, "-0.0"),
        (2**45 - 0.25, "35184372088831.8"),
        (math.nan, "NaN"),
        (np.float32(0.35), "0.4"),  # its own shortest form, '0.35', not the float64's 0.3499999940395355
    ],
)
def test_display_rounds_the_shortest_form_half_up(value, text):
    assert format_real(value) == text


def test_compute_prints_a_tie_rounded_up(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text('{"author_id": "a", "citations": [3, 3, 2, 1]}', encoding="utf-8")
    assert main(["compute", str(path)]) == 0
    assert "c_s: 2.3\n" in capsys.readouterr().out  # 9 / 4 = 2.25


def test_report_table_row_shape():
    report = compute_report(build_profile("w", [2, 0, 0], career_years=2))
    table = write_report_table([report], "csv")
    lines = table.splitlines()
    assert lines[0] == "no,r0,r,c_sigma,c10,c_max,c_s,h,g,m,i10,kh1,kh2,kh3"
    assert lines[1] == "w,3,1,2,2,2,2.0,1,1,0.5,0,2.0,1.4,1.7"


def test_report_table_missing_m_prints_dash():
    report = compute_report(build_profile("w", [2, 0, 0]))
    assert ",-," in write_report_table([report], "csv").splitlines()[1]


def test_report_table_kh_column_appended_on_request():
    report = compute_report(build_profile("w", [7, 1]))
    table = write_report_table([report], "csv", include_kh=True)
    lines = table.splitlines()
    assert lines[0].endswith(",kh3,kh")
    assert lines[1].endswith(",5.2")


def test_report_table_total_row():
    from citemetric import collective_report, merge_profiles
    a = build_profile("a", [3])
    b = build_profile("b", [2, 1])
    total = collective_report(merge_profiles([a, b], label="all"))
    table = write_report_table([compute_report(a), compute_report(b)], "csv", total=total)
    last = table.splitlines()[-1]
    assert last.startswith("total,3,3,6,")


def test_report_table_markdown():
    report = compute_report(build_profile("w", [2, 0, 0], career_years=2))
    table = write_report_table([report], "md")
    lines = table.splitlines()
    assert lines[0].startswith("| no | r0 |")
    assert lines[1].startswith("| --- |")
    assert "| 1.7 |" in lines[2]


def test_report_table_header_only_when_empty():
    assert write_report_table([], "csv") == "no,r0,r,c_sigma,c10,c_max,c_s,h,g,m,i10,kh1,kh2,kh3\n"


def test_report_table_is_deterministic():
    reports = [compute_report(build_profile(name, [9, 2, 1])) for name in ("x", "y")]
    assert write_report_table(reports, "csv") == write_report_table(reports, "csv")
    assert write_report_table(reports, "md") == write_report_table(reports, "md")


def test_csv_cells_are_quoted_as_python_3_13_quotes_them():
    rows = [["a\rb"], ["x,y", 'q"'], [""], ["", ""], ["\r\n"]]
    assert write_table(["id"], rows, "csv") == 'id\n"a\rb"\n"x,y","q"""\n""\n,\n"\r\n"\n'


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.text(st.sampled_from(',"\r\n a\udcff'), max_size=4), min_size=1, max_size=3), max_size=4))
def test_csv_tables_read_back_as_written(rows):
    text = write_table(["id", "source"], rows, "csv")
    assert list(csv.reader(io.StringIO(text, newline=""))) == [["id", "source"], *rows]
