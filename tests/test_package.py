"""The package's exports, resolved on first access, and the modules each command loads."""

import importlib
from unittest import mock

import pytest

import citemetric
from citemetric import cli
from harness import TWO_PROCESSES, run_python

_EXPORTS = [
    "CitemetricError", "DomainError", "EmptyProfileError", "MissingFieldError", "ParseError", "ProfileDocument",
    "ValidationError", "build_plot_spec", "build_profile", "c_k", "collective_report", "compute_report",
    "format_real", "g_index_egghe", "g_index_parabola", "h_index", "i_k", "kh1", "kh2", "kh3", "kh_max",
    "line_crossing", "m_index", "merge_profiles", "parse_profile", "render_svg", "round_half_up", "scan_directory",
    "synthesize_counts", "write_points_csv", "write_profile", "write_report_table",
]


def _child(code, *args):
    """What ``code`` prints in a child that imports from this checkout.

    -S keeps site-packages' .pth hooks, which may import modules themselves, out of the child.
    """
    return run_python("-S", "-c", "import sys; " + code, *args, encoding="utf-8", check=True).stdout


def test_each_export_is_the_object_of_its_home_module():
    assert citemetric.__all__ == _EXPORTS
    for name in citemetric.__all__:
        value = getattr(citemetric, name)
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_a_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from citemetric import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(_EXPORTS)


def test_dir_lists_the_exports_and_an_unknown_name_raises_attribute_error():
    assert set(_EXPORTS) <= set(dir(citemetric))
    assert {"ingest", "render", "synth", "__version__"} <= set(dir(citemetric))
    with pytest.raises(AttributeError, match="no_such_name"):
        citemetric.no_such_name
    with pytest.raises(ImportError):
        from citemetric import no_such_name  # noqa: F401


def test_a_bare_import_loads_no_submodule_until_one_is_used():
    code = (
        "import citemetric; before = sorted(m for m in sys.modules if m.startswith('citemetric.')); "
        "print(before, citemetric.ingest.__name__, citemetric.render_svg.__module__, citemetric.synth.__name__)"
    )
    # the ingest submodule resolves after a bare import, as it did when the package imported it eagerly
    assert _child(code) == "[] citemetric.ingest citemetric.render citemetric.synth\n"


# The modules whose loading the table below pins: the lazy ones, and costly ones that no command needs.
_WATCHED = (
    "citemetric.render", "citemetric.synth", "citemetric.loader", "decimal", "pickle",
    "xml.sax", "urllib.request", "http.client", "email", "dataclasses", "inspect",
)
# The exit code and the watched modules loaded once the child's command has run, then each
# top-level package loaded that is not the standard library's; __main__ is the child's -c code.
_LOADED = f"""
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, sorted(m for m in {_WATCHED!r} if m in sys.modules))
print(sorted({{m.partition(".")[0] for m in sys.modules}} - sys.stdlib_module_names - {{"__main__"}}))
"""
_SPLIT = "cli._TWO_PROCESS_BYTES = cli._TWO_PROCESS_FILES = 0"  # any two files or entries load in two processes
_FORKED = {"citemetric.loader", "pickle"} if TWO_PROCESSES else set()  # the child's half comes back pickled


@pytest.mark.parametrize(
    "setup, args, loaded",
    [
        pytest.param("", [], set(), id="import-cli"),
        pytest.param("import citemetric.synth", [], {"citemetric.synth"}, id="import-synth"),
        pytest.param("", ["compute", "{a}"], set(), id="compute"),
        pytest.param("", ["table", "{directory}", "--with-total"], set(), id="table"),
        pytest.param("", ["merge", "{a}", "{b}", "--label", "ab"], set(), id="merge"),
        pytest.param("", ["compare", "{a}", "{b}"], set(), id="compare"),
        pytest.param("", ["plot", "{a}", "{b}", "--with-merged"], {"citemetric.render"}, id="plot-svg"),
        pytest.param("", ["plot", "{a}", "--format", "csv"], {"citemetric.render"}, id="plot-csv"),
        pytest.param(_SPLIT, ["table", "{directory}", "--with-total"], _FORKED, id="split-table"),
        pytest.param(_SPLIT, ["merge", "{a}", "{b}", "--label", "ab"], _FORKED, id="split-merge"),
    ],
)
def test_each_command_loads_exactly_its_watched_modules_and_the_standard_library_only(tmp_path, setup, args, loaded):
    # [3, 3, 2, 1]: c_s = 9 / 4 is a display tie, which prints without decimal
    (tmp_path / "a.json").write_text('{"author_id": "a", "citations": [3, 3, 2, 1]}', encoding="utf-8")
    (tmp_path / "b.csv").write_text("citations\n5\n1\n", encoding="utf-8")
    names = {"a": tmp_path / "a.json", "b": tmp_path / "b.csv", "directory": tmp_path}
    argv = [arg.format(**names) for arg in args] + (["-o", str(tmp_path / "out")] if args else [])
    if args and not setup:  # at the program's own thresholds, these inputs stay in one process even where it may fork
        with mock.patch.object(cli, "_may_fork", return_value=True):
            assert cli._child_half([str(names["a"]), str(names["b"])]) == 2
    code = f"from citemetric import cli; {setup}" + _LOADED
    *_, watched, packages = _child(code, *argv).splitlines()  # after merge's report, which -o leaves on stdout
    assert (watched, packages) == (f"0 {sorted(loaded)}", "['citemetric']")
    if args[:1] == ["compute"]:
        assert "c_s: 2.3\n" in (tmp_path / "out").read_text(encoding="utf-8")
