"""The package's exports, resolved on first access, and the modules each command loads."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import citemetric

_SRC = Path(__file__).resolve().parents[1] / "src"

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
    argv = [sys.executable, "-S", "-c", "import sys; sys.path.insert(0, sys.argv[1]); " + code, str(_SRC), *args]
    return subprocess.run(argv, capture_output=True, text=True, encoding="utf-8", check=True).stdout


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


_LOADED = "print(sorted(m for m in ('citemetric.render', 'citemetric.synth', 'decimal') if m in sys.modules))"


def test_importing_the_cli_loads_neither_render_synth_nor_decimal():
    assert _child("import citemetric.cli; " + _LOADED) == "[]\n"


@pytest.mark.parametrize(
    "args, loaded",
    [
        (["compute", "{a}"], []),
        (["table", "{directory}", "--with-total"], []),
        (["merge", "{a}", "{b}", "--label", "ab"], []),
        (["compare", "{a}", "{b}"], []),
        (["plot", "{a}", "{b}", "--with-merged"], ["citemetric.render"]),
        (["plot", "{a}", "--format", "csv"], ["citemetric.render"]),
    ],
)
def test_a_command_loads_render_only_to_plot(tmp_path, args, loaded):
    # [3, 3, 2, 1]: c_s = 9 / 4 is a display tie, which prints without decimal
    (tmp_path / "a.json").write_text('{"author_id": "a", "citations": [3, 3, 2, 1]}', encoding="utf-8")
    (tmp_path / "b.csv").write_text("citations\n5\n1\n", encoding="utf-8")
    names = {"a": tmp_path / "a.json", "b": tmp_path / "b.csv", "directory": tmp_path}
    argv = [arg.format(**names) for arg in args] + ["-o", str(tmp_path / "out")]
    code = "from citemetric import cli; code = cli.main(sys.argv[2:]); " + _LOADED.replace("print(", "print(code, ")
    assert _child(code, *argv).splitlines()[-1] == f"0 {loaded}"  # after merge's report, which -o leaves on stdout
    if args[0] == "compute":
        assert "c_s: 2.3\n" in (tmp_path / "out").read_text(encoding="utf-8")
