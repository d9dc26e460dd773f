"""Citation-curve analytics.

Build piecewise-linear citation functions from per-work citation
counts, read scalar indices off them (h, g in two variants, m, i_k,
c_k and the crossing-based kh family), pool authors into collectives,
and export report tables and SVG charts.

Each export and each submodule loads on first access (PEP 562), so a
program that never renders or synthesizes does not compile ``render``
or ``synth``.
"""

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the names exported from it
    "collective": ("collective_report", "merge_profiles"),
    "errors": (
        "CitemetricError", "DomainError", "EmptyProfileError", "MissingFieldError", "ParseError", "ValidationError",
    ),
    "indices": (
        "c_k", "compute_report", "g_index_egghe", "g_index_parabola", "h_index", "i_k",
        "kh1", "kh2", "kh3", "kh_max", "line_crossing", "m_index",
    ),
    "ingest": (
        "ProfileDocument", "format_real", "parse_profile", "round_half_up",
        "scan_directory", "write_profile", "write_report_table",
    ),
    "profile": ("build_profile",),
    "render": ("build_plot_spec", "render_svg", "write_points_csv"),
    "synth": ("synthesize_counts",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """An export, or a submodule of ``_EXPORTS``, imported on first access and bound here from then on."""
    from importlib import import_module

    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
