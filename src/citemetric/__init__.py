"""Citation-curve analytics.

Build piecewise-linear citation functions from per-work citation
counts, read scalar indices off them (h, g in two variants, m, i_k,
c_k and the crossing-based kh family), pool authors into collectives,
and export report tables and SVG charts.
"""

from .collective import collective_report, merge_profiles
from .errors import (
    CitemetricError,
    DomainError,
    EmptyProfileError,
    MissingFieldError,
    ParseError,
    ValidationError,
)
from .indices import (
    c_k,
    compute_report,
    g_index_egghe,
    g_index_parabola,
    h_index,
    i_k,
    kh1,
    kh2,
    kh3,
    kh_max,
    line_crossing,
    m_index,
)
from .ingest import (
    ProfileDocument,
    format_real,
    parse_profile,
    round_half_up,
    scan_directory,
    write_profile,
    write_report_table,
)
from .profile import build_profile
from .render import build_plot_spec, render_svg, write_points_csv
from .synth import synthesize_counts

__version__ = "0.1.0"

__all__ = [
    "CitemetricError",
    "DomainError",
    "EmptyProfileError",
    "MissingFieldError",
    "ParseError",
    "ProfileDocument",
    "ValidationError",
    "build_plot_spec",
    "build_profile",
    "c_k",
    "collective_report",
    "compute_report",
    "format_real",
    "g_index_egghe",
    "g_index_parabola",
    "h_index",
    "i_k",
    "kh1",
    "kh2",
    "kh3",
    "kh_max",
    "line_crossing",
    "m_index",
    "merge_profiles",
    "parse_profile",
    "render_svg",
    "round_half_up",
    "scan_directory",
    "synthesize_counts",
    "write_points_csv",
    "write_profile",
    "write_report_table",
]
