"""Chart construction and deterministic SVG rendering.

A plot spec is pure data: curves (the citation polylines), markers for
the index readouts, and optional guide rays from the origin.  Rendering
is a plain string assembly with fixed number formatting, so the same
spec always yields byte-identical SVG.  Escaping is done here rather than
with ``xml.sax.saxutils``, whose import pulls in ``urllib`` and ``email``,
so that importing the CLI loads no ``xml`` module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Sequence

from .collective import CollectiveProfile
from .errors import EmptyProfileError
from .indices import g_index_parabola, h_index, kh2, level_crossing, line_crossing
from .ingest import write_table
from .profile import CitationProfile

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#17becf",
)


@dataclass(frozen=True)
class Curve:
    label: str
    vertices: tuple[tuple[float, float], ...]
    dashed: bool = False


@dataclass(frozen=True)
class Marker:
    label: str
    kind: str  # h, kh1, kh2, kh3 or g
    point: tuple[float, float]


@dataclass(frozen=True)
class GuideLine:
    label: str
    slope: float


@dataclass(frozen=True)
class PlotSpec:
    curves: tuple[Curve, ...]
    markers: tuple[Marker, ...]
    guide_lines: tuple[GuideLine, ...]
    log_y: bool = False


def _profile_markers(profile: CitationProfile, include_g: bool) -> list[Marker]:
    label = profile.author_id
    h = h_index(profile)
    markers = [Marker(label, "h", (float(h), float(profile.vertex(h))))]
    for kind, point in (
        ("kh1", line_crossing(profile, profile.c_s)),
        ("kh2", level_crossing(profile, kh2(profile))),  # pinned at (1, c_max) when kh2 > c_max
        ("kh3", line_crossing(profile, math.sqrt(profile.c_sigma))),
    ):
        markers.append(Marker(label, kind, (point.r_star, point.c_star)))
    if include_g:
        rank = math.isqrt(g_index_parabola(profile))
        markers.append(Marker(label, "g", (float(rank), float(profile.vertex(rank)))))
    return markers


def build_plot_spec(
    items: Sequence[CitationProfile | CollectiveProfile],
    *,
    guides: bool = False,
    include_g: bool = False,
    log_y: bool = False,
    dashed: Collection[str] = (),
) -> PlotSpec:
    """One curve per profile with its index markers.

    Collectives plot their pooled profile.  Profiles without cited works
    are skipped; if nothing is left there is nothing to plot.  Labels in
    ``dashed`` get a dashed curve stroke.
    """
    profiles = [item.merged if isinstance(item, CollectiveProfile) else item for item in items]
    profiles = [p for p in profiles if p.r >= 1]
    if not profiles:
        raise EmptyProfileError("nothing to plot: no profile has cited works")
    curves = []
    markers: list[Marker] = []
    guide_lines: list[GuideLine] = []
    for profile in profiles:
        # a list comprehension, as tuple() of a generator is slower on long curves
        vertices = tuple([(float(rank), float(profile.vertex(rank))) for rank in range(1, profile.r + 2)])
        curves.append(Curve(profile.author_id, vertices, dashed=profile.author_id in dashed))
        markers.extend(_profile_markers(profile, include_g))
        if guides:
            guide_lines.append(GuideLine(f"{profile.author_id}:unit", 1.0))
            guide_lines.append(GuideLine(f"{profile.author_id}:mean", profile.c_s))
            guide_lines.append(GuideLine(f"{profile.author_id}:sqrt-total", math.sqrt(profile.c_sigma)))
    return PlotSpec(
        curves=tuple(curves),
        markers=tuple(markers),
        guide_lines=tuple(guide_lines),
        log_y=log_y,
    )


def _nice_step(span: float, target: int = 6) -> float:
    raw = span / max(target, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mult * magnitude >= raw:
            return mult * magnitude
    return 10.0 * magnitude


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def escape(text: str) -> str:
    """XML character data: ``&``, ``<`` and ``>`` as entities, as ``xml.sax.saxutils.escape``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """A quoted XML attribute value, byte for byte as ``xml.sax.saxutils.quoteattr`` writes it."""
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def render_svg(spec: PlotSpec) -> bytes:
    """Standalone SVG 1.1; byte-identical for identical specs."""
    width, height = 860.0, 540.0
    ml, mr, mt, mb = 62.0, 24.0, 24.0, 48.0
    plot_w, plot_h = width - ml - mr, height - mt - mb

    x_data = max(x for curve in spec.curves for x, _ in curve.vertices)
    # a long curve repeats few distinct counts, so each ordinate is formatted once
    y_values = {c for curve in spec.curves for _, c in curve.vertices}
    y_data = max(y_values)
    x_step = _nice_step(x_data)
    x_max = x_step * math.ceil(x_data / x_step)
    if spec.log_y:
        y_max = 10.0 ** max(1, math.ceil(math.log10(max(y_data, 1.0))))
        log_top = math.log10(y_max)
    else:
        y_step = _nice_step(max(y_data, 1.0))
        y_max = y_step * math.ceil(max(y_data, 1.0) / y_step)

    def sx(x: float) -> float:
        return ml + (x / x_max) * plot_w

    def sy(c: float) -> float:
        if spec.log_y:
            frac = math.log10(max(c, 1.0)) / log_top
        else:
            frac = c / y_max
        return mt + plot_h * (1.0 - frac)

    # built in full before the path loop: filled inside it, the table's strings land among
    # the loop's short-lived ones and keep their freed memory from being reused
    y_text = {c: _fmt(sy(c)) for c in y_values}

    def color_for(label: str) -> str:
        for i, curve in enumerate(spec.curves):
            if curve.label == label:
                return _PALETTE[i % len(_PALETTE)]
        return "#555555"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="#ffffff"/>',
    ]

    # axes
    parts.append(
        f'<line class="axis" x1="{_fmt(ml)}" y1="{_fmt(mt + plot_h)}" '
        f'x2="{_fmt(ml + plot_w)}" y2="{_fmt(mt + plot_h)}" stroke="#000000" stroke-width="1"/>'
    )
    parts.append(
        f'<line class="axis" x1="{_fmt(ml)}" y1="{_fmt(mt)}" '
        f'x2="{_fmt(ml)}" y2="{_fmt(mt + plot_h)}" stroke="#000000" stroke-width="1"/>'
    )

    # x ticks
    tick = 0.0
    while tick <= x_max + 1e-9:
        px = sx(tick)
        parts.append(
            f'<line class="tick" x1="{_fmt(px)}" y1="{_fmt(mt + plot_h)}" '
            f'x2="{_fmt(px)}" y2="{_fmt(mt + plot_h + 5)}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(mt + plot_h + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>'
        )
        tick += x_step

    # y ticks: decades on a log axis
    level = 1.0 if spec.log_y else 0.0
    while level <= y_max + 1e-9:
        py = sy(level)
        parts.append(
            f'<line class="tick" x1="{_fmt(ml - 5)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(ml)}" y2="{_fmt(py)}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(ml - 8)}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{level:g}</text>'
        )
        level = level * 10.0 if spec.log_y else level + y_step

    # axis titles
    parts.append(
        f'<text x="{_fmt(ml + plot_w / 2)}" y="{_fmt(height - 10)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">rank</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(mt + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_fmt(mt + plot_h / 2)})">citations</text>'
    )

    # guide rays, clipped to the data box
    for guide in spec.guide_lines:
        x_end = min(x_max, y_max / guide.slope)
        parts.append(
            f'<line class="guide" data-label={quoteattr(guide.label)} '
            f'x1="{_fmt(sx(0.0))}" y1="{_fmt(sy(0.0))}" '
            f'x2="{_fmt(sx(x_end))}" y2="{_fmt(sy(guide.slope * x_end))}" '
            f'stroke="#999999" stroke-width="0.8"/>'
        )

    # curves
    for i, curve in enumerate(spec.curves):
        color = _PALETTE[i % len(_PALETTE)]
        # x inlined as sx computes it; ml + x * (plot_w / x_max) would change the bytes
        points = " L ".join([f"{ml + (x / x_max) * plot_w:.2f} {y_text[c]}" for x, c in curve.vertices])
        dash = ' stroke-dasharray="7 4"' if curve.dashed else ""
        parts.append(
            f'<path class="curve" data-label={quoteattr(curve.label)} d="M {points}" '
            f'fill="none" stroke="{color}" stroke-width="1.6"{dash}/>'
        )
        lx, lc = curve.vertices[0]
        parts.append(
            f'<text x="{_fmt(sx(lx) + 5)}" y="{_fmt(sy(lc) - 5)}" font-family="sans-serif" '
            f'font-size="11" fill="{color}">{escape(curve.label)}</text>'
        )

    # markers
    for marker in spec.markers:
        color = color_for(marker.label)
        px, py = sx(marker.point[0]), sy(marker.point[1])
        attrs = f'class="marker marker-{marker.kind}" data-label={quoteattr(marker.label)}'
        if marker.kind == "h":
            pts = f"{_fmt(px)},{_fmt(py - 5)} {_fmt(px - 4.5)},{_fmt(py + 3.5)} {_fmt(px + 4.5)},{_fmt(py + 3.5)}"
            parts.append(f'<polygon {attrs} points="{pts}" fill="{color}"/>')
        elif marker.kind == "g":
            pts = f"{_fmt(px)},{_fmt(py + 5)} {_fmt(px - 4.5)},{_fmt(py - 3.5)} {_fmt(px + 4.5)},{_fmt(py - 3.5)}"
            parts.append(f'<polygon {attrs} points="{pts}" fill="{color}"/>')
        elif marker.kind == "kh1":
            parts.append(
                f'<rect {attrs} x="{_fmt(px - 4)}" y="{_fmt(py - 4)}" width="8" height="8" fill="{color}"/>'
            )
        elif marker.kind == "kh2":
            parts.append(f'<circle {attrs} cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#333333"/>')
        else:  # kh3, drawn light
            parts.append(
                f'<circle {attrs} cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#ffffff" '
                f'stroke="{color}" stroke-width="1.4"/>'
            )

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def write_points_csv(spec: PlotSpec) -> str:
    """Flatten a plot spec to rows of label,kind,r,c."""
    x_data = max(x for curve in spec.curves for x, _ in curve.vertices)
    y_data = max(c for curve in spec.curves for _, c in curve.vertices)
    rows = []
    for curve in spec.curves:
        for x, c in curve.vertices:
            rows.append([curve.label, "curve", f"{x:.10g}", f"{c:.10g}"])
    for marker in spec.markers:
        rows.append([marker.label, marker.kind, f"{marker.point[0]:.10g}", f"{marker.point[1]:.10g}"])
    for guide in spec.guide_lines:
        x_end = min(x_data, y_data / guide.slope)
        rows.append([guide.label, "guide", "0", "0"])
        rows.append([guide.label, "guide", f"{x_end:.10g}", f"{guide.slope * x_end:.10g}"])
    return write_table(["label", "kind", "r", "c"], rows, "csv")
