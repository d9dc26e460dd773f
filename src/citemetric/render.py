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
from typing import NamedTuple, Sequence

from .collective import CollectiveProfile
from .errors import EmptyProfileError
from .indices import g_index_parabola, h_index, kh1_crossing, kh2, kh3_crossing, level_crossing
from .ingest import write_table
from .profile import CitationProfile

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#17becf",
)


class Curve(NamedTuple):
    label: str
    ordinates: tuple[int, ...]  # C(1) … C(r + 1): the cited works' counts, then the closing 0
    dashed: bool = False  # a collective's pooled curve

    @property
    def vertices(self) -> tuple[tuple[int, int], ...]:
        """The vertices (j, C(j)) for j = 1 … r + 1."""
        return tuple(zip(range(1, len(self.ordinates) + 1), self.ordinates))


class Marker(NamedTuple):
    kind: str  # h, kh1, kh2, kh3 or g
    point: tuple[float, float]
    curve: int  # index of its curve in PlotSpec.curves, which sets its label and colour


class GuideLine(NamedTuple):
    label: str
    slope: float


class PlotSpec(NamedTuple):
    curves: tuple[Curve, ...]
    markers: tuple[Marker, ...]
    guide_lines: tuple[GuideLine, ...]
    log_y: bool = False


def _profile_markers(profile: CitationProfile, curve: int, include_g: bool) -> list[Marker]:
    h = h_index(profile)
    markers = [Marker("h", (float(h), float(profile.vertex(h))), curve)]
    for kind, point in (
        ("kh1", kh1_crossing(profile)),
        ("kh2", level_crossing(profile, kh2(profile))),  # pinned at (1, c_max) when kh2 > c_max
        ("kh3", kh3_crossing(profile)),
    ):
        markers.append(Marker(kind, (point.r_star, point.c_star), curve))
    if include_g:
        rank = math.isqrt(g_index_parabola(profile))
        markers.append(Marker("g", (float(rank), float(profile.vertex(rank))), curve))
    return markers


def build_plot_spec(
    items: Sequence[CitationProfile | CollectiveProfile],
    *,
    guides: bool = False,
    include_g: bool = False,
    log_y: bool = False,
) -> PlotSpec:
    """One curve per profile with its index markers.

    Collectives plot their pooled profile, with a dashed stroke.  Profiles
    without cited works are skipped; if nothing is left there is nothing to
    plot.
    """
    plotted = [(item.merged, True) if isinstance(item, CollectiveProfile) else (item, False) for item in items]
    plotted = [(profile, dashed) for profile, dashed in plotted if profile.r >= 1]
    if not plotted:
        raise EmptyProfileError("nothing to plot: no profile has cited works")
    curves = []
    markers: list[Marker] = []
    guide_lines: list[GuideLine] = []
    for curve, (profile, dashed) in enumerate(plotted):
        ordinates = profile.counts[: profile.r] + (profile.vertex(profile.r + 1),)
        curves.append(Curve(profile.author_id, ordinates, dashed))
        markers.extend(_profile_markers(profile, curve, include_g))
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


# code points that XML 1.0 allows nowhere, not even as a character reference, and the
# surrogates, which UTF-8 cannot encode: U+DC80 to U+DCFF stand for the bytes of a non-UTF-8 file name
_NOT_XML = dict.fromkeys([*range(9), 0xB, 0xC, *range(0xE, 0x20), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF], "\ufffd")

# the curves' paths are written one block of ranks at a time, so no string is built per vertex
_BLOCK = 1024


def _nice_step(span: float) -> float:
    raw = span / 6  # about six ticks
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if mult * magnitude >= raw:
            return mult * magnitude
    return 10.0 * magnitude


def _fmt(value: float) -> str:
    return "%.2f" % value


def _path_template(xs: tuple[float, ...]) -> str:
    """The x texts of a block of ranks in one %-format, "x %s L x %s …", for a curve's y texts."""
    return ("%.2f %%s L " * len(xs))[:-3] % xs  # repeated and cut: a join of len(xs) parts costs 25 times as much


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

    # ranks and counts are ints of at most 2**53, which divide, format and log10 as their floats do
    x_data = max(len(curve.ordinates) for curve in spec.curves)
    # a long curve repeats few distinct counts, so each ordinate is formatted once
    y_values = set().union(*(curve.ordinates for curve in spec.curves))
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

    # labels may hold any code point; those XML or UTF-8 cannot hold are written as U+FFFD
    labels = [curve.label.translate(_NOT_XML) for curve in spec.curves]

    # built in full before the path loop: filled inside it, the table's strings land among
    # the loop's short-lived ones and keep their freed memory from being reused
    y_text = {c: _fmt(sy(c)) for c in y_values}

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="#ffffff"/>',
    ]

    # every <line> and <text> is written by one of these two, in one attribute order
    def line(attrs: str, x1: float, y1: float, x2: float, y2: float, stroke: str = "#000000", sw: str = "1") -> None:
        parts.append(
            f'<line {attrs} x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{sw}"/>'
        )

    def text(x: str, y: float, body: str, anchor: str = "", size: str = "11", tail: str = "") -> None:
        anchored = f' text-anchor="{anchor}"' if anchor else ""
        parts.append(
            f'<text x="{x}" y="{_fmt(y)}"{anchored} font-family="sans-serif" font-size="{size}"{tail}>{body}</text>'
        )

    # axes
    line('class="axis"', ml, mt + plot_h, ml + plot_w, mt + plot_h)
    line('class="axis"', ml, mt, ml, mt + plot_h)

    # x ticks
    tick = 0.0
    while tick <= x_max + 1e-9:
        px = sx(tick)
        line('class="tick"', px, mt + plot_h, px, mt + plot_h + 5)
        text(_fmt(px), mt + plot_h + 18, f"{tick:g}", "middle")
        tick += x_step

    # y ticks: decades on a log axis
    level = 1.0 if spec.log_y else 0.0
    while level <= y_max + 1e-9:
        py = sy(level)
        line('class="tick"', ml - 5, py, ml, py)
        text(_fmt(ml - 8), py + 4, f"{level:g}", "end")
        level = level * 10.0 if spec.log_y else level + y_step

    # axis titles
    text(_fmt(ml + plot_w / 2), height - 10, "rank", "middle", "12")
    text("16", mt + plot_h / 2, "citations", "middle", "12", f' transform="rotate(-90 16 {_fmt(mt + plot_h / 2)})"')

    # guide rays, clipped to the data box
    for guide in spec.guide_lines:
        x_end = min(x_max, y_max / guide.slope)
        attrs = f'class="guide" data-label={quoteattr(guide.label.translate(_NOT_XML))}'
        line(attrs, sx(0.0), sy(0.0), sx(x_end), sy(guide.slope * x_end), "#999999", "0.8")

    # curves: every curve has the same x text at a rank, so each block of ranks is formatted
    # once, into a template that each curve fills with its y texts; a curve that ends inside
    # the block fills the template of the ranks it covers
    blocks: list[list[str]] = [[] for _ in spec.curves]
    for start in range(0, x_data, _BLOCK):
        # x inlined as sx computes it; ml + x * (plot_w / x_max) would change the bytes
        xs = tuple([ml + (x / x_max) * plot_w for x in range(start + 1, min(start + _BLOCK, x_data) + 1)])
        template = _path_template(xs)
        for curve_blocks, curve in zip(blocks, spec.curves):
            ys = curve.ordinates[start : start + _BLOCK]
            if ys:
                fill = template if len(ys) == len(xs) else _path_template(xs[: len(ys)])
                curve_blocks.append(fill % tuple(map(y_text.__getitem__, ys)))
    for i, curve in enumerate(spec.curves):
        color = _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="7 4"' if curve.dashed else ""
        parts.append(  # joined in place: a points string kept to the next curve raised the peak RSS
            f'<path class="curve" data-label={quoteattr(labels[i])} d="M {" L ".join(blocks[i])}" '
            f'fill="none" stroke="{color}" stroke-width="1.6"{dash}/>'
        )
        text(_fmt(sx(1) + 5), sy(curve.ordinates[0]) - 5, escape(labels[i]), tail=f' fill="{color}"')

    # markers
    for marker in spec.markers:
        color = _PALETTE[marker.curve % len(_PALETTE)]
        px, py = sx(marker.point[0]), sy(marker.point[1])
        attrs = f'class="marker marker-{marker.kind}" data-label={quoteattr(labels[marker.curve])}'
        if marker.kind in ("h", "g"):  # one triangle: h points up, g down
            tip = -1 if marker.kind == "h" else 1
            base = _fmt(py - 3.5 * tip)
            pts = f"{_fmt(px)},{_fmt(py + 5 * tip)} {_fmt(px - 4.5)},{base} {_fmt(px + 4.5)},{base}"
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

    parts.append("</svg>\n")
    svg = "\n".join(parts)
    del parts  # so that the text and its bytes are the only copies of the SVG held at once
    return svg.encode("utf-8")


def write_points_csv(spec: PlotSpec) -> str:
    """Flatten a plot spec to rows of label,kind,r,c."""
    x_data = max(len(curve.ordinates) for curve in spec.curves)
    y_data = max(max(curve.ordinates) for curve in spec.curves)
    rows = []
    for curve in spec.curves:
        for x, c in zip(range(1, len(curve.ordinates) + 1), curve.ordinates):
            rows.append([curve.label, "curve", f"{x:.10g}", f"{c:.10g}"])
    for marker in spec.markers:
        x, c = marker.point
        rows.append([spec.curves[marker.curve].label, marker.kind, f"{x:.10g}", f"{c:.10g}"])
    for guide in spec.guide_lines:
        x_end = min(x_data, y_data / guide.slope)
        rows.append([guide.label, "guide", "0", "0"])
        rows.append([guide.label, "guide", f"{x_end:.10g}", f"{guide.slope * x_end:.10g}"])
    return write_table(["label", "kind", "r", "c"], rows, "csv")
