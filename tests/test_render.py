import hashlib
import math
import random
import re
from xml.etree import ElementTree
from xml.sax import saxutils

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from citemetric import (
    EmptyProfileError,
    build_plot_spec,
    build_profile,
    kh2,
    merge_profiles,
    render_svg,
    write_points_csv,
)
from citemetric import render


def _markers_by_kind(spec):
    return {marker.kind: marker for marker in spec.markers}


def test_curve_vertices_close_at_zero():
    spec = build_plot_spec([build_profile("a", [2, 0, 0])])
    assert spec.curves[0].vertices == ((1.0, 2.0), (2.0, 0.0))


def test_markers_for_two_work_profile():
    spec = build_plot_spec([build_profile("a", [7, 1])])
    markers = _markers_by_kind(spec)
    assert markers["h"].point == (1.0, 7.0)
    assert markers["kh1"].point[0] == pytest.approx(1.3, abs=1e-12)
    assert markers["kh1"].point[1] == pytest.approx(5.2, abs=1e-12)
    assert markers["kh2"].point[1] == pytest.approx(math.sqrt(8))
    assert markers["kh3"].point[1] == pytest.approx(4.1649, abs=5e-4)
    assert set(markers) == {"h", "kh1", "kh2", "kh3"}


def test_h_marker_sits_on_the_integer_rank():
    spec = build_plot_spec([build_profile("a", [2])])
    assert _markers_by_kind(spec)["h"].point == (1.0, 2.0)


def test_kh3_marker_for_uniform_profile():
    spec = build_plot_spec([build_profile("a", [3, 3, 3])])
    assert _markers_by_kind(spec)["kh3"].point == (1.0, 3.0)


def test_kh2_marker_clamps_to_the_top_work():
    # sqrt(10) > 2, so the curve never reaches kh2
    spec = build_plot_spec([build_profile("a", [2, 2, 2, 2, 2])])
    assert _markers_by_kind(spec)["kh2"].point == (1.0, 2.0)


def test_g_marker_included_on_request():
    spec = build_plot_spec([build_profile("a", [10, 5, 2])], include_g=True)
    assert _markers_by_kind(spec)["g"].point == (2.0, 5.0)


def test_markers_lie_on_their_curve():
    for counts in ([40, 12, 3, 3, 2, 1, 1, 1], [2, 2, 2, 2, 2]):
        profile = build_profile("a", counts)
        spec = build_plot_spec([profile], include_g=True)
        for marker in spec.markers:
            if marker.kind == "kh2" and kh2(profile) > profile.c_max:
                continue  # the curve never reaches kh2; test_kh2_marker_clamps_to_the_top_work pins it
            assert profile.citation_at(marker.point[0]) == pytest.approx(marker.point[1], abs=1e-9)


def test_empty_profiles_are_skipped_and_all_empty_is_an_error():
    a = build_profile("a", [0, 0])
    b = build_profile("b", [4])
    spec = build_plot_spec([a, b])
    assert [curve.label for curve in spec.curves] == ["b"]
    with pytest.raises(EmptyProfileError):
        build_plot_spec([a])


def test_collectives_plot_their_pooled_profile():
    col = merge_profiles([build_profile("a", [3]), build_profile("b", [2, 1])], label="team")
    spec = build_plot_spec([col])
    assert spec.curves[0].label == "team"
    assert spec.curves[0].vertices[0] == (1.0, 3.0)


def test_only_collectives_are_dashed():
    # a plain profile may carry the collective's label as its id; it is still drawn solid
    a, team = build_profile("a", [5, 1]), build_profile("team", [3])
    spec = build_plot_spec([a, team, merge_profiles([a], label="team")])
    assert [(curve.label, curve.dashed) for curve in spec.curves] == [("a", False), ("team", False), ("team", True)]


def test_svg_structure_counts():
    profile = build_profile("a", [7, 1])
    svg = render_svg(build_plot_spec([profile], guides=True))
    text = svg.decode("utf-8")
    assert text.count("<path ") == 1  # one path per curve, axes use line elements
    assert text.count('class="marker') == 4
    assert text.count('class="guide"') == 3
    assert text.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in text


def test_svg_marker_shapes():
    svg = render_svg(build_plot_spec([build_profile("a", [7, 1])], include_g=True)).decode()
    assert svg.count('class="marker marker-h"') == 1
    assert svg.count('class="marker marker-g"') == 1
    assert '<rect class="marker marker-kh1"' in svg
    assert '<circle class="marker marker-kh2"' in svg
    assert '<circle class="marker marker-kh3"' in svg


def test_svg_is_deterministic():
    profiles = [build_profile("a", [9, 3, 1]), build_profile("b", [4, 4])]
    first = render_svg(build_plot_spec(profiles, guides=True))
    second = render_svg(build_plot_spec(profiles, guides=True))
    assert first == second


def test_dashed_curves():
    a, b = build_profile("a", [5]), build_profile("b", [3])
    svg = render_svg(build_plot_spec([a, merge_profiles([a, b], label="ab")])).decode()
    assert svg.count("stroke-dasharray") == 1


def test_markers_take_their_own_curves_colour():
    # two inputs may share an author id; the label does not say which curve a marker is on
    profiles = [build_profile("a", [9, 3, 1]), build_profile("a", [4, 4, 2])]
    root = ElementTree.fromstring(render_svg(build_plot_spec(profiles, include_g=True)))
    strokes = [path.get("stroke") for path in root.iter("{http://www.w3.org/2000/svg}path")]
    markers = [element for element in root if (element.get("class") or "").startswith("marker ")]
    assert len(set(strokes)) == 2
    assert len(markers) == 10  # h, kh1, kh2, kh3 and g of the first curve, then of the second
    for i, marker in enumerate(markers):
        if marker.get("class") != "marker marker-kh2":  # kh2 is drawn dark on every curve
            assert strokes[i // 5] in (marker.get("fill"), marker.get("stroke"))


def test_log_axis_spaces_decades_evenly():
    profile = build_profile("a", [1000, 100, 10, 1])
    svg = render_svg(build_plot_spec([profile], log_y=True)).decode()
    d = re.search(r'<path [^>]*d="([^"]+)"', svg).group(1)
    ys = [float(pair[1]) for pair in re.findall(r"[ML] ([0-9.]+) ([0-9.]+)", d)]
    gaps = [ys[i + 1] - ys[i] for i in range(3)]  # vertices at 1000, 100, 10, 1
    assert gaps[0] == pytest.approx(gaps[1], abs=0.05)
    assert gaps[1] == pytest.approx(gaps[2], abs=0.05)


def test_points_csv_lists_curves_markers_and_guides():
    profile = build_profile("a", [7, 1])
    csv_text = write_points_csv(build_plot_spec([profile], guides=True))
    lines = csv_text.splitlines()
    assert lines[0] == "label,kind,r,c"
    assert "a,curve,1,7" in lines
    assert "a,curve,3,0" in lines
    assert "a,kh1,1.3,5.2" in lines
    assert sum(1 for line in lines if ",guide," in line) == 6  # two endpoints per ray
    assert csv_text == write_points_csv(build_plot_spec([profile], guides=True))


def _merged_pair_spec():
    a, b = build_profile("a", [9, 3, 1]), build_profile("b", [4, 4, 2, 0])
    items = [a, b, merge_profiles([a, b], label="merged")]
    return build_plot_spec(items, guides=True, include_g=True)


def _pareto_pair_spec(log_y=False):
    # two 2,000-work Pareto tails share one table of distinct ordinates with their merged curve
    rng = random.Random(0)
    a, b = (
        build_profile(label, [0 if rng.random() < 0.1 else int(2 * rng.paretovariate(1.1)) for _ in range(2000)])
        for label in ("a", "b")
    )
    items = [a, b, merge_profiles([a, b], label="merged")]
    return build_plot_spec(items, guides=True, include_g=True, log_y=log_y)


@pytest.mark.parametrize(
    "make_spec, svg_sha256, csv_sha256",
    [
        pytest.param(
            _merged_pair_spec,
            "04c68373b22e919a7a0dda5528cba7553cfa530f67003400fb052303a9fdd960",
            "d4f4d88550271bb45ad9b5528aca1b30cf591688391dab40c2b6f09e06701f13",
            id="linear-guides-g-dashed-merged",
        ),
        pytest.param(
            lambda: build_plot_spec([build_profile("a", [1000, 100, 10, 1])], log_y=True),
            "c56177beb47cba687b8987e435518f5a429f2e635c1821d85f0305222cd0fc1d",
            "db86309ea633b2eefeb21778b592c734e5899013dec950d80673b7c3c9e69c0c",
            id="log-y",
        ),
        pytest.param(
            lambda: build_plot_spec([build_profile("a", [2, 2, 2, 2, 2])]),
            "16f65f927b93b4566d83ef52f0dbc3ff1b0f727a936d8a618b92feb4aea58be9",
            "3d44f4fc29d82ac215db23b0e2b0ab090a1b7ee8150323462a11c5c80980cd1d",
            id="kh2-pinned",
        ),
        pytest.param(
            lambda: build_plot_spec([build_profile("a", [1])]),
            "c5c81bbefc24aa7f48e3baaec2a544a7c4b973a90f949982781ad226c247ce69",
            "89209e1d3b9f4af0091f4fd7c66814107abeaa941059d41c3dabd8613cf70460",
            id="kh2-at-c-max",
        ),
        pytest.param(
            lambda: build_plot_spec([build_profile("a", [5, 5, 5, 5, 5])]),
            "307f7ceecae2d8226607763f0076543b8d4839b42d7e0caaf0c0f78f06e3e81d",
            "ffea922d1db568e1603ebb86432619c51cb6ef64ac47f08e0977938aff427b98",
            id="flat-block-kh1-kh3-clamped",
        ),
        pytest.param(
            lambda: build_plot_spec([build_profile("a&b <\"c'd>", [6, 2, 1])], guides=True),
            "1f3c12d5c96a11ce7f3a3b156ef89586cada0f73e44019a44d5b506ca928cc15",
            "8316a20b48a579571e860c7f41801c9d8361846ccb0f32e9f7f3e8c7a9107c47",
            id="label-needing-escapes",
        ),
        pytest.param(
            _pareto_pair_spec,
            "fbfd2ced0a4b207c569fe5f1c3faaa2e45e28dc4dc88322821fb4b872c1aa615",
            "f4ece5d55506047d9ebbff947b7b56a34f2a8a7ecf5f1fe0c501b21aaf052fa4",
            id="pareto-pair-linear-guides-g-dashed-merged",
        ),
        pytest.param(
            lambda: _pareto_pair_spec(log_y=True),
            "584e568cd3389c413ac877fbbb56f09611f5ab1901456b787be8cc8be3448978",
            "f4ece5d55506047d9ebbff947b7b56a34f2a8a7ecf5f1fe0c501b21aaf052fa4",
            id="pareto-pair-log-y",
        ),
        # counts at 2**53, where an int and its float still divide, format and log10 alike
        pytest.param(
            lambda: build_plot_spec([build_profile("a", [2**53, 2**53 - 1, 3, 0])]),
            "605a4cb1a2c84e0cf79e8bcc7f0c3f51e0201edec7263238a5c7cabc9e32cb9e",
            "1321b7bccdcd8db57be11c0de7c2897a22fc4d0ca1d9f707f0c7d1f5a09fc711",
            id="largest-counts-linear",
        ),
        pytest.param(
            lambda: build_plot_spec([build_profile("a", [2**53, 2**53 - 1, 3, 0])], log_y=True),
            "cc3cff75665f04d8d5ffa6e7d6d87275c9c56f728b903796904d3d97e6e6bace",
            "1321b7bccdcd8db57be11c0de7c2897a22fc4d0ca1d9f707f0c7d1f5a09fc711",
            id="largest-counts-log-y",
        ),
    ],
)
def test_plot_output_bytes_are_pinned(make_spec, svg_sha256, csv_sha256):
    """SVG and point-CSV bytes are part of the contract; any change shows here."""
    spec = make_spec()
    assert hashlib.sha256(render_svg(spec)).hexdigest() == svg_sha256
    assert hashlib.sha256(write_points_csv(spec).encode("utf-8")).hexdigest() == csv_sha256


@given(st.text(alphabet=st.one_of(st.sampled_from("&<>\"'\n\r\t"), st.characters())))
def test_escaping_matches_the_standard_library(text):
    assert render.escape(text) == saxutils.escape(text)
    assert render.quoteattr(text) == saxutils.quoteattr(text)


_counts = st.lists(st.integers(0, 2**53), min_size=1, max_size=20)


@given(st.lists(_counts, min_size=1, max_size=3), st.booleans())
def test_curves_plot_their_integer_vertices_as_the_float_ones(count_lists, log_y):
    profiles = [build_profile(f"p{i}", counts) for i, counts in enumerate(count_lists)]
    plotted = [p for p in profiles if p.r >= 1]
    assume(plotted)
    spec = build_plot_spec(plotted, guides=True, log_y=log_y)
    for curve, p in zip(spec.curves, plotted):
        assert curve.vertices == tuple((float(j), float(p.vertex(j))) for j in range(1, p.r + 2))
    # the same curves given float ordinates draw the same bytes
    floats = spec._replace(
        curves=tuple(curve._replace(ordinates=tuple(map(float, curve.ordinates))) for curve in spec.curves)
    )
    assert render_svg(floats) == render_svg(spec)
    assert write_points_csv(floats) == write_points_csv(spec)


# the C0 controls, DEL, U+FFFE and U+FFFF, which st.characters() seldom draws
_CONTROLS = [chr(c) for c in (*range(0x20), 0x7F, 0xFFFE, 0xFFFF)]


@given(st.text(st.one_of(st.sampled_from(_CONTROLS), st.characters(blacklist_categories=("Cs",))), min_size=1))
def test_svg_is_well_formed_for_any_label(label):
    spec = build_plot_spec([build_profile(label, [3, 1])], guides=True, include_g=True)
    root = ElementTree.fromstring(render_svg(spec))
    shown = re.sub(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]", "\ufffd", label)
    labels = {element.get("data-label") for element in root if element.get("class") != "guide"} - {None}
    assert labels == {shown}
    guides = [element.get("data-label") for element in root if element.get("class") == "guide"]
    assert guides == [f"{shown}:unit", f"{shown}:mean", f"{shown}:sqrt-total"]


def _reference_paths(spec):
    """Each curve's d attribute written with one f-string per vertex, the reference for the blocks."""
    ml, mt, plot_w, plot_h = 62.0, 24.0, 774.0, 468.0
    x_data = max(len(curve.ordinates) for curve in spec.curves)
    y_data = max(max(curve.ordinates) for curve in spec.curves)
    x_step = render._nice_step(x_data)
    x_max = x_step * math.ceil(x_data / x_step)
    if spec.log_y:
        log_top = math.log10(10.0 ** max(1, math.ceil(math.log10(max(y_data, 1.0)))))
    else:
        y_step = render._nice_step(max(y_data, 1.0))
        y_max = y_step * math.ceil(max(y_data, 1.0) / y_step)

    def sy(c):
        frac = math.log10(max(c, 1.0)) / log_top if spec.log_y else c / y_max
        return mt + plot_h * (1.0 - frac)

    return [
        "M " + " L ".join(
            f"{ml + (x / x_max) * plot_w:.2f} {sy(c):.2f}"
            for x, c in zip(range(1, len(curve.ordinates) + 1), curve.ordinates)
        )
        for curve in spec.curves
    ]


@st.composite
def _block_curves(draw):
    """Curves as long as a block, one vertex either side of it, two blocks and a vertex, or short."""
    block = render._BLOCK
    curves = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.one_of(st.integers(1, 12), st.sampled_from([block - 1, block, block + 1, 2 * block + 1])))
        # few distinct counts, as a long curve has
        pool = draw(st.lists(st.integers(0, 2**53), min_size=1, max_size=6))
        curves.append(render.Curve(f"c{i}", tuple(pool[j % len(pool)] for j in range(n))))
    return tuple(curves)


@settings(max_examples=60)
@given(_block_curves(), st.booleans())
def test_curve_paths_written_in_blocks_equal_one_f_string_per_vertex(curves, log_y):
    spec = render.PlotSpec(curves=curves, markers=(), guide_lines=(), log_y=log_y)
    assert re.findall(r' d="([^"]*)"', render_svg(spec).decode("utf-8")) == _reference_paths(spec)


@st.composite
def _curves_of_blocks(draw):
    """1 to 4 curves of 1 to 3 blocks and a vertex, exact multiples of a block among them, the longest anywhere."""
    block = render._BLOCK
    length = st.one_of(st.integers(1, 3 * block + 1), st.sampled_from([block, 2 * block, 3 * block]))
    curves = []
    for i, n in enumerate(draw(st.lists(length, min_size=1, max_size=4))):
        pool = draw(st.lists(st.integers(0, 2**53), min_size=1, max_size=6))
        curves.append(render.Curve(f"c{i}", tuple(pool[j % len(pool)] for j in range(n))))
    return tuple(curves)


@settings(max_examples=60)
@given(_curves_of_blocks(), st.booleans())
@example(  # equal lengths, the longest in the middle, and curves that end inside a shared block
    tuple(render.Curve(f"c{i}", (9,) * (n - 1) + (0,)) for i, n in enumerate([1025, 3072, 3072, 2])), False
)
def test_curves_written_block_by_block_keep_their_order_and_equal_one_f_string_per_vertex(curves, log_y):
    spec = render.PlotSpec(curves=curves, markers=(), guide_lines=(), log_y=log_y)
    svg = render_svg(spec).decode("utf-8")
    assert re.findall(r' d="([^"]*)"', svg) == _reference_paths(spec)
    assert re.findall(r'<path class="curve" data-label="([^"]*)"', svg) == [curve.label for curve in curves]
