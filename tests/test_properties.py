import csv
import io
import json
import math
import random
import tempfile
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from citemetric import (
    CitemetricError,
    ProfileDocument,
    build_plot_spec,
    build_profile,
    c_k,
    collective_report,
    format_real,
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
    merge_profiles,
    parse_profile,
    render_svg,
    write_profile,
    write_report_table,
)
from citemetric.errors import DomainError, ParseError, ValidationError
from citemetric.ingest import _BLOCK, parse_profile_csv, parse_profile_json
from citemetric.indices import compute_report, kh1_crossing, kh3_crossing, level_crossing
from citemetric.profile import MAX_COUNT, check_career_years, check_counts, first_vertex, from_sorted
from oracles import (
    brute_c_k,
    brute_g_egghe,
    brute_g_parabola,
    brute_h,
    brute_i_k,
    check_crossing_against_grid,
)

counts_lists = st.lists(st.integers(min_value=0, max_value=400), max_size=40)
cited_lists = counts_lists.filter(lambda cs: any(c > 0 for c in cs))
author_ids = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12)


@given(cited_lists, st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_curve_is_monotone_non_increasing(counts, f1, f2):
    p = build_profile("a", counts)
    a, b = sorted((f1 * (p.r + 1), f2 * (p.r + 1)))
    assert p.citation_at(a) >= p.citation_at(b) - 1e-9


@given(cited_lists)
def test_curve_passes_through_the_sorted_counts(counts):
    p = build_profile("a", counts)
    for rank in range(1, p.r + 1):
        assert p.citation_at(float(rank)) == float(p.counts[rank - 1])
    assert p.citation_at(float(p.r + 1)) == 0.0


@given(counts_lists)
def test_counting_indices_match_brute_force(counts):
    p = build_profile("a", counts)
    assert h_index(p) == brute_h(counts)
    assert g_index_parabola(p) == brute_g_parabola(counts)
    assert g_index_egghe(p) == brute_g_egghe(counts)
    for k in (1, 2, 10, 401):
        assert i_k(p, k) == brute_i_k(counts, k)
        assert c_k(p, k) == brute_c_k(counts, k)


@settings(max_examples=60)
@given(cited_lists, st.floats(min_value=0.01, max_value=500.0))
def test_crossing_matches_grid_scan(counts, slope):
    p = build_profile("a", counts)
    check_crossing_against_grid(line_crossing(p, slope), slope, counts)


@given(cited_lists, st.floats(min_value=0.01, max_value=500.0), st.floats(min_value=0.01, max_value=500.0))
def test_crossing_ordinate_grows_with_slope(counts, s1, s2):
    p = build_profile("a", counts)
    lo, hi = sorted((s1, s2))
    assert line_crossing(p, lo).c_star <= line_crossing(p, hi).c_star + 1e-9


@given(cited_lists, st.floats(min_value=0.01, max_value=500.0))
def test_crossing_lies_on_the_curve(counts, slope):
    p = build_profile("a", counts)
    cp = line_crossing(p, slope)
    assert 0.0 < cp.r_star <= p.r + 1 + 1e-9
    assert abs(p.citation_at(min(cp.r_star, float(p.r + 1))) - cp.c_star) <= 1e-9 * max(1, p.c_max)
    assert abs(cp.c_star - slope * cp.r_star) <= 1e-9 * max(1.0, cp.c_star)


@given(counts_lists)
def test_kh_family_bounds(counts):
    p = build_profile("a", counts)
    h = h_index(p)
    assert kh1(p) >= h - 1e-9
    assert kh2(p) >= h - 1e-9
    assert kh1(p) <= p.c_max + 1e-9
    assert kh3(p) <= p.c_max + 1e-9
    assert kh_max(p) == max(kh1(p), kh2(p), kh3(p))


@given(counts_lists)
def test_g_relations(counts):
    p = build_profile("a", counts)
    g = g_index_parabola(p)
    assert math.isqrt(g) ** 2 == g
    assert math.isqrt(g) <= h_index(p)
    assert g_index_egghe(p) >= h_index(p)


@given(st.integers(min_value=1, max_value=60))
def test_uniform_profiles_pin_kh3_to_h(works):
    p = build_profile("a", [works] * works)
    assert h_index(p) == works
    assert kh3(p) == float(works)
    assert kh1(p) == float(works)


@given(counts_lists, st.integers(min_value=1, max_value=64))
def test_kh2_scales_with_the_square_root(counts, factor):
    p = build_profile("a", counts)
    scaled = build_profile("a", [c * factor for c in counts])
    assert math.isclose(kh2(scaled), math.sqrt(factor) * kh2(p), rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=40)
@given(st.lists(st.tuples(author_ids, counts_lists), min_size=2, max_size=5), st.randoms())
def test_merge_is_order_independent_and_flat(groups, rng):
    profiles = [build_profile(f"{name}{i}", counts) for i, (name, counts) in enumerate(groups)]
    flat = merge_profiles(profiles, label="g")
    shuffled = profiles[:]
    rng.shuffle(shuffled)
    assert merge_profiles(shuffled, label="g").merged.counts == flat.merged.counts
    staged = merge_profiles([merge_profiles(profiles[:2]), *profiles[2:]], label="g")
    assert staged.merged == flat.merged
    assert staged.author_count == flat.author_count
    assert flat.merged.r0 == sum(p.r0 for p in profiles)
    assert flat.merged.c_sigma == sum(p.c_sigma for p in profiles)
    assert flat.merged.c_max == max(p.c_max for p in profiles)


@settings(max_examples=40)
@given(st.lists(counts_lists, min_size=1, max_size=5), author_ids)
def test_merge_pools_like_building_from_the_concatenated_counts(groups, label):
    profiles = [build_profile(f"m{i}", counts) for i, counts in enumerate(groups)]
    pooled = [value for counts in groups for value in counts]
    assert merge_profiles(profiles, label=label).merged == build_profile(label, pooled)


@given(
    author_ids,
    counts_lists,
    st.one_of(st.none(), st.integers(min_value=1, max_value=80)),
    st.one_of(st.none(), author_ids),
)
def test_profile_documents_round_trip_as_json(author_id, citations, years, source):
    doc = ProfileDocument(author_id, tuple(citations), years, source)
    assert parse_profile_json(write_profile(doc, "json")) == doc


@given(author_ids, counts_lists)
def test_citation_lists_round_trip_as_csv(author_id, citations):
    doc = ProfileDocument(author_id, tuple(citations))
    assert parse_profile_csv(write_profile(doc, "csv"), author_id) == doc


@settings(max_examples=25)
@given(st.lists(st.tuples(author_ids, cited_lists), min_size=1, max_size=4))
def test_rendered_artifacts_are_deterministic(groups):
    profiles = [build_profile(f"{name}{i}", counts) for i, (name, counts) in enumerate(groups)]
    spec_a = build_plot_spec(profiles, guides=True)
    spec_b = build_plot_spec(profiles, guides=True)
    assert render_svg(spec_a) == render_svg(spec_b)
    reports = [compute_report(p) for p in profiles]
    assert write_report_table(reports, "csv") == write_report_table(reports, "csv")
    assert write_report_table(reports, "md") == write_report_table(reports, "md")


@settings(max_examples=50)
@given(st.lists(st.tuples(author_ids, cited_lists), min_size=1, max_size=3))
def test_markers_sit_on_their_curves(groups):
    profiles = {f"{name}{i}": build_profile(f"{name}{i}", counts) for i, (name, counts) in enumerate(groups)}
    spec = build_plot_spec(list(profiles.values()), include_g=True)
    for marker in spec.markers:
        profile = profiles[spec.curves[marker.curve].label]
        x = min(marker.point[0], float(profile.r + 1))
        assert abs(profile.citation_at(x) - marker.point[1]) <= 1e-9 * max(1, profile.c_max)


def _exact_ray_crossing(counts, slope: Fraction) -> tuple[Fraction, Fraction]:
    """Where c = slope * x meets the extended curve, by a linear scan over its segments in exact arithmetic."""
    cited = sorted((c for c in counts if c > 0), reverse=True)
    points = [(0, cited[0]), *enumerate(cited, start=1), (len(cited) + 1, 0)]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        above0, above1 = y0 - slope * x0, y1 - slope * x1  # height of the curve over the ray
        if above1 <= 0:
            x = x0 + (x1 - x0) * above0 / (above0 - above1)
            return x, slope * x
    raise AssertionError("the ray must cross the closed curve")


def _half_up(value: Fraction) -> str:
    tenths = math.floor(value * 10 + Fraction(1, 2))
    return f"{tenths // 10}.{tenths % 10}"


def _square_total(counts):
    """The counts plus one work that lifts the total to the next perfect square."""
    root = math.isqrt(sum(counts)) + 1
    return [*counts, root * root - sum(counts)]


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=0, max_value=2**53), max_size=30), st.booleans())
def test_kh1_and_kh3_crossings_are_the_exact_crossings_rounded_once(counts, square):
    counts = _square_total(counts) if square else counts
    assume(any(counts))
    p = build_profile("a", counts)
    x, c = _exact_ray_crossing(counts, Fraction(p.c_sigma, p.r))
    assert kh1_crossing(p) == (float(x), float(c))
    root = math.isqrt(p.c_sigma)
    if root * root == p.c_sigma:
        x, c = _exact_ray_crossing(counts, Fraction(root))
        assert kh3_crossing(p) == (float(x), float(c))


big_counts = st.lists(st.integers(min_value=0, max_value=2**53), max_size=30)
# subnormal to far above any c_max, and ints, whose ratio is exact too
slopes = st.one_of(st.floats(min_value=5e-324, max_value=2.0**60), st.integers(min_value=1, max_value=2**60))


@settings(max_examples=300)
@example([46, 36, 28, 25, 23, 8, 6], 2.162839019423509)  # a float search got the last bit of both wrong
@given(big_counts, slopes)
def test_line_crossing_is_the_exact_crossing_rounded_once(counts, slope):
    assume(any(counts))
    p = build_profile("a", counts)
    x, c = _exact_ray_crossing(counts, Fraction(slope))
    assert line_crossing(p, slope) == (float(x), float(c))


def _reals_between(lo: int, hi: int):
    """Numbers in [lo, hi] as ints, floats, Fractions, Decimals and NumPy scalars."""
    floats = st.floats(min_value=lo, max_value=hi)
    return st.one_of(
        st.integers(min_value=lo, max_value=hi),
        st.integers(min_value=lo, max_value=hi).map(np.int64),
        floats,
        floats.map(np.float64),
        floats.map(np.float32).filter(lambda x: lo <= x <= hi),
        st.fractions(min_value=lo, max_value=hi),
        st.decimals(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False),
    )


def _exact(value) -> Fraction:
    """The number a value stands for, NumPy's scalars through the builtin type that holds them exactly."""
    if isinstance(value, np.generic):
        value = value.item()
    return Fraction(value)


def _exact_curve(counts) -> list[tuple[int, int]]:
    """The vertices (j, C(j)) of the curve from rank 1 to its close at (r + 1, 0)."""
    cited = sorted((c for c in counts if c > 0), reverse=True)
    return [*enumerate(cited, start=1), (len(cited) + 1, 0)]


def _exact_curve_at(counts, x: Fraction) -> Fraction:
    points = _exact_curve(counts)
    if x < 1:
        return Fraction(points[0][1])  # the constant extension on [0, 1)
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0)
    raise AssertionError("a rank in [1, r + 1] must lie on a segment")


def _exact_level_crossing(counts, level: Fraction) -> tuple[Fraction, Fraction]:
    points = _exact_curve(counts)
    if level >= points[0][1]:
        return Fraction(1), Fraction(points[0][1])  # pinned at the top work
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if y1 <= level:
            return x0 + (level - y0) / (y1 - y0), level
    raise AssertionError("a positive level below c_max must meet the curve")


exact_counts = st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=30).filter(any)


@settings(max_examples=300)
@given(exact_counts, st.data())
def test_curve_values_and_level_crossings_are_floats_exact_then_rounded_once(counts, data):
    p = build_profile("a", counts)
    x = data.draw(_reals_between(0, p.r + 1), label="rank")
    value = p.citation_at(x)
    assert type(value) is float and value == float(_exact_curve_at(counts, _exact(x)))
    level = data.draw(_reals_between(0, 2 * p.c_max).filter(lambda v: v > 0), label="level")
    crossing = level_crossing(p, level)
    assert list(map(type, crossing)) == [float, float]
    assert crossing == tuple(map(float, _exact_level_crossing(counts, _exact(level))))


@given(big_counts)
def test_line_crossing_clamps_an_infinite_slope_and_rejects_nan(counts):
    assume(any(counts))
    p = build_profile("a", counts)
    assert line_crossing(p, math.inf) == (0.0, float(p.c_max))
    with pytest.raises(DomainError):
        line_crossing(p, math.nan)


@settings(max_examples=300)
@given(big_counts)
def test_kh3_crossing_at_a_non_square_total_is_the_exact_crossing_at_the_nearest_float_root(counts):
    p = build_profile("a", counts)
    root = math.isqrt(p.c_sigma)
    assume(root * root != p.c_sigma)
    x, c = _exact_ray_crossing(counts, Fraction(math.sqrt(p.c_sigma)))
    assert kh3_crossing(p) == (float(x), float(c))


@settings(max_examples=300)
@example([95, 16, 12], False)  # kh1 = 1189/20 = 59.45
@example([351, 167, 122, 89], False)  # c_sigma = 27**2, kh3 = 1989/20 = 99.45
@given(st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=8), st.booleans())
def test_kh1_and_kh3_display_the_exact_crossing_rounded_half_up(counts, square):
    counts = _square_total(counts) if square else counts
    p = build_profile("a", counts)
    assert format_real(kh1(p)) == _half_up(_exact_ray_crossing(counts, Fraction(p.c_sigma, p.r))[1])
    root = math.isqrt(p.c_sigma)
    if root * root == p.c_sigma:
        assert format_real(kh3(p)) == _half_up(_exact_ray_crossing(counts, Fraction(root))[1])


def _reference_cells(report):
    """Every report field as display text, formatted field by field."""
    return [
        report.author_id,
        str(report.r0),
        str(report.r),
        str(report.c_sigma),
        str(report.c10),
        str(report.c_max),
        format_real(report.c_s),
        str(report.h),
        str(report.g),
        format_real(report.m),
        str(report.i10),
        format_real(report.kh1),
        format_real(report.kh2),
        format_real(report.kh3),
        format_real(report.kh),
    ]


@given(
    st.lists(st.lists(st.integers(min_value=0, max_value=2**53), max_size=20), min_size=1, max_size=3),
    st.none() | st.integers(min_value=1, max_value=80),
)
def test_report_table_rows_format_each_field(groups, years):
    profiles = [build_profile(f"a{i}", counts, years) for i, counts in enumerate(groups)]
    reports = [compute_report(profile) for profile in profiles]
    total = collective_report(merge_profiles(profiles, label="total"))
    text = write_report_table(reports, "csv", include_kh=True, total=total)
    header = ["no", "r0", "r", "c_sigma", "c10", "c_max", "c_s", "h", "g", "m", "i10", "kh1", "kh2", "kh3", "kh"]
    rows = [_reference_cells(report) for report in reports] + [["total", *_reference_cells(total)[1:]]]
    assert list(csv.reader(io.StringIO(text))) == [header, *rows]


json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children)
    | st.dictionaries(st.sampled_from(["author_id", "citations", "career_years", "source"]) | st.text(), children),
)


@settings(max_examples=60)
@given(st.binary(max_size=200))
def test_any_file_bytes_parse_or_raise_a_library_error(data):
    with tempfile.TemporaryDirectory() as directory:
        for name in ("x.json", "x.csv"):
            path = Path(directory) / name
            path.write_bytes(data)
            try:
                parse_profile(path)
            except CitemetricError:
                pass


@given(json_trees)
def test_any_json_tree_parses_or_raises_a_library_error(tree):
    try:
        parse_profile_json(json.dumps(tree))
    except CitemetricError:
        pass


@given(
    st.lists(st.integers(min_value=0, max_value=2**53), max_size=40),
    st.one_of(st.none(), st.integers(min_value=1, max_value=80)),
)
def test_reports_of_counts_up_to_the_bound_are_finite(counts, years):
    report = compute_report(build_profile("a", counts, years))
    reals = [report.c_s, report.kh1, report.kh2, report.kh3, report.kh]
    assert all(math.isfinite(value) for value in reals)
    assert report.m is None or math.isfinite(report.m)


class _Count(int):
    """An int subclass, which the per-element check accepts as an integer."""


def _reference_check_counts(values, name):
    """Reference: a per-element loop over type and sign, then the bound."""
    for i, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{name}[{i}] is not an integer: {value!r}")
        if value < 0:
            raise ValidationError(f"{name}[{i}] is negative: {value}")
    if max(values, default=0) > MAX_COUNT:
        i = next(i for i, value in enumerate(values) if value > MAX_COUNT)
        raise ValidationError(f"{name}[{i}] is above the largest supported count, 2**53")


def _outcome(check, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return check(*args)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


exact_ints = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=MAX_COUNT - 2, max_value=MAX_COUNT + 2),
    st.integers(min_value=-(2**70), max_value=2**70),
)
count_like = st.one_of(
    exact_ints,
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.integers(min_value=-2, max_value=MAX_COUNT + 2).map(_Count),
)


@settings(max_examples=300)
@given(st.lists(exact_ints, max_size=30) | st.lists(count_like, max_size=30))
def test_check_counts_matches_the_per_element_loop(values):
    assert _outcome(check_counts, values, "counts") == _outcome(_reference_check_counts, values, "counts")


def _reference_parse_csv_counts(lines):
    """The line loop of parse_profile_csv, run on every body line."""
    values = []
    for lineno, line in enumerate(lines, start=2):
        cell = line.strip()
        if not cell:
            continue
        if not cell.isascii() or "_" in cell:
            raise ParseError(f"line {lineno}: not an integer: {cell!r}")
        try:
            value = int(cell)
        except ValueError:
            digits = cell[1:] if cell[0] in "+-" else cell
            if digits.isdecimal():
                if cell[0] == "-":
                    raise ValidationError(f"line {lineno}: citations must be non-negative") from None
                raise ValidationError(f"line {lineno}: citations must be at most 2**53") from None
            raise ParseError(f"line {lineno}: not an integer: {cell!r}") from None
        if value < 0:
            raise ValidationError(f"line {lineno}: citations must be non-negative, got {value}")
        if value > MAX_COUNT:
            raise ValidationError(f"line {lineno}: citations must be at most 2**53")
        values.append(value)
    return ProfileDocument("a", tuple(values))


csv_cells = st.one_of(
    st.integers(min_value=-2, max_value=2).map(str),
    st.integers(min_value=0, max_value=500).map(str),
    st.sampled_from(["", "  ", "+5", "1_000", "1,000", "-3", "-0", "7.0", "x", "\u0663"]),
    st.sampled_from([str(MAX_COUNT), str(MAX_COUNT + 1), "1" + "0" * 5000, "+1" + "0" * 5000, "-1" + "0" * 5000]),
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
)
padded_cells = st.tuples(st.sampled_from(["", " ", "\t", " \u3000"]), csv_cells, st.sampled_from(["", " ", "\t\f"]))


@settings(max_examples=300)
@given(st.lists(padded_cells.map("".join), max_size=20), st.booleans())
def test_parse_csv_matches_the_line_loop(lines, trailing_newline):
    text = "citations\n" + "\n".join(lines) + ("\n" if trailing_newline else "")
    expected = _outcome(_reference_parse_csv_counts, text.splitlines()[1:])
    assert _outcome(parse_profile_csv, text, "a") == expected


# bare digit cells, which json's scanner reads, and cells that JSON reads otherwise than int()
json_like_cells = st.one_of(
    st.integers(min_value=0, max_value=500).map(str),
    st.integers(min_value=0, max_value=2**60).map(str),
    st.sampled_from([str(MAX_COUNT), str(MAX_COUNT + 1), "9007199254740993", "1" + "0" * 5000, "0", ""]),
    st.sampled_from(["007", "00", "1e3", "1.0", "true", "null", "NaN", "[1]", "1,2", "-0", "+5", " 5", "-3"]),
)


@settings(max_examples=400)
@given(
    st.sampled_from(["citations", "citations\r", " citations"]),
    st.lists(json_like_cells, max_size=20),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.sampled_from(["", "\n", "\r\n", "\r", "\n\n"]),
)
def test_parse_csv_matches_the_line_loop_on_any_line_end(header, cells, line_end, ending):
    text = header + line_end + line_end.join(cells) + ending
    expected = _outcome(_reference_parse_csv_counts, text.splitlines()[1:])
    assert _outcome(parse_profile_csv, text, "a") == expected


def _reference_build_profile(counts, career_years):
    """The body build_profile had before it checked bounds on the sorted ends."""
    raw = list(counts)
    check_counts(raw, "counts")
    check_career_years(career_years)
    return from_sorted("a", tuple(sorted(raw, reverse=True)), career_years)


career_years_like = st.one_of(st.none(), st.integers(min_value=-1, max_value=3), st.booleans(), st.just(2.0))


@settings(max_examples=300)
@given(st.lists(exact_ints, max_size=30) | st.lists(count_like, max_size=30), career_years_like)
def test_build_profile_matches_validate_then_sort(values, career_years):
    # a TypeError from sorting mixed types would escape _outcome and fail the test
    expected = _outcome(_reference_build_profile, values, career_years)
    assert _outcome(build_profile, "a", values, career_years) == expected


def _reference_write_json(doc):
    data = {"author_id": doc.author_id, "citations": list(doc.citations)}
    if doc.career_years is not None:
        data["career_years"] = doc.career_years
    if doc.source is not None:
        data["source"] = doc.source
    return json.dumps(data, ensure_ascii=False) + "\n"


# runs of one value whose lengths straddle the block boundaries write_profile cuts at
count_runs = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2, 7, 2**53, True, False, 1.0, _Count(1), "\u00e9"])
        | st.integers(min_value=0, max_value=2**60),
        st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK + 1]),
    ),
    max_size=4,
)
json_text = st.text(st.sampled_from('a"\\\u00e9\t\x00\u2028'), max_size=6) | st.text(max_size=6)


def _trap(value):
    """A block of 1s but for one last count that compares equal to them without being an exact int."""
    return ([(1, _BLOCK - 1), (value, 1)], "as drawn", random.Random(0), "a", None, None)


@settings(max_examples=200)
@example(*_trap(True))
@example(*_trap(1.0))
@example(*_trap(_Count(1)))
@example([(0, _BLOCK + 1), (False, _BLOCK)], "sorted", random.Random(0), "a", 3, "s")
@example([("\u00e9", 1), (1, _BLOCK - 1), (2, _BLOCK), ("\u00e9", 1)], "as drawn", random.Random(0), "\u00e9", 3, "\\")
@given(
    count_runs,
    st.sampled_from(["as drawn", "sorted", "shuffled"]),
    st.randoms(use_true_random=False),
    json_text,
    st.none() | st.integers(min_value=1, max_value=80),
    st.none() | json_text,
)
def test_write_profile_json_matches_json_dumps(runs, order, rng, author_id, years, source):
    counts = [value for value, length in runs for _ in range(length)]
    if order == "sorted":
        counts.sort(key=lambda value: (isinstance(value, str), value), reverse=True)  # text apart from numbers
    elif order == "shuffled":
        rng.shuffle(counts)
    doc = ProfileDocument(author_id, tuple(counts), years, source)
    assert write_profile(doc, "json") == _reference_write_json(doc)


def _linear_first_vertex(profile, test):
    """Reference: the first rank in 1..r + 1 whose vertex, read through CitationProfile.vertex, passes."""
    return next((j for j in range(1, profile.r + 2) if test(j, profile.vertex(j))), profile.r + 2)


# small counts make h, g and i_k vary; the rest reach the bound
locator_counts = st.lists(
    st.integers(min_value=0, max_value=40) | st.integers(min_value=0, max_value=MAX_COUNT), max_size=30
)
positive = st.integers(min_value=1, max_value=50) | st.integers(min_value=1, max_value=MAX_COUNT)


@settings(max_examples=300)
@example([], 10, 1, 1, 1.0)  # r = 0: the closing vertex (1, 0) is the only one
@example([0, 0, 0], 10, 1, 1, 0.5)  # all uncited
@example([MAX_COUNT] * 3, MAX_COUNT, MAX_COUNT, 1, float(MAX_COUNT))
@given(locator_counts, positive, positive, positive, st.floats(min_value=0.0, max_value=2.0**54))
def test_first_vertex_matches_a_linear_scan_over_the_vertices(counts, k, p, q, value):
    """The bisect reads the counts directly; each test the library passes finds what a scan of vertex() finds."""
    profile = build_profile("a", counts)
    tests = {
        "h": lambda j, c: c < j,
        "g": lambda j, c: c < j * j,
        "i_k": lambda j, c: c < k,
        "ray": lambda j, c: c * q <= p * j,
        "level": lambda j, c: c <= value,
    }
    for name, test in tests.items():
        assert first_vertex(profile, test) == _linear_first_vertex(profile, test), name


@settings(max_examples=300)
@example([], 3)  # no works: m stays absent even with a career length
@example([0, 0], 3)
@given(locator_counts, st.none() | st.integers(min_value=1, max_value=80))
def test_report_m_is_m_index_exactly_when_there_are_works_and_a_career(counts, years):
    profile = build_profile("a", counts, years)
    report = compute_report(profile)
    if profile.r0 > 0 and years is not None:
        assert report.m == m_index(profile)
    else:
        assert report.m is None
    assert report.c10 == c_k(profile, 10)
    assert report.h == h_index(profile)


@settings(max_examples=200)
@given(locator_counts, st.none() | st.integers(min_value=1, max_value=80))
def test_build_profile_reads_a_list_a_tuple_and_a_generator_alike(counts, years):
    given_list = list(counts)
    built = build_profile("a", given_list, years)
    assert build_profile("a", tuple(counts), years) == built
    assert build_profile("a", (c for c in counts), years) == built  # one-shot: read once
    assert given_list == counts  # sorted into a new tuple, not in place


@settings(max_examples=300)
@given(locator_counts)
def test_profile_totals_are_those_of_the_positive_counts(counts):
    """Checked against the raw counts, not through from_sorted, which sums the zeros too."""
    cited = [c for c in counts if c > 0]
    p = build_profile("a", counts)
    assert (p.r0, p.r, p.c_sigma, p.c_max) == (len(counts), len(cited), sum(cited), max(cited, default=0))
    assert p.c_s == (sum(cited) / len(cited) if cited else 0.0)


def _reference_format_real(value, decimals):
    try:
        return str(Decimal(str(value)).quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP))
    except ArithmeticError as exc:  # decimal.InvalidOperation: more digits than the context's precision
        return type(exc), exc.args


# one-decimal ties (2k+1)/20 up to 2**45, where table cells format without decimal
display_ties = st.integers(min_value=0, max_value=10 * 2**45).map(lambda k: (2 * k + 1) / 20)
display_floats = st.one_of(
    st.floats(),  # NaN, ±inf, huge and tiny values included
    display_ties,
    st.tuples(display_ties, st.sampled_from([-math.inf, math.inf])).map(lambda pair: math.nextafter(*pair)),
    display_ties.map(lambda tie: -tie),
    st.floats(min_value=2.0**45 - 4, max_value=2.0**45 + 4),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-05, 2.0**45 - 0.25]),
)


@settings(max_examples=1000)
@example(0.05, 1)
@example(0.25, 1)
@example(-0.05, 1)
@example(9.95, 1)
@example(2.0**45 - 0.25, 1)
@example(1e30, 1)  # 32 digits: quantize raises
@example(2.0**53 + 0.5, 3)
@example(math.inf, 1)
@given(display_floats | display_floats.map(np.float64), st.integers(min_value=0, max_value=3))
def test_format_real_is_the_decimal_of_the_shortest_repr_rounded_half_up(value, decimals):
    try:
        got = format_real(value, decimals)
    except ArithmeticError as exc:
        got = type(exc), exc.args
    assert got == _reference_format_real(value, decimals)
    assert format_real(None, decimals) == "-"
