import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetric import (
    DomainError,
    EmptyProfileError,
    MissingFieldError,
    build_profile,
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
    synthesize_counts,
)
from citemetric.indices import level_crossing
from citemetric.profile import CitationProfile, first_vertex
from oracles import brute_g_parabola, brute_h, brute_i_k, check_crossing_against_grid


def test_crossing_mid_segment():
    p = build_profile("a", [7, 1])
    cp = line_crossing(p, 4.0)  # segment from (1, 7) to (2, 1) meets c = 4r at r = 1.3
    assert cp.r_star == pytest.approx(1.3, abs=1e-12)
    assert cp.c_star == pytest.approx(5.2, abs=1e-12)


def test_crossing_at_clamp_boundary():
    cp = line_crossing(build_profile("a", [2]), 2.0)
    assert (cp.r_star, cp.c_star) == (1.0, 2.0)


def test_crossing_inside_constant_extension():
    cp = line_crossing(build_profile("a", [2]), 4.0)
    assert (cp.r_star, cp.c_star) == (0.5, 2.0)  # ordinate capped at c_max


def test_crossing_uniform_profile():
    cp = line_crossing(build_profile("a", [3, 3, 3]), 3.0)
    assert (cp.r_star, cp.c_star) == (1.0, 3.0)


def test_crossing_agrees_with_grid_scan():
    cases = [
        ([7, 1], 4.0),
        ([7, 1], math.sqrt(8)),
        ([2], math.sqrt(2)),
        ([9, 7, 7, 3, 1, 1], 1.0),
        ([9, 7, 7, 3, 1, 1], 4.6666),
        ([40, 12, 3, 3, 2, 1, 1, 1], 0.25),
    ]
    for counts, slope in cases:
        p = build_profile("a", counts)
        check_crossing_against_grid(line_crossing(p, slope), slope, counts)


def test_crossing_rejects_bad_input():
    with pytest.raises(EmptyProfileError):
        line_crossing(build_profile("a", [0, 0]), 1.0)
    with pytest.raises(DomainError):
        line_crossing(build_profile("a", [3]), 0.0)
    with pytest.raises(DomainError):
        line_crossing(build_profile("a", [3]), -2.0)


def test_crossing_takes_any_slope_with_an_integer_ratio_at_its_exact_value():
    p = build_profile("a", [46, 36, 28, 25, 23, 8, 6])
    for slope in (3, np.float32(3.0), Fraction(3), Decimal(3)):
        assert line_crossing(p, slope) == line_crossing(p, 3.0)
    third = line_crossing(p, Fraction(1, 3))  # meets C(x) = 48 - 6x, from (7, 6) to (8, 0), at x = 144/19
    assert third == (144 / 19, 48 / 19)


@pytest.mark.parametrize(
    "slope, equal",
    [
        (np.int64(3), 3),
        (np.uint8(2), 2),
        (np.int64(2**62), 2**62),  # steeper than c_max: clamped
        (np.float32(0.1), float(np.float32(0.1))),
        (np.float64(2.5), 2.5),
        (Fraction(3, 2), 1.5),
        (Decimal("2.75"), 2.75),
        (np.float32("inf"), math.inf),
    ],
    ids=repr,
)
def test_crossing_of_a_real_slope_equals_that_of_its_builtin_equal(slope, equal):
    p = build_profile("a", [46, 36, 28, 25, 23, 8, 6])
    assert slope == equal
    assert line_crossing(p, slope) == line_crossing(p, equal)


@pytest.mark.parametrize(
    "slope",
    [math.nan, np.float32("nan"), np.float64("nan"), np.int64(0), np.uint8(0), np.int64(-3), Fraction(-1, 2),
     Decimal("-0.5"), Decimal(0), Decimal("NaN"), Decimal("sNaN")],
    ids=repr,
)
def test_crossing_rejects_nan_and_non_positive_slopes_of_any_type(slope):
    with pytest.raises(DomainError):
        line_crossing(build_profile("a", [3]), slope)


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda p: i_k(p, math.nan), DomainError, id="i_k-nan"),
        pytest.param(lambda p: c_k(p, math.nan), DomainError, id="c_k-nan"),
        pytest.param(lambda p: p.citation_at(math.nan), DomainError, id="citation_at-nan"),
        pytest.param(lambda p: level_crossing(p, math.nan), DomainError, id="level-nan"),
        pytest.param(lambda p: level_crossing(p, Decimal("NaN")), DomainError, id="level-decimal-nan"),
        pytest.param(lambda p: level_crossing(p, -1), DomainError, id="level-negative"),
        pytest.param(lambda p: level_crossing(p, 0), DomainError, id="level-zero"),
        pytest.param(lambda p: level_crossing(build_profile("a", [0, 0]), 1.0), EmptyProfileError, id="level-uncited"),
        pytest.param(lambda p: i_k(p, Decimal("NaN")), DomainError, id="i_k-decimal-nan"),
        pytest.param(lambda p: i_k(p, Decimal("sNaN")), DomainError, id="i_k-decimal-snan"),
        pytest.param(lambda p: c_k(p, Decimal("NaN")), DomainError, id="c_k-decimal-nan"),
        pytest.param(lambda p: c_k(p, Decimal("sNaN")), DomainError, id="c_k-decimal-snan"),
        pytest.param(lambda p: p.citation_at(Decimal("NaN")), DomainError, id="citation_at-decimal-nan"),
        pytest.param(lambda p: p.citation_at(Decimal("sNaN")), DomainError, id="citation_at-decimal-snan"),
        pytest.param(lambda p: c_k(p, 2.5), DomainError, id="c_k-not-whole"),
        pytest.param(lambda p: c_k(p, math.inf), DomainError, id="c_k-inf"),
    ],
)
def test_numbers_outside_the_domain_raise_the_domain_rule_nan_included(call, error):
    with pytest.raises(error):
        call(build_profile("a", [9, 5, 3, 1, 0]))


@pytest.mark.parametrize(
    "value, shown",
    [(-(10**5000), "a negative integer of 5,001 digits"), (Fraction(-(10**5000), 3), "a Fraction too long to print")],
    ids=["int", "Fraction"],
)
@pytest.mark.parametrize(
    "call",
    [line_crossing, level_crossing, i_k, c_k, CitationProfile.citation_at],
    ids=["line_crossing", "level_crossing", "i_k", "c_k", "citation_at"],
)
def test_a_number_too_long_to_print_is_named_without_its_digits(call, value, shown):
    # repr() of an int of more than 4,300 digits raises ValueError
    with pytest.raises(DomainError, match=shown):
        call(build_profile("a", [9, 5, 3, 1, 0]), value)


def test_a_rank_too_long_to_print_past_the_curve_is_named_by_its_digit_count():
    with pytest.raises(DomainError, match=r"^rank an integer of 5,001 digits outside the curve domain \[0, 5\]$"):
        build_profile("a", [9, 5, 3, 1, 0]).citation_at(10**5000)


def test_h_index_examples():
    assert h_index(build_profile("a", [7, 1])) == 1
    assert h_index(build_profile("a", [10, 5, 2])) == 2
    assert h_index(build_profile("a", [3, 3, 3])) == 3
    assert h_index(build_profile("a", [1, 1, 1, 1])) == 1
    assert h_index(build_profile("a", [])) == 0
    assert h_index(build_profile("a", [0, 0])) == 0


def test_g_parabola_examples():
    assert g_index_parabola(build_profile("a", [7, 1])) == 1
    assert g_index_parabola(build_profile("a", [10, 5, 2])) == 4
    assert g_index_parabola(build_profile("a", [1])) == 1
    assert g_index_parabola(build_profile("a", [])) == 0
    # always a perfect square
    g = g_index_parabola(build_profile("a", [100, 90, 80, 17, 2]))
    assert math.isqrt(g) ** 2 == g == 16


def test_g_egghe_examples():
    assert g_index_egghe(build_profile("a", [7, 1])) == 2
    assert g_index_egghe(build_profile("a", [4, 4, 4, 4])) == 4
    assert g_index_egghe(build_profile("a", [100])) == 1  # capped by the number of works
    assert g_index_egghe(build_profile("a", [9, 1, 0, 0])) == 3  # zero-cited works pad the tail
    assert g_index_egghe(build_profile("a", [])) == 0


def test_m_index():
    assert m_index(build_profile("a", [7, 1], career_years=7)) == pytest.approx(1 / 7)
    with pytest.raises(MissingFieldError):
        m_index(build_profile("a", [7, 1]))


def test_i_k_and_c_k():
    p = build_profile("a", [13, 4])
    assert i_k(p, 10) == 1
    assert i_k(p, 4) == 2
    assert i_k(p, 14) == 0
    assert c_k(p, 10) == 17
    assert c_k(p, 1) == 13
    assert c_k(p, 100) == 17
    with pytest.raises(DomainError):
        i_k(p, 0)
    with pytest.raises(DomainError):
        c_k(p, 0)
    empty = build_profile("a", [])
    assert i_k(empty, 10) == 0
    assert c_k(empty, 10) == 0


def _numbers_of_every_type():
    """Negatives, 0, 0.5, whole numbers, 2.5, ints past 2**64, +-inf and NaNs, as each type that takes them.

    The integer types truncate 0.5 and 2.5, which adds whole numbers only.
    """
    numbers = [Decimal("NaN"), Decimal("sNaN"), np.float32("nan")]
    for value in (-3, -1, 0, 0.5, 1, 2, 2.5, 3, 10, 2**64 + 5, math.inf, -math.inf, math.nan):
        for kind in (int, float, Fraction, Decimal, np.int64, np.float64):
            try:
                numbers.append(kind(value))
            except (ValueError, OverflowError):  # a NaN or an infinity as an int or a Fraction, 2**64 + 5 as an int64
                pass
    return numbers


def _whole(value):
    try:
        return value == int(value)
    except (ValueError, OverflowError):  # NaNs and infinities
        return False


def _outcome(call, *args):
    """What the call returns, or the type of the citemetric error it raises."""
    try:
        return call(*args)
    except (DomainError, EmptyProfileError) as error:
        return type(error)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([i_k, c_k, line_crossing, level_crossing, lambda p, x: p.citation_at(x)]),
    st.sampled_from([[9, 5, 3, 1, 0], [0, 0], []]),
    st.sampled_from(_numbers_of_every_type()),
)
def test_a_number_of_any_type_returns_or_raises_the_domain_or_empty_rule(call, counts, value):
    p = build_profile("a", counts)
    result = _outcome(call, p, value)  # any other exception fails the test
    if call in (i_k, c_k) and _whole(value):
        assert result == _outcome(call, p, int(value))


@pytest.mark.parametrize(
    "call", [i_k, c_k, line_crossing, level_crossing, CitationProfile.citation_at], ids=lambda call: call.__name__
)
@pytest.mark.parametrize("value", ["2", None, 1j], ids=repr)
def test_a_value_that_is_not_a_real_number_raises_type_error(call, value):
    with pytest.raises(TypeError):
        call(build_profile("a", [9, 5, 3, 1, 0]), value)


@pytest.mark.parametrize("rank", [Decimal("2.5"), Fraction(5, 2)], ids=repr)
def test_a_rank_of_any_type_reads_the_curve_as_a_float(rank):
    value = build_profile("a", [9, 5, 3, 1, 0]).citation_at(rank)
    assert type(value) is float and value == 4.0


def test_a_decimal_level_crosses_the_curve_at_floats():
    crossing = level_crossing(build_profile("a", [9, 5, 3, 1, 0]), Decimal("2.5"))
    assert list(map(type, crossing)) == [float, float] and crossing == (3.25, 2.5)


def test_kh_values_for_two_work_profile():
    p = build_profile("a", [7, 1])
    assert kh1(p) == pytest.approx(5.2, abs=1e-12)
    assert kh2(p) == pytest.approx(math.sqrt(8), abs=1e-12)
    assert kh3(p) == pytest.approx(13 * math.sqrt(8) / (6 + math.sqrt(8)), abs=1e-9)


def test_kh_values_for_single_work_profiles():
    p = build_profile("a", [2, 0, 0])
    assert kh1(p) == 2.0
    assert kh2(p) == pytest.approx(math.sqrt(2))
    assert kh3(p) == pytest.approx(4 * math.sqrt(2) / (2 + math.sqrt(2)), abs=1e-9)
    q = build_profile("b", [4])
    assert kh1(q) == 4.0
    assert kh3(q) == pytest.approx(8 / 3, abs=1e-9)
    s = build_profile("c", [3])
    assert kh3(s) == pytest.approx(3 * math.sqrt(3) - 3, abs=1e-9)


def test_kh3_clamps_at_top_citation_count():
    # sqrt(789) is about 28.1, steeper than the top count of 19
    p = build_profile("a", synthesize_counts(198, 142, 789, 19))
    assert kh3(p) == 19.0


def test_kh_max_is_the_largest_of_the_three():
    p = build_profile("a", [7, 1])
    assert kh_max(p) == max(kh1(p), kh2(p), kh3(p)) == kh1(p)
    u = build_profile("u", [5, 5, 5, 5, 5])
    assert kh1(u) == kh2(u) == kh3(u) == kh_max(u) == 5.0


def test_empty_profile_indices_are_zero_by_convention():
    p = build_profile("a", [])
    assert kh1(p) == 0.0
    assert kh2(p) == 0.0
    assert kh3(p) == 0.0
    assert kh_max(p) == 0.0
    report = compute_report(p)
    assert (report.r0, report.r, report.h, report.g, report.i10, report.c10) == (0, 0, 0, 0, 0, 0)
    assert report.kh == 0.0
    assert report.m is None


def test_report_collects_every_column():
    report = compute_report(build_profile("w", [2, 0, 0], career_years=2))
    assert report.author_id == "w"
    assert (report.r0, report.r, report.c_sigma, report.c10, report.c_max) == (3, 1, 2, 2, 2)
    assert report.c_s == 2.0
    assert (report.h, report.g, report.i10) == (1, 1, 0)
    assert report.m == 0.5
    assert report.kh1 == 2.0
    assert report.kh2 == pytest.approx(1.41, abs=0.005)
    assert report.kh3 == pytest.approx(1.66, abs=0.005)
    assert report.kh == 2.0


def test_report_m_absent_without_career_years():
    assert compute_report(build_profile("a", [5, 3])).m is None


@pytest.mark.parametrize(
    "counts, slope, segment, value, level_point",
    [
        pytest.param([5], 1.0, 1, 2.5, (1.5, 2.5), id="r=1"),
        pytest.param([4, 4, 4, 4], 1.0, 3, 2.0, (4.5, 2.0), id="all-equal"),
        pytest.param([3, 3, 3], 0.5, 3, 1.5, (3.5, 1.5), id="crossing-on-last-segment"),
        pytest.param([5, 4, 4, 3], 4.0, 1, 4.0, (2.0, 4.0), id="flat-segment-at-kh2"),
        pytest.param([3, 1, 0, 0], 1.0, 1, 0.5, (2.5, 0.5), id="zeros-after-r"),
        pytest.param([4, 2, 1], 1.0, 1, 4.0, (1.0, 4.0), id="level-at-c-max"),
        pytest.param([4, 2, 1], 1.0, 1, 9.5, (1.0, 4.0), id="level-above-c-max"),
        pytest.param([4, 2, 1], 1.0, 1, math.inf, (1.0, 4.0), id="level-infinite"),
    ],
)
def test_locator_edge_cases(counts, slope, segment, value, level_point):
    """Every search on the curve goes through first_vertex; check each at the edges."""
    p = build_profile("a", counts)
    assert first_vertex(p, lambda j, c: c == 0) == p.r + 1
    assert h_index(p) == brute_h(counts)
    assert g_index_parabola(p) == brute_g_parabola(counts)
    thresholds = range(1, p.c_max + 2)
    assert [i_k(p, k) for k in thresholds] == [brute_i_k(counts, k) for k in thresholds]
    crossing = line_crossing(p, slope)
    assert segment < crossing.r_star <= segment + 1
    check_crossing_against_grid(crossing, slope, counts)
    level = level_crossing(p, value)
    assert (level.r_star, level.c_star) == pytest.approx(level_point, abs=1e-12)
