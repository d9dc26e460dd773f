import pytest

from citemetric import DomainError, EmptyProfileError, ValidationError, build_profile, synthesize_counts


def test_build_sorts_and_derives_scalars():
    p = build_profile("a", [1, 7])
    assert p.counts == (7, 1)
    assert (p.r0, p.r, p.c_sigma, p.c_max) == (2, 2, 8, 7)
    assert p.c_s == 4.0


def test_zero_cited_works_kept_but_excluded_from_curve_totals():
    p = build_profile("a", [0, 2, 0])
    assert p.counts == (2, 0, 0)
    assert (p.r0, p.r, p.c_sigma, p.c_max) == (3, 1, 2, 2)
    assert p.c_s == 2.0


def test_empty_profile_scalars():
    p = build_profile("a", [])
    assert (p.r0, p.r, p.c_sigma, p.c_max, p.c_s) == (0, 0, 0, 0, 0.0)


def test_all_zero_profile_has_no_cited_works():
    p = build_profile("a", [0, 0, 0])
    assert (p.r0, p.r, p.c_sigma, p.c_max, p.c_s) == (3, 0, 0, 0, 0.0)


def test_negative_count_rejected_naming_the_index():
    with pytest.raises(ValidationError, match=r"counts\[2\]"):
        build_profile("a", [3, 1, -1])


def test_non_integer_count_rejected():
    with pytest.raises(ValidationError):
        build_profile("a", [1.5])
    with pytest.raises(ValidationError):
        build_profile("a", [True])


def test_career_years_must_be_a_positive_integer():
    with pytest.raises(ValidationError):
        build_profile("a", [1], career_years=0)
    with pytest.raises(ValidationError):
        build_profile("a", [1], career_years=-3)
    assert build_profile("a", [1], career_years=12).career_years == 12


def test_curve_interpolates_between_ranks():
    p = build_profile("a", [7, 1])
    assert p.citation_at(1.0) == 7.0
    assert p.citation_at(1.5) == 4.0
    assert p.citation_at(2.0) == 1.0
    assert p.citation_at(2.5) == 0.5
    assert p.citation_at(3.0) == 0.0


def test_curve_is_constant_below_rank_one():
    p = build_profile("a", [7, 1])
    assert p.citation_at(0.0) == 7.0
    assert p.citation_at(0.2) == 7.0
    assert p.citation_at(0.999) == 7.0


def test_curve_domain_is_bounded():
    p = build_profile("a", [7, 1])
    with pytest.raises(DomainError):
        p.citation_at(3.0001)
    with pytest.raises(DomainError):
        p.citation_at(-0.1)


def test_curve_ends_where_cited_works_do():
    p = build_profile("a", [2, 0, 0])
    assert p.citation_at(2.0) == 0.0  # closes at r + 1, zero-cited tail not part of the curve
    with pytest.raises(DomainError):
        p.citation_at(2.5)


def test_curve_undefined_without_cited_works():
    with pytest.raises(EmptyProfileError):
        build_profile("a", [0, 0]).citation_at(0.5)
    with pytest.raises(EmptyProfileError):
        build_profile("a", []).citation_at(0.0)


def test_rebuilding_from_sorted_counts_changes_nothing():
    p = build_profile("a", [5, 9, 0, 3])
    q = build_profile("a", p.counts)
    assert q == p


def test_counts_above_two_to_the_53_rejected_naming_the_index():
    assert build_profile("a", [2**53, 1]).c_max == 2**53
    with pytest.raises(ValidationError, match=r"^counts\[1\] is above the largest supported count"):
        build_profile("a", [3, 10**5000, 2**53 + 1])


@pytest.mark.parametrize(
    "r0, r, c_sigma, c_max, message",
    [
        (3, 4, 10, 5, "need 0 <= r <= r0"),
        (3, -1, 10, 5, "need 0 <= r <= r0"),
        (3, 0, 1, 0, "r == 0 forces c_sigma == 0 and c_max == 0"),
        (3, 0, 0, 1, "r == 0 forces c_sigma == 0 and c_max == 0"),
        (3, 2, 5, 0, "need 1 <= c_max <= c_sigma"),
        (3, 2, 4, 5, "need 1 <= c_max <= c_sigma"),
        (3, 3, 6, 5, "c_sigma too small"),
        (3, 2, 11, 5, "c_sigma too large"),
    ],
)
def test_synthesize_counts_rejects_infeasible_parameters(r0, r, c_sigma, c_max, message):
    with pytest.raises(ValidationError, match=message):
        synthesize_counts(r0, r, c_sigma, c_max)


def test_synthesize_counts_without_cited_works_is_all_zeros():
    assert synthesize_counts(3, 0, 0, 0) == [0, 0, 0]
    assert synthesize_counts(0, 0, 0, 0) == []
