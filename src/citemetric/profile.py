"""Citation profiles and the piecewise-linear citation curve.

A profile keeps one entry per work, zero-cited works included, sorted by
citation count from highest to lowest.  The citation curve is built from
the cited works only: rank 1 carries the most-cited work, the curve
closes at (r + 1, 0), values between integer ranks are interpolated
linearly, and on [0, 1) the curve is extended as the constant c_max so
that arbitrarily steep rays from the origin still cross it.
"""

from __future__ import annotations

import bisect
import numbers
import operator
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import DomainError, EmptyProfileError, ValidationError

MAX_COUNT = 2**53  # the largest integer a float holds exactly; c_s and the crossings stay finite


class CitationProfile(NamedTuple):
    """Per-author citation counts plus the derived scalar parameters."""

    author_id: str
    counts: tuple[int, ...]  # sorted non-increasing, zeros kept
    career_years: int | None
    r0: int  # total works
    r: int  # works cited at least once
    c_sigma: int  # citations summed over cited works
    c_max: int  # citations of the top-ranked work
    c_s: float  # c_sigma / r, 0.0 when r == 0

    def citation_at(self, x: float) -> float:
        """Evaluate the citation curve at rank ``x``.

        Defined on [0, r + 1]: constant c_max on [0, 1), linear between
        integer ranks afterwards, 0 at r + 1; read at x's exact value, rounded once.
        """
        check_cited(self)
        top = self.r + 1
        p, q = exact_ratio(x, lambda p, q: 0 <= p <= top * q, "rank {!r} outside the curve domain [0, {}]", top)
        if p < q:
            return float(self.c_max)
        k = p // q
        here = self.vertex(k)
        return (here * q + (self.vertex(k + 1) - here) * (p - k * q)) / q

    def vertex(self, j: int) -> int:
        """C(j) at an integer rank j >= 1: the j-th count, and 0 from r + 1 on (first_vertex inlines this rule)."""
        return self.counts[j - 1] if j <= self.r else 0


def check_cited(profile: CitationProfile) -> None:
    """Reject a profile without cited works, on which the curve is undefined."""
    if profile.r == 0:
        raise EmptyProfileError(f"profile {profile.author_id!r} has no cited works; the curve is undefined")


def exact_ratio(value: float, inside: Callable[[int, int], bool], message: str, *args: object) -> tuple[int, int]:
    """The exact value of a real number as integers (p, q), q >= 0, that pass ``inside(p, q)``.

    An integer of any type, NumPy's included, is int(value) / 1, any other real its
    ``as_integer_ratio()``, and +-inf is +-1 / 0.  A value outside the domain, as a NaN
    always is, raises DomainError with ``message.format(value, *args)``.
    """
    if type(value) is int or isinstance(value, numbers.Integral):
        ratio: tuple[int, int] | None = (int(value), 1)  # NumPy's integers have no as_integer_ratio()
    else:
        try:
            ratio = value.as_integer_ratio()
        except AttributeError:
            raise TypeError(f"expected a real number, got {value!r}") from None
        except OverflowError:  # an infinity
            ratio = (1 if value > 0 else -1, 0)
        except ValueError:  # a NaN
            ratio = None
    if ratio is None or not inside(*ratio):
        raise DomainError(message.format(value, *args))
    return ratio


class CrossingPoint(NamedTuple):
    """Where a ray from the origin, or a level, meets a citation curve: exact, then rounded once."""

    r_star: float
    c_star: float


def check_counts(values: Sequence[object], name: str) -> None:
    """Reject any value that is not an integer in [0, MAX_COUNT], naming it as ``name[i]``.

    Type and sign errors take precedence over the bound.  A count above
    the bound stays out of the message, as str() of an int of more than
    4,300 digits raises.
    """
    if (
        set(map(type, values)) <= {int}
        and min(values, default=0) >= 0
        and max(values, default=0) <= MAX_COUNT
    ):
        return
    # Some value fails, or is an int subclass: find the first offender to name it.
    for i, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{name}[{i}] is not an integer: {value!r}")
        if value < 0:
            raise ValidationError(f"{name}[{i}] is negative: {value}")
    for i, value in enumerate(values):
        if value > MAX_COUNT:
            raise ValidationError(f"{name}[{i}] is above the largest supported count, 2**53")


def check_career_years(career_years: object) -> None:
    """Reject a career length that is present but not a positive integer."""
    if career_years is not None:
        if isinstance(career_years, bool) or not isinstance(career_years, int) or career_years < 1:
            raise ValidationError(f"career_years must be a positive integer, got {career_years!r}")


def build_profile(
    author_id: str,
    counts: Iterable[int],
    career_years: int | None = None,
) -> CitationProfile:
    """Validate and sort raw per-work citation counts into a profile."""
    raw = counts if isinstance(counts, (list, tuple)) else list(counts)  # check_counts and sorted() only read it
    exact = set(map(type, raw)) <= {int}  # so that sorted() cannot raise TypeError
    ordered = sorted(raw, reverse=True) if exact else []
    # sorted, the counts need their bounds checked at the two ends only
    if not exact or (ordered and (ordered[-1] < 0 or ordered[0] > MAX_COUNT)):
        check_counts(raw, "counts")  # names the first offender; int subclasses pass it, still unsorted
        ordered = sorted(raw, reverse=True)
    check_career_years(career_years)
    return from_sorted(author_id, tuple(ordered), career_years)


def from_sorted(
    author_id: str,
    ordered: tuple[int, ...],
    career_years: int | None,
) -> CitationProfile:
    """Profile from counts already validated and sorted non-increasing; checks nothing."""
    r = bisect.bisect_left(ordered, 0, key=operator.neg)  # zeros trail the cited works
    c_sigma = sum(ordered)  # the uncited works add zeros
    return CitationProfile(
        author_id=author_id,
        counts=ordered,
        career_years=career_years,
        r0=len(ordered),
        r=r,
        c_sigma=c_sigma,
        c_max=ordered[0] if r >= 1 else 0,
        c_s=c_sigma / r if r >= 1 else 0.0,
    )


def first_vertex(profile: CitationProfile, test: Callable[[int, int], bool]) -> int:
    """Smallest rank j in [1, r + 1] whose curve vertex (j, C(j)) passes ``test``.

    ``test(j, c)`` must fail on a prefix of the ranks and pass on the
    rest, which the non-increasing curve gives to any condition of the
    form "C(j) at or below a non-decreasing bound".  A test that fails
    at the closing vertex (r + 1, 0) too yields r + 2.
    """
    counts, r = profile.counts, profile.r  # C(j) as CitationProfile.vertex states it
    return 1 + bisect.bisect_left(range(1, r + 2), True, key=lambda j: test(j, counts[j - 1] if j <= r else 0))
