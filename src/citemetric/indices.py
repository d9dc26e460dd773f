"""Scalar citation indices computed from a profile.

The classic indices (h, g, m, i_k, c_k) read the sorted counts directly.
The kh family reads the citation curve instead: kh1 is the ordinate of
the curve's crossing with the mean-citation ray c = c_s * r, kh2 is
sqrt(c_sigma), kh3 is the ordinate of the crossing with the ray of slope
sqrt(c_sigma), and kh is the largest of the three.
"""

from __future__ import annotations

import bisect
import math
from itertools import accumulate
from typing import NamedTuple

from .errors import MissingFieldError
from .profile import CitationProfile, CrossingPoint, check_cited, exact_ratio, first_vertex


class IndexReport(NamedTuple):
    """One table row: every index and parameter for a single profile."""

    author_id: str
    r0: int
    r: int
    c_sigma: int
    c10: int
    c_max: int
    c_s: float
    h: int
    g: int
    m: float | None
    i10: int
    kh1: float
    kh2: float
    kh3: float
    kh: float


def line_crossing(profile: CitationProfile, slope: float) -> CrossingPoint:
    """Intersect the ray c = slope * r with the citation curve.

    C(x) - slope * x is strictly decreasing on (0, r + 1], positive near
    zero (the constant extension holds C at c_max there) and negative at
    r + 1, so exactly one crossing exists.  A ray at least as steep as
    c_max, inf included, meets the curve inside the constant extension,
    which caps the crossing ordinate at c_max.
    """
    return _rational_ray_crossing(profile, *exact_ratio(slope, lambda p, q: p > 0, "slope must be positive, got {!r}"))


def _rational_ray_crossing(profile: CitationProfile, p: int, q: int) -> CrossingPoint:
    """The crossing with the ray of slope p / q > 0, in integers.

    The crossing segment is C(x) = num + seg * x, so each coordinate is one
    correctly rounded int / int division, and a crossing exactly on a display
    tie such as 59.45 stays on it.
    """
    check_cited(profile)
    if p >= profile.c_max * q:
        return CrossingPoint(r_star=profile.c_max * q / p, c_star=float(profile.c_max))
    # The first vertex on or below the ray closes the crossing segment (k, k + 1].
    k = first_vertex(profile, lambda j, c: c * q <= p * j) - 1
    here = profile.vertex(k)
    seg = profile.vertex(k + 1) - here
    num = here - seg * k
    den = p - seg * q
    return CrossingPoint(r_star=num * q / den, c_star=p * num / den)


def kh1_crossing(profile: CitationProfile) -> CrossingPoint:
    """Crossing with the mean-citation ray, of slope c_s = c_sigma / r."""
    return _rational_ray_crossing(profile, profile.c_sigma, profile.r)


def kh3_crossing(profile: CitationProfile) -> CrossingPoint:
    """Crossing with the ray of slope sqrt(c_sigma), exact when c_sigma is a perfect square."""
    root = math.isqrt(profile.c_sigma)  # not math.sqrt, which rounds c_sigma above 2**53
    if root * root == profile.c_sigma:
        return _rational_ray_crossing(profile, root, 1)
    return _rational_ray_crossing(profile, *math.sqrt(profile.c_sigma).as_integer_ratio())  # irrational


def level_crossing(profile: CitationProfile, value: float) -> CrossingPoint:
    """Smallest rank where the citation curve comes down to the level c = value > 0.

    The profile needs cited works.  A level at or above c_max is met at
    the top work, (1, c_max), as ``line_crossing`` clamps a steep ray.
    """
    p, q = exact_ratio(value, lambda p, q: p > 0, "level must be positive, got {!r}")
    check_cited(profile)
    if p >= profile.c_max * q:
        return CrossingPoint(r_star=1.0, c_star=float(profile.c_max))
    # C(k) > p / q >= C(k + 1), so the segment is never flat
    k = first_vertex(profile, lambda j, c: c * q <= p) - 1
    here = profile.vertex(k)
    seg = profile.vertex(k + 1) - here
    return CrossingPoint(r_star=(k * q * seg + p - here * q) / (q * seg), c_star=p / q)


def h_index(profile: CitationProfile) -> int:
    """Largest rank whose work has at least that many citations."""
    return first_vertex(profile, lambda rank, c: c < rank) - 1


def g_index_parabola(profile: CitationProfile) -> int:
    """Largest square s = k * k such that the rank-k work has at least s citations.

    This is the variant read off the crossing of the curve with the
    parabola c = r * r, so the result is always a perfect square.
    """
    best = first_vertex(profile, lambda rank, c: c < rank * rank) - 1
    return best * best


def g_index_egghe(profile: CitationProfile) -> int:
    """Largest g whose top-g works total at least g * g citations.

    Ranks past the last cited work count as zero, so g may exceed r but
    never r0.  The top-g total less g * g is 0 at g = 0 and changes by
    C(g) - (2g - 1) at rank g, a step that falls as g grows; so once it is
    negative it stays so, the ranks that pass form a prefix, and one
    bisect finds its end.
    """
    totals = list(accumulate(profile.counts))
    return bisect.bisect_left(range(1, profile.r0 + 1), True, key=lambda g: totals[g - 1] < g * g)


def m_index(profile: CitationProfile) -> float:
    """h divided by career length in years."""
    if profile.career_years is None:
        raise MissingFieldError(f"profile {profile.author_id!r} has no career_years")
    return h_index(profile) / profile.career_years


def i_k(profile: CitationProfile, k: int) -> int:
    """Number of works with at least k citations."""
    p, q = exact_ratio(k, lambda p, q: p >= q, "threshold must be at least 1, got {!r}")
    return first_vertex(profile, lambda rank, c: c * q < p) - 1


def c_k(profile: CitationProfile, k: int) -> int:
    """Citations collected by the k most-cited works, for a whole number k >= 1 of any numeric type."""
    cutoff, _ = exact_ratio(k, lambda p, q: q == 1 and p >= 1, "rank cutoff must be a whole number >= 1, got {!r}")
    return sum(profile.counts[:cutoff])  # the counts past r are zeros


def kh1(profile: CitationProfile) -> float:
    """Crossing ordinate of the curve with the mean-citation ray c = c_s * r."""
    return kh1_crossing(profile).c_star if profile.r else 0.0


def kh2(profile: CitationProfile) -> float:
    """Square root of the total citations over cited works."""
    return math.sqrt(profile.c_sigma)


def kh3(profile: CitationProfile) -> float:
    """Crossing ordinate of the curve with the ray of slope sqrt(c_sigma)."""
    return kh3_crossing(profile).c_star if profile.r else 0.0


def kh_max(profile: CitationProfile) -> float:
    """Largest of kh1, kh2 and kh3."""
    return max(kh1(profile), kh2(profile), kh3(profile))


def compute_report(profile: CitationProfile) -> IndexReport:
    """All indices and parameters for one profile.

    Empty profiles report zero everywhere and leave m absent; otherwise
    m is present exactly when career_years is.
    """
    h = h_index(profile)  # once: m is h / career_years, as m_index computes it
    m = h / profile.career_years if profile.r0 > 0 and profile.career_years is not None else None
    k1, k2, k3 = kh1(profile), kh2(profile), kh3(profile)
    return IndexReport(
        author_id=profile.author_id,
        r0=profile.r0,
        r=profile.r,
        c_sigma=profile.c_sigma,
        c10=c_k(profile, 10),
        c_max=profile.c_max,
        c_s=profile.c_s,
        h=h,
        g=g_index_parabola(profile),
        m=m,
        i10=i_k(profile, 10),
        kh1=k1,
        kh2=k2,
        kh3=k3,
        kh=max(k1, k2, k3),
    )
