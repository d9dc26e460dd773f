"""Collective profiles built by pooling the works of several authors.

Merging is a plain multiset union: every work keeps its citation count,
shared papers are counted once per contributing author, and nothing is
deduplicated.  The pooled counts form an ordinary citation profile, so
every index applies unchanged; career years do not pool and stay absent.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import DomainError
from .indices import IndexReport, compute_report
from .profile import CitationProfile, from_sorted


class CollectiveProfile(NamedTuple):
    """A merged profile plus per-author averages."""

    member_ids: tuple[str, ...]
    author_count: int
    merged: CitationProfile
    r0a: float  # works per author
    ra: float  # cited works per author
    ca: float  # citations per author


def merge_profiles(
    profiles: Sequence[CitationProfile | CollectiveProfile],
    label: str | None = None,
) -> CollectiveProfile:
    """Pool profiles (or already-merged collectives) into one collective.

    Collectives are flattened, so merging in stages and merging all at
    once produce the same result.  The merged profile is labelled with
    ``label`` or, by default, the member ids joined with '+'.
    """
    if not profiles:
        raise DomainError("merge needs at least one profile")
    member_ids: list[str] = []
    authors = 0
    pooled: list[int] = []
    for item in profiles:
        if isinstance(item, CollectiveProfile):
            member_ids.extend(item.member_ids)
            authors += item.author_count
            pooled.extend(item.merged.counts)
        else:
            member_ids.append(item.author_id)
            authors += 1
            pooled.extend(item.counts)
    # Member counts were validated when their profiles were built.  sorted()
    # pools the already-sorted runs faster than heapq.merge does.
    label = label if label is not None else "+".join(member_ids)
    merged = from_sorted(label, tuple(sorted(pooled, reverse=True)), None)
    return CollectiveProfile(
        member_ids=tuple(member_ids),
        author_count=authors,
        merged=merged,
        r0a=merged.r0 / authors,
        ra=merged.r / authors,
        ca=merged.c_sigma / authors,
    )


def collective_report(collective: CollectiveProfile) -> IndexReport:
    """Index report for the pooled profile; m stays absent."""
    return compute_report(collective.merged)
