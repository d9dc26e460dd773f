"""Output checks that do not use the library.

Each check recomputes what it can from the raw counts the generator
wrote, by direct counting, and returns a list of problems; an empty list
means the output passed.  Checked fields: r0, r, c_sigma, c10, c_max,
i10, h and kh2 of every report row, the pooled multiset of a merged
document, and the curves and markers of an SVG chart.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from decimal import ROUND_HALF_UP, Decimal

TABLE_HEADER = [
    "no", "r0", "r", "c_sigma", "c10", "c_max", "c_s",
    "h", "g", "m", "i10", "kh1", "kh2", "kh3", "kh",
]
MARKER_KINDS = {"h", "kh1", "kh2", "kh3", "g"}
SVG_NS = "{http://www.w3.org/2000/svg}"


def half_up(value: float) -> str:
    """One decimal, ties away from zero, as the report cells print reals."""
    return str(Decimal(str(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def expected_fields(counts: list[int]) -> dict[str, str]:
    """The report fields that follow from the counts by counting alone."""
    ordered = sorted(counts, reverse=True)
    cited = [value for value in ordered if value > 0]
    c_sigma = sum(cited)
    return {
        "r0": str(len(ordered)),
        "r": str(len(cited)),
        "c_sigma": str(c_sigma),
        "c10": str(sum(ordered[:10])),
        "c_max": str(ordered[0] if ordered else 0),
        "h": str(sum(1 for rank, value in enumerate(cited, start=1) if value >= rank)),
        "i10": str(sum(1 for value in cited if value >= 10)),
        "kh2": half_up(math.sqrt(c_sigma)),
    }


def compare_fields(where: str, found: dict[str, str], counts: list[int]) -> list[str]:
    return [
        f"{where}: {name} is {found.get(name)!r}, expected {value!r}"
        for name, value in expected_fields(counts).items()
        if found.get(name) != value
    ]


def expect_empty(stdout: bytes) -> list[str]:
    return [] if not stdout else [f"unexpected stdout: {stdout[:80]!r}"]


def _decode(data: bytes, what: str) -> tuple[str | None, list[str]]:
    try:
        return data.decode("utf-8"), []
    except UnicodeDecodeError as exc:
        return None, [f"{what} is not UTF-8: {exc}"]


def check_rows(data: bytes, counts: dict[str, list[int]], total: str | None) -> list[str]:
    """A CSV report table: one row per author in (-c_max, id) order, then ``total``."""
    text, problems = _decode(data, "table")
    if text is None:
        return problems
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != TABLE_HEADER:
        return [f"table header is {rows[0] if rows else None!r}"]
    order = sorted(counts, key=lambda author: (-max(counts[author], default=0), author))
    expected = [(author, counts[author]) for author in order]
    if total is not None:
        expected.append((total, [value for values in counts.values() for value in values]))
    body = rows[1:]
    if [row[0] if row else None for row in body] != [label for label, _ in expected]:
        return [f"table rows are not the {len(expected)} expected labels in order"]
    for row, (label, values) in zip(body, expected):
        if len(row) != len(TABLE_HEADER):
            problems.append(f"row {label}: {len(row)} cells")
            continue
        problems.extend(compare_fields(f"row {label}", dict(zip(TABLE_HEADER, row)), values))
    return problems


def check_table(data: bytes, counts: dict[str, list[int]]) -> list[str]:
    return check_rows(data, counts, total="total")


def check_merge(document: bytes, stdout: bytes, label: str, pooled: list[int]) -> list[str]:
    """The merged document holds the pooled multiset, sorted; the report row matches it."""
    problems = check_rows(stdout, {label: pooled}, total=None)
    try:
        data = json.loads(document)
    except ValueError as exc:
        return problems + [f"merged document is not JSON: {exc}"]
    if not isinstance(data, dict) or data.get("author_id") != label:
        return problems + [f"merged document is not labelled {label!r}"]
    if data.get("citations") != sorted(pooled, reverse=True):
        problems.append("merged citations are not the pooled counts, sorted high to low")
    return problems


def check_compute(stdout: bytes, author: str, counts: list[int]) -> list[str]:
    """``compute`` text output: one 'field: value' line per index."""
    text, problems = _decode(stdout, "compute output")
    if text is None:
        return problems
    found = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    if found.get("author_id") != author:
        problems.append(f"author_id is {found.get('author_id')!r}, expected {author!r}")
    return problems + compare_fields(author, found, counts)


def check_svg(data: bytes, curves: dict[str, list[int]]) -> list[str]:
    """One path.curve per plotted profile, r + 1 vertices each, and 5 markers per curve."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    problems = []
    paths = {
        element.get("data-label"): element.get("d", "")
        for element in root.iter(f"{SVG_NS}path")
        if element.get("class") == "curve"
    }
    if sorted(paths) != sorted(curves):
        return [f"SVG curves are {sorted(paths, key=str)}, expected {sorted(curves)}"]
    for label, counts in curves.items():
        vertices = paths[label].count("M") + paths[label].count("L")
        cited = sum(1 for value in counts if value > 0)
        if vertices != cited + 1:
            problems.append(f"curve {label}: {vertices} vertices, expected {cited + 1}")
    kinds: dict[str, list[str]] = {label: [] for label in curves}
    for element in root.iter():
        classes = element.get("class", "").split()
        if "marker" in classes and element.get("data-label") in kinds:
            kinds[element.get("data-label")].extend(c[len("marker-"):] for c in classes if c.startswith("marker-"))
    for label, found in kinds.items():
        if sorted(found) != sorted(MARKER_KINDS):
            problems.append(f"curve {label}: markers {sorted(found)}, expected {sorted(MARKER_KINDS)}")
    return problems
