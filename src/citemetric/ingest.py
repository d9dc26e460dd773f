"""Reading and writing profile files and report tables.

Two on-disk profile formats are supported.  JSON carries the full
document: required "author_id" and "citations", optional "career_years"
and "source".  CSV is deliberately minimal: a single "citations" header
followed by one non-negative integer per line, with the author id taken
from the file stem.  Report tables come out as CSV or markdown with a
fixed column order; real-valued cells are rounded half-up to one
decimal at this layer only, computation keeps full precision.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import IO, Sequence

from .errors import ParseError, ValidationError
from .indices import IndexReport
from .profile import (
    MAX_COUNT,
    CitationProfile,
    build_profile,
    check_career_years,
    check_counts,
)

# The IndexReport fields in report order; tables head the id column "no"
# and carry kh only on request.
REPORT_FIELDS = (
    "author_id", "r0", "r", "c_sigma", "c10", "c_max", "c_s",
    "h", "g", "m", "i10", "kh1", "kh2", "kh3", "kh",
)


@dataclass(frozen=True)
class ProfileDocument:
    """One profile file's content, independent of the on-disk format."""

    author_id: str
    citations: tuple[int, ...]
    career_years: int | None = None
    source: str | None = None

    def to_profile(self) -> CitationProfile:
        return build_profile(self.author_id, self.citations, self.career_years)


@dataclass(frozen=True)
class ScanFailure:
    path: Path
    error: str


@dataclass(frozen=True)
class ScanResult:
    """Documents parsed from a directory plus the per-file failures."""

    documents: tuple[ProfileDocument, ...]
    failures: tuple[ScanFailure, ...]


def round_half_up(value: float, decimals: int = 1) -> float:
    """Round ties away from zero, as table readers expect."""
    return float(format_real(value, decimals))


def format_real(value: float | None, decimals: int = 1) -> str:
    """Half-up fixed-point display; absent values print as '-'."""
    if value is None:
        return "-"
    quantum = Decimal(1).scaleb(-decimals)
    return str(Decimal(str(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def _check_encodable(text: str, name: str) -> None:
    """Reject text that UTF-8 cannot encode: a lone surrogate, as from a JSON "\\ud800"."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(
            f"{name} has a lone surrogate at position {exc.start}, which UTF-8 cannot encode"
        ) from None


def parse_profile_json(text: str) -> ProfileDocument:
    """Parse one JSON profile document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError:  # the interpreter's limit on integer digits
        raise ParseError("invalid JSON: a number has too many digits") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("profile document must be a JSON object")
    author_id = data.get("author_id")
    if not isinstance(author_id, str) or not author_id:
        raise ValidationError("author_id is required and must be a non-empty string")
    if "citations" not in data:
        raise ValidationError("citations is required")
    citations = data["citations"]
    if not isinstance(citations, list):
        raise ValidationError("citations must be an array of integers")
    check_counts(citations, "citations")
    career_years = data.get("career_years")
    check_career_years(career_years)
    source = data.get("source")
    if source is not None and not isinstance(source, str):
        raise ValidationError(f"source must be a string, got {source!r}")
    _check_encodable(author_id, "author_id")
    if source is not None:
        _check_encodable(source, "source")
    return ProfileDocument(author_id, tuple(citations), career_years, source)


def _echo_cell(cell: str) -> str:
    """A CSV cell for a diagnostic: whole if short, else its first 20 characters and its length."""
    if len(cell) <= 20:
        return repr(cell)
    return f"{cell[:20] + '…'!r} ({len(cell)} characters)"


def parse_profile_csv(text: str, author_id: str) -> ProfileDocument:
    """Parse the single-column CSV format (header 'citations')."""
    if not author_id:
        raise ValidationError("author_id is required for CSV profiles")
    lines = text.splitlines()
    if not lines or lines[0].strip() != "citations":
        found = lines[0].strip() if lines else ""
        raise ParseError(f"line 1: expected header 'citations', found {found!r}")
    # On ASCII text without "_", int() reads each cell as the line loop below does
    # (it strips the same whitespace as str.strip()); the loop names what fails.
    if text.isascii() and "_" not in text:
        try:
            values = list(map(int, lines[1:]))
        except ValueError:
            pass
        else:
            if min(values, default=0) >= 0 and max(values, default=0) <= MAX_COUNT:
                return ProfileDocument(author_id, tuple(values))
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        cell = line.strip()
        if not cell:
            continue  # tolerate blank lines, typically a trailing newline
        if not cell.isascii() or "_" in cell:
            raise ParseError(f"line {lineno}: not an integer: {_echo_cell(cell)}")
        try:
            value = int(cell)
        except ValueError:
            digits = cell[1:] if cell[0] in "+-" else cell
            if digits.isdecimal():  # only the interpreter's limit on integer digits rejects it
                if cell[0] == "-":
                    raise ValidationError(f"line {lineno}: citations must be non-negative") from None
                raise ValidationError(f"line {lineno}: citations must be at most 2**53") from None
            raise ParseError(f"line {lineno}: not an integer: {_echo_cell(cell)}") from None
        if value < 0:
            raise ValidationError(f"line {lineno}: citations must be non-negative, got {value}")
        if value > MAX_COUNT:
            raise ValidationError(f"line {lineno}: citations must be at most 2**53")
        values.append(value)
    return ProfileDocument(author_id, tuple(values))


def parse_profile(
    source: str | Path | IO[str],
    fmt: str | None = None,
    *,
    author_id: str | None = None,
) -> ProfileDocument:
    """Parse a profile from a path or an open text stream.

    The format is inferred from the path suffix unless given; streams
    need an explicit format, and CSV streams an explicit author id.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if fmt is None:
            fmt = path.suffix.lstrip(".").lower()
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from None
        if author_id is None:
            author_id = path.stem
    else:
        if fmt is None:
            raise ValidationError("a stream needs an explicit format")
        text = source.read()
    if fmt == "json":
        return parse_profile_json(text)
    if fmt == "csv":
        return parse_profile_csv(text, author_id or "")
    raise ValidationError(f"unknown profile format: {fmt!r}")


def write_profile(document: ProfileDocument, fmt: str = "json") -> str:
    """Serialize a document; CSV keeps only the citation counts."""
    if fmt == "json":
        data: dict[str, object] = {
            "author_id": document.author_id,
            "citations": list(document.citations),
        }
        if document.career_years is not None:
            data["career_years"] = document.career_years
        if document.source is not None:
            data["source"] = document.source
        return json.dumps(data, ensure_ascii=False) + "\n"
    if fmt == "csv":
        return "citations\n" + "".join(f"{value}\n" for value in document.citations)
    raise ValidationError(f"unknown profile format: {fmt!r}")


def scan_directory(path: str | Path, *, skip: str | Path | None = None) -> ScanResult:
    """Parse every *.json and *.csv profile in a directory.

    Files that fail to read or parse are collected as failures instead
    of aborting the batch.  Documents come back sorted by author id.
    ``skip`` is a path left out of the scan, such as the table written
    from it, which the next scan would otherwise read as a profile.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise FileNotFoundError(f"not a directory: {directory}")
    skip_name = None
    if skip is not None and Path(skip).parent.resolve() == directory.resolve():
        skip_name = Path(skip).name
    documents: list[ProfileDocument] = []
    failures: list[ScanFailure] = []
    for file in sorted(directory.glob("*.json")) + sorted(directory.glob("*.csv")):
        if file.name == skip_name:
            continue
        try:
            documents.append(parse_profile(file))
        except (ParseError, ValidationError, OSError) as exc:
            failures.append(ScanFailure(path=file, error=str(exc)))
    documents.sort(key=lambda doc: doc.author_id)
    return ScanResult(documents=tuple(documents), failures=tuple(failures))


def report_cells(report: IndexReport) -> list[str]:
    """Every report field as display text, in ``REPORT_FIELDS`` order."""
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


def write_report_table(
    reports: Sequence[IndexReport],
    fmt: str = "csv",
    *,
    include_kh: bool = False,
    total: IndexReport | None = None,
) -> str:
    """Render report rows as CSV or markdown, in the given order.

    ``total`` appends one extra row, labelled 'total', for a collective
    built from the listed profiles.
    """
    width = len(REPORT_FIELDS) if include_kh else len(REPORT_FIELDS) - 1
    rows = [report_cells(report)[:width] for report in reports]
    if total is not None:
        rows.append(["total", *report_cells(total)[1:width]])
    return write_table(["no", *REPORT_FIELDS[1:width]], rows, fmt)


def write_table(header: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> str:
    """Render a header and rows of text cells as CSV or markdown."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue()
    if fmt == "md":
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown table format: {fmt!r}")
