"""Reading and writing profile files and report tables.

Two on-disk profile formats are supported.  JSON carries the full
document: required "author_id" and "citations", optional "career_years"
and "source".  CSV is deliberately minimal: a single "citations" header
followed by one non-negative integer per line, with the author id taken
from the file stem.  Report tables come out as CSV or markdown with a
fixed column order; real-valued cells are rounded half-up to one
decimal at this layer only, computation keeps full precision.  Report
columns and JSON keys are the records' own fields, in field order.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from stat import S_ISREG
from typing import IO, Iterable, NamedTuple, Sequence

from .errors import ParseError, ValidationError
from .indices import IndexReport
from .profile import (
    MAX_COUNT,
    CitationProfile,
    build_profile,
    check_career_years,
    check_counts,
)

class ProfileDocument(NamedTuple):
    """One profile file's content, independent of the on-disk format."""

    author_id: str
    citations: tuple[int, ...]
    career_years: int | None = None
    source: str | None = None

    def to_profile(self) -> CitationProfile:
        return build_profile(self.author_id, self.citations, self.career_years)


class ScanFailure(NamedTuple):
    path: Path
    error: str


class ScanResult(NamedTuple):
    """Documents parsed from a directory plus the per-file failures."""

    documents: tuple[ProfileDocument, ...]
    failures: tuple[ScanFailure, ...]


def round_half_up(value: float, decimals: int = 1) -> float:
    """Round ties away from zero, as table readers expect."""
    return float(format_real(value, decimals))


def format_real(value: float | None, decimals: int = 1) -> str:
    """The value's shortest decimal form, ``str(value)``, rounded half-up to ``decimals`` places; None prints as '-'."""
    if value is None:
        return "-"
    if type(value) is float and 0 <= value < 2**45 and decimals == 1:
        # A table cell, without decimal.  Below 2**45 half an ulp is under 0.002, so
        # the float lies within 0.002 of its shortest form, and no float is a tie
        # (2k+1)/20.  Two-decimal text that does not end in 5 puts the float 0.005 or
        # more from every tie; text that ends in 5 but reads back as another float is
        # a tie that does not lie between the float and its shortest form (else it
        # would read back as the float).  Either way the two round alike, as "%.1f"
        # rounds the float.  Otherwise the shortest form is that tie, as any other form
        # of two decimals or fewer is 0.01 from it, too far to read back as the float,
        # and the tie rounds up.
        text = "%.2f" % value
        if text[-1] != "5" or float(text) != value:
            return "%.1f" % value
        tenths = (int(text[:-3] + text[-2:]) + 5) // 10
        return f"{tenths // 10}.{tenths % 10}"
    from decimal import ROUND_HALF_UP, Decimal  # the exact route for any other value and precision

    return str(Decimal(str(value)).quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP))


def _check_encodable(text: str, name: str) -> None:
    """Reject text that UTF-8 cannot encode: a lone surrogate, as from a JSON "\\ud800".

    U+DC80 to U+DCFF stand for the bytes 0x80 to 0xff of a non-UTF-8 file
    name or argument, decoded with ``surrogateescape``; the message names the byte.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        code = ord(text[exc.start])
        if 0xDC80 <= code <= 0xDCFF:
            raise ValidationError(
                f"{name} holds the byte {code - 0xDC00:#04x} at position {exc.start}, which is not UTF-8"
            ) from None
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


_DIGIT_LINES = str.maketrans("", "", "0123456789\r\n")  # deletes all a body of bare counts holds
# What json.loads runs, but not json.loads: bench/tracer.py times ingest.json.loads as the
# ingest.decode span, which JSON files alone open, so CSV cells stay under ingest.parse.
_decode_json = json.JSONDecoder().decode


def parse_profile_csv(text: str, author_id: str) -> ProfileDocument:
    """Parse the single-column CSV format (header 'citations')."""
    if not author_id:
        raise ValidationError("author_id is required for CSV profiles")
    # A body of bare digit lines, LF or CRLF, is one JSON array once each "\n" is a ",",
    # and json's C scanner reads it without a str per cell.  Digit text it rejects
    # (leading zeros, blank or CR-only lines, over 4,300 digits), a count over the bound
    # and any other layout go to the line loop: same values, and it names the failing line.
    header, _, body = text.partition("\n")
    if header in ("citations", "citations\r") and not body.translate(_DIGIT_LINES):
        try:
            values = _decode_json("[" + body.rstrip("\r\n").replace("\n", ",") + "]")
        except ValueError:
            pass
        else:
            if max(values, default=0) <= MAX_COUNT:  # no sign, so no negative count
                return ProfileDocument(author_id, tuple(values))
    lines = text.splitlines()
    if not lines or lines[0].strip() != "citations":
        found = lines[0].strip() if lines else ""
        raise ParseError(f"line 1: expected header 'citations', found {found!r}")
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


def profile_format(name: str) -> str:
    """A profile file's format from its name: what follows the last dot, lower-cased, or '' without a dot."""
    return name.rpartition(".")[2].lower() if "." in name else ""  # str methods; os.path.splitext costs 9x as much


def parse_profile(
    source: str | Path | IO[str] | IO[bytes],
    fmt: str | None = None,
    *,
    author_id: str | None = None,
) -> ProfileDocument:
    """Parse a profile from a path or an open stream.

    Bytes, from a path or a binary stream, are decoded as strict UTF-8,
    and one leading byte order mark, as spreadsheets write, is dropped.
    The format is inferred from the file name unless given; streams
    need an explicit format, and CSV streams an explicit author id.
    """
    try:
        if isinstance(source, (str, Path)):
            path = Path(source)
            if fmt is None:
                fmt = profile_format(path.name)
            text = path.read_text(encoding="utf-8")
            if author_id is None:
                author_id = path.stem
        else:
            if fmt is None:
                raise ValidationError("a stream needs an explicit format")
            data = source.read()
            text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from None
    text = text.removeprefix("\ufeff")  # not the utf-8-sig codec, whose decoder runs in Python
    if fmt == "json":
        return parse_profile_json(text)
    if fmt == "csv":
        return parse_profile_csv(text, author_id or "")
    raise ValidationError(f"unknown profile format: {fmt!r}")


def _load_names() -> tuple:
    """What loading a profile file looks up by name in this module and in ``Path``."""
    return Path.read_text, json, parse_profile_json, parse_profile_csv, build_profile


_OWN_LOAD_NAMES = _load_names()


def load_names_are_own() -> bool:
    """Whether each name a load looks up is still bound as at import, not rebound as bench/tracer.py rebinds it.

    A rebound name may record each call, as the tracer's spans and counters
    do, and a call in a forked child would record it in the child alone.
    """
    return all(name is own for name, own in zip(_load_names(), _OWN_LOAD_NAMES))


_BLOCK = 1024  # counts per block of a JSON citations array; 256 to 2,048 time about the same


def _json_counts(citations: Sequence[object]) -> str:
    """The JSON array of ``citations``, as ``json.dumps`` writes it, one block at a time.

    Counts repeat heavily, so most blocks of a sorted profile hold one
    value: its text is formatted once and repeated.  Only a block of
    exact ints qualifies, as ``True`` and ``1.0`` compare equal to ``1``.
    Any other block goes through ``json.dumps``.
    """
    parts = []
    for start in range(0, len(citations), _BLOCK):
        block = citations[start : start + _BLOCK]
        first = block[0]
        if block.count(first) == len(block) and set(map(type, block)) == {int}:
            text = str(first)
            parts.append((text + ", ") * (len(block) - 1) + text)
        else:
            parts.append(json.dumps(block, ensure_ascii=False)[1:-1])
    return "[" + ", ".join(parts) + "]"


def write_profile(document: ProfileDocument, fmt: str = "json") -> str:
    """Serialize a document; CSV keeps only the citation counts.

    JSON comes out byte for byte as ``json.dumps(data, ensure_ascii=False)``
    of the dict of the document's fields, in field order, absent optional
    fields left out.  An id or source that strict UTF-8 cannot encode, such
    as an id from a non-UTF-8 file name, is rejected, as the document could
    not be read back.
    """
    if fmt == "json":
        _check_encodable(document.author_id, "author_id")
        if document.source is not None:
            _check_encodable(document.source, "source")
        parts = []
        for field, value in zip(document._fields, document):
            if value is not None:
                text = _json_counts(tuple(value)) if field == "citations" else json.dumps(value, ensure_ascii=False)
                parts += [", " if parts else "{", f'"{field}": ', text]
        return "".join(parts) + "}\n"
    if fmt == "csv":
        return "citations\n" + "".join(f"{value}\n" for value in document.citations)
    raise ValidationError(f"unknown profile format: {fmt!r}")


def list_profiles(path: str | Path, *, skip: str | Path | None = None) -> list[tuple[str, os.DirEntry]]:
    """The *.json and *.csv entries of a directory, in any letter case, each with its format.

    The *.json entries come first, then the *.csv ones, each by name.  ``skip``
    is a path left out, such as the table written from the scan, which would be
    read back.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise FileNotFoundError(f"not a directory: {directory}")
    skip_name = None
    if skip is not None and Path(skip).parent.resolve() == directory.resolve():
        skip_name = Path(skip).name
    with os.scandir(directory) as listing:
        entries = [
            (fmt, entry)
            for entry in listing
            if (fmt := profile_format(entry.name)) in ("json", "csv") and entry.name != skip_name
        ]
    entries.sort(key=lambda item: (item[0] == "csv", item[1].name))
    return entries


def read_profiles(entries: Iterable[tuple[str, os.DirEntry]]) -> tuple[list[ProfileDocument], list[ScanFailure]]:
    """Parse each listed entry, in order: its document, or its failure to read or parse.

    An entry that is not a regular file is never opened.
    """
    documents: list[ProfileDocument] = []
    failures: list[ScanFailure] = []
    for fmt, entry in entries:
        try:
            # the listing's file type costs no system call; stat follows a symlink, raising as open would
            if entry.is_file(follow_symlinks=False) or S_ISREG(Path(entry.path).stat().st_mode):
                documents.append(parse_profile(entry.path, fmt))
                continue
            error = "not a regular file"
        except (ParseError, ValidationError, OSError) as exc:
            error = str(exc)
        except MemoryError:
            error = "out of memory"  # recorded once the handler has let go of what the parse held
        failures.append(ScanFailure(path=Path(entry.path), error=error))
    return documents, failures


def scan_directory(path: str | Path, *, skip: str | Path | None = None) -> ScanResult:
    """Parse every *.json and *.csv profile in a directory, in any letter case.

    Files that fail to read or parse, and entries that are not regular files,
    which are never opened, are collected as failures instead of aborting the
    batch.  Documents come back sorted by author id.  ``skip`` is a path left
    out, such as the table written from the scan, which would be read back.
    """
    documents, failures = read_profiles(list_profiles(path, skip=skip))
    documents.sort(key=lambda doc: doc.author_id)
    return ScanResult(documents=tuple(documents), failures=tuple(failures))


def display_cells(values: Iterable[object]) -> list[str]:
    """A row as display text: reals half-up through ``format_real``, None as '-', the rest by str()."""
    return [
        format_real(value) if value is None or isinstance(value, float) else str(value) for value in values
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
    fields = IndexReport._fields  # the id column is headed "no", and kh comes only on request
    width = len(fields) if include_kh else len(fields) - 1
    rows = [display_cells(report[:width]) for report in reports]
    if total is not None:
        rows.append(["total", *display_cells(total[1:width])])
    return write_table(["no", *fields[1:width]], rows, fmt)


def _md_cell(cell: str) -> str:
    """A markdown table cell: a pipe escaped, so that it ends no cell, and a line break as <br>."""
    return cell.replace("|", "\\|").replace("\r\n", "<br>").replace("\r", "<br>").replace("\n", "<br>")


def csv_cell(cell: str) -> str:
    """A CSV cell as Python 3.13's csv writer quotes it: in quotes, each quote doubled, if it holds , " CR or LF."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_line(row: Sequence[str]) -> str:
    """One CSV line, as Python 3.13's csv writer writes it: a row of one empty cell is "", not a blank line."""
    line = ",".join(row)
    # one test of the joined line; its cells one by one only if it holds a comma, quote, CR or LF of a cell
    if line.count(",") >= len(row) or '"' in line or "\n" in line or "\r" in line:
        return ",".join(map(csv_cell, row))
    return '""' if len(row) == 1 and not line else line


def write_table(header: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> str:
    """Render a header and rows of text cells as CSV or markdown."""
    if fmt == "csv":
        # not the csv module: before Python 3.13 it leaves a bare CR unquoted, and a reader splits the row there
        return "\n".join(map(_csv_line, [header, *rows])) + "\n"
    if fmt == "md":
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        lines.extend("| " + " | ".join(map(_md_cell, row)) + " |" for row in rows)
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown table format: {fmt!r}")
