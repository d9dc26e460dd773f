"""Command-line interface.

Subcommands: compute (one profile's indices), table (a directory's
report table), merge (pool profiles into a collective), plot (SVG or
point-series export) and compare (one author across sources).  The
CITEMETRIC_FORMAT environment variable supplies the default --format
when it names a format the subcommand supports.  A path of '-' reads a
JSON profile document from stdin.  Exit code 0 means no error
diagnostic was emitted.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

from .collective import collective_report, merge_profiles
from .errors import CitemetricError, ValidationError
from .indices import IndexReport, compute_report
from .ingest import (
    ProfileDocument,
    display_cells,
    parse_profile,
    scan_directory,
    write_profile,
    write_report_table,
    write_table,
)
from .profile import CitationProfile
from .render import build_plot_spec, render_svg, write_points_csv


def _std_buffer(name: str, what: str) -> BinaryIO:
    """The byte stream under ``sys.<name>``; the interpreter sets it to None when the descriptor was closed at start."""
    stream = getattr(sys, name)
    if stream is None:
        raise CitemetricError(f"standard {what} is closed")
    return stream.buffer


def _load_document(path: str) -> ProfileDocument:
    if path == "-":
        return parse_profile(_std_buffer("stdin", "input"), fmt="json")  # UTF-8, as a file is, whatever the locale
    return parse_profile(path)


def _load_documents(paths: Sequence[str]) -> Iterator[ProfileDocument]:
    """Each input's document in turn; a load error names its input, as ``table``'s per-file lines do."""
    for path in paths:
        try:
            document = _load_document(path)
        except CitemetricError as exc:
            raise CitemetricError(f"{path}: {exc}") from exc
        yield document


def _emit_text(text: str, out: str | None) -> None:
    # an author id from a non-UTF-8 file name or --label holds surrogateescape
    # code points; they go back out as the original bytes
    _emit_bytes(text.encode("utf-8", "surrogateescape"), out)


def _emit_bytes(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        stream = _std_buffer("stdout", "output")
        try:
            stream.write(data)
            stream.flush()  # a closed pipe or a full disk fails here, inside main
        except OSError:
            with open(os.devnull, "wb") as devnull:  # what is still buffered goes there at exit
                os.dup2(devnull.fileno(), stream.fileno())
            raise


def _report_output(report: IndexReport, args: argparse.Namespace) -> str:
    if args.format == "text":
        return "".join(f"{field}: {cell}\n" for field, cell in zip(report._fields, display_cells(report)))
    return write_report_table([report], "csv", include_kh=args.include_kh)


def cmd_compute(args: argparse.Namespace) -> int:
    report = compute_report(_load_document(args.path).to_profile())
    _emit_text(_report_output(report, args), args.output)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    result = scan_directory(args.directory, skip=args.output)
    for failure in result.failures:
        print(f"error: {failure.path}: {failure.error}", file=sys.stderr)
    if not result.documents:
        raise CitemetricError(f"no readable profiles in {args.directory}")
    profiles = [doc.to_profile() for doc in result.documents]
    profiles.sort(key=lambda p: (-p.c_max, p.author_id))
    reports = [compute_report(profile) for profile in profiles]
    total = None
    if args.with_total:
        total = collective_report(merge_profiles(profiles, label="total"))
    _emit_text(
        write_report_table(reports, args.format, include_kh=args.include_kh, total=total),
        args.output,
    )
    return 1 if result.failures else 0


def _check_label(label: str | None, profiles: Sequence[CitationProfile] = ()) -> None:
    """Reject an empty --label, or one that is already an input's author id."""
    if label == "":
        raise ValidationError("--label must not be empty")
    if any(profile.author_id == label for profile in profiles):
        raise ValidationError(f"--label {label!r} is also an input's author id; the pooled curve needs its own")


def cmd_merge(args: argparse.Namespace) -> int:
    _check_label(args.label)
    _std_buffer("stdout", "output")  # the report goes there, so a closed stdout fails before -o writes a file
    profiles = [doc.to_profile() for doc in _load_documents(args.paths)]
    collective = merge_profiles(profiles, label=args.label)
    document = ProfileDocument(
        author_id=collective.merged.author_id,
        citations=collective.merged.counts,
    )
    report = collective_report(collective)
    text = write_profile(document, "json")
    _emit_text(text if args.output else text + "\n", args.output)  # on stdout a blank line parts the two
    _emit_text(_report_output(report, args), None)
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    profiles = [doc.to_profile() for doc in _load_documents(args.paths)]
    items: list = list(profiles)
    if args.with_merged:
        _check_label(args.label, profiles)
        items.append(merge_profiles(profiles, label=args.label))
    spec = build_plot_spec(items, guides=args.guides, include_g=args.include_g, log_y=args.log_y)
    if args.format == "svg":
        _emit_bytes(render_svg(spec), args.output)
    else:
        _emit_text(write_points_csv(spec), args.output)
    return 0


def _compare_rows(documents: Sequence[ProfileDocument]) -> tuple[list[str], list[list[str]]]:
    header = ["source", "r0", "r", "c_sigma", "mean_per_work", "mean_per_cited", "h", "i10"]
    value_rows: list[list[float | None]] = []  # one per document
    for doc in documents:
        report = compute_report(doc.to_profile())
        mean_per_work = report.c_sigma / report.r0 if report.r0 > 0 else None
        mean_per_cited = report.c_sigma / report.r if report.r > 0 else None
        value_rows.append([report.r0, report.r, report.c_sigma, mean_per_work, mean_per_cited, report.h, report.i10])
    ratio = [None if None in column or min(column) <= 0 else max(column) / min(column) for column in zip(*value_rows)]
    labels = [*(doc.source or doc.author_id for doc in documents), "max/min"]
    return header, [[label, *display_cells(values)] for label, values in zip(labels, [*value_rows, ratio])]


def cmd_compare(args: argparse.Namespace) -> int:
    documents = list(_load_documents(args.paths))
    header, rows = _compare_rows(documents)
    _emit_text(write_table(header, rows, args.format), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citemetric",
        description="Citation-curve indices, report tables and charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    env_format = os.environ.get("CITEMETRIC_FORMAT", "").strip().lower()

    def command(name: str, func, formats: tuple[str, ...], help: str) -> argparse.ArgumentParser:
        """A subcommand with -o, and --format by default CITEMETRIC_FORMAT if one of ``formats``, else the first."""
        p = sub.add_parser(name, help=help, description=help)
        p.add_argument("--format", choices=formats, default=env_format if env_format in formats else formats[0])
        p.add_argument("-o", "--output", help="write to this file instead of stdout")
        p.set_defaults(func=func)
        return p

    p = command("compute", cmd_compute, ("text", "csv"), "indices for one profile file")
    p.add_argument("path", help="profile file, or - for JSON on stdin")
    p.add_argument("--include-kh", action="store_true", help="append the kh column to CSV output")

    p = command("table", cmd_table, ("csv", "md"), "report table for a directory of profiles")
    p.add_argument("directory")
    p.add_argument("--with-total", action="store_true", help="append the pooled row")
    p.add_argument("--include-kh", action="store_true")

    merge_help = "pool profiles into one collective; with -o the report still goes to stdout"
    p = command("merge", cmd_merge, ("text", "csv"), merge_help)
    p.add_argument("paths", nargs="+")
    p.add_argument("--label", help="author id for the merged profile")
    p.add_argument("--include-kh", action="store_true")

    p = command("plot", cmd_plot, ("svg", "csv"), "render profiles as SVG or a point-series CSV")
    p.add_argument("paths", nargs="+")
    p.add_argument("--log-y", action="store_true", dest="log_y")
    p.add_argument("--guides", action="store_true", help="draw the unit, mean and sqrt-total rays")
    p.add_argument("--with-merged", action="store_true", help="overlay the pooled curve, dashed")
    p.add_argument("--include-g", action="store_true", help="also mark the g index")
    p.add_argument("--label", help="label for the pooled curve", default="merged")

    p = command("compare", cmd_compare, ("csv", "md"), "one author across reporting sources")
    p.add_argument("paths", nargs="+")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare" and len(args.paths) < 2:
        parser.error("compare needs at least two profile files")
    try:
        return args.func(args)
    except (CitemetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
