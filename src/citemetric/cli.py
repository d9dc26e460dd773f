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
from stat import S_ISREG
from typing import BinaryIO, Sequence

from .collective import collective_report, merge_profiles
from .errors import CitemetricError, ValidationError
from .indices import IndexReport, compute_report
from .ingest import (
    ProfileDocument,
    ScanFailure,
    display_cells,
    list_profiles,
    load_names_are_own,
    parse_profile,
    read_profiles,
    scan_directory,
    write_profile,
    write_report_table,
    write_table,
)
from .profile import CitationProfile


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


def _load_profile(path: str) -> tuple[CitationProfile, str | None]:
    """One named input's profile and source; a load error names the input, as ``table``'s per-file lines do."""
    try:
        document = _load_document(path)
        return document.to_profile(), document.source
    except CitemetricError as exc:
        raise CitemetricError(f"{path}: {exc}") from exc
    except MemoryError:
        pass  # leaving the handler lets go of what the failed load held
    raise CitemetricError(f"{path}: out of memory")


def _may_fork() -> bool:
    """Whether a forked child may take half of a command's inputs.

    That needs ``os.fork``, at least two usable CPUs and no other live thread,
    as a fork copies the calling thread alone.  A run whose load names are
    rebound, as a tracer rebinds them to record calls that a child would
    record in its own memory, stays in one process.
    """
    threading = sys.modules.get("threading")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if not hasattr(os, "fork") or cpus < 2 or (threading and threading.active_count() > 1):
        return False
    return load_names_are_own()


# Each half of the inputs needs this many bytes of regular files before a forked
# child loads the second one.  The fork costs both processes a copy-on-write fault
# on each page they write afterwards, and the child's profiles a pickle round trip.
# The smallest size at which two processes won `merge` in at least 15 of 20 runs and
# `plot` in at least 10, as whole CLI processes on two JSON files of Pareto counts
# (2 cores, Python 3.11, no bytecode cache, rounds of 20 alternating runs, two
# processes' wins in each round): at 158 KB a file `merge` won 16, 14 and 9; at
# 205 KB 13 and 12; at 227 KB 16 and 17 (medians −5.5%, −3.6%) and `plot` 16 and
# 11 (−2.9%, −2.7%); at 410 KB `merge` 19 and 18 (−12%).  So long_curve_plot's
# 158 KB files load in one process.
_TWO_PROCESS_BYTES = 226_000


def _child_half(paths: Sequence[str]) -> int:
    """Where the inputs that a forked child loads begin, or ``len(paths)`` when this process loads them all.

    Only regular files go to a child: with stdin, a FIFO or a missing path
    among the inputs, this process loads every one of them.
    """
    if len(paths) < 2 or "-" in paths or not _may_fork():
        return len(paths)
    sizes = []
    for path in paths:
        try:
            status = os.stat(path)
        except (OSError, ValueError):  # ValueError: a NUL in the path
            return len(paths)
        if not S_ISREG(status.st_mode):
            return len(paths)
        sizes.append(status.st_size)
    split = len(paths) // 2
    return split if min(sum(sizes[:split]), sum(sizes[split:])) >= _TWO_PROCESS_BYTES else len(paths)


def _load_profiles(paths: Sequence[str]) -> list[tuple[CitationProfile, str | None]]:
    split = _child_half(paths)
    if split == len(paths):
        return [_load_profile(path) for path in paths]
    from .loader import in_two_processes  # imported only for a load in two processes

    first, rest = in_two_processes(paths, split, lambda half: [_load_profile(path) for path in half])
    return first + rest


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


# Each half of a table's listing needs this many entries before a forked child
# reads, builds and reports the second one.  The count comes from the listing
# alone: a stat per entry costs 4 µs, 8 ms over 2,000 entries.  The smallest half
# at which two processes won at least 15 of 20 runs, as whole `table --with-total
# --include-kh` processes on the benchmark's corpus of 1 to 300 works a file (as
# above): 240 files won 6 and 9, 360 files 13, 8 and 8, 480 files 16, 17 and 16
# (medians −3.2% to −3.7%), 1,000 files 20 and 18 (−13.4%, −14.0%).
_TWO_PROCESS_FILES = 240


def _tabulate(
    documents: Sequence[ProfileDocument], failures: Sequence[ScanFailure]
) -> tuple[list[ScanFailure], list[str], list[IndexReport], list[CitationProfile]]:
    """The failures, the author ids of the documents that ran out of memory, and each other one's report and profile.

    Each document is built and reported before the next is built.  A document
    carries no path, so a profile that runs out is named by its author id.
    """
    lost: list[str] = []
    reports: list[IndexReport] = []
    profiles: list[CitationProfile] = []
    for document in documents:
        try:
            profile = document.to_profile()
            reports.append(compute_report(profile))
            profiles.append(profile)
            continue
        except MemoryError:
            pass  # leaving the handler lets go of what the failed build or report held
        lost.append(document.author_id)
    return list(failures), lost, reports, profiles


def _table_rows(
    args: argparse.Namespace,
) -> tuple[list[ScanFailure], list[str], list[IndexReport], list[CitationProfile]]:
    """``_tabulate`` of the directory, a long listing's second half read in a forked child."""
    if not _may_fork():
        # scan_directory is the one call bench/tracer.py times as ingest.scan
        return _tabulate(*scan_directory(args.directory, skip=args.output))
    entries = list_profiles(args.directory, skip=args.output)
    split = len(entries) // 2
    if split < max(_TWO_PROCESS_FILES, 1):
        return _tabulate(*read_profiles(entries))
    from .loader import in_two_processes  # imported only for a table in two processes

    halves = in_two_processes(entries, split, lambda half: _tabulate(*read_profiles(half)))
    return tuple(first + rest for first, rest in zip(*halves))


def cmd_table(args: argparse.Namespace) -> int:
    failures, lost, reports, profiles = _table_rows(args)
    for failure in failures:
        print(f"error: {failure.path}: {failure.error}", file=sys.stderr)
    for author_id in sorted(lost):  # by author id, so that one process and two print them alike
        print(f"error: {args.directory}: {author_id}: out of memory", file=sys.stderr)
    if not reports:
        raise CitemetricError(f"no readable profiles in {args.directory}")
    # Stable, so rows of one author id and c_max keep the listing's order, as they do
    # after scan_directory's sort by author id: the two paths order rows alike.
    reports.sort(key=lambda report: (-report.c_max, report.author_id))
    total = collective_report(merge_profiles(profiles, label="total")) if args.with_total else None
    _emit_text(write_report_table(reports, args.format, include_kh=args.include_kh, total=total), args.output)
    return 1 if failures or lost else 0


def _check_label(label: str | None, profiles: Sequence[CitationProfile] = ()) -> None:
    """Reject an empty --label, or one that is already an input's author id."""
    if label == "":
        raise ValidationError("--label must not be empty")
    if any(profile.author_id == label for profile in profiles):
        raise ValidationError(f"--label {label!r} is also an input's author id; the pooled curve needs its own")


def cmd_merge(args: argparse.Namespace) -> int:
    _check_label(args.label)
    _std_buffer("stdout", "output")  # the report goes there, so a closed stdout fails before -o writes a file
    profiles = [profile for profile, _ in _load_profiles(args.paths)]
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


# render loads with the first plot, not with this module.  These two names exist
# because bench/tracer.py rebinds them, as the render.spec and render.svg spans;
# they go once the bench times render without rebinding the CLI's names.
def build_plot_spec(*args, **kwargs):
    from . import render
    return render.build_plot_spec(*args, **kwargs)


def render_svg(*args, **kwargs):
    from . import render
    return render.render_svg(*args, **kwargs)


def cmd_plot(args: argparse.Namespace) -> int:
    profiles = [profile for profile, _ in _load_profiles(args.paths)]
    items: list = list(profiles)
    if args.with_merged:
        _check_label(args.label, profiles)
        items.append(merge_profiles(profiles, label=args.label))
    spec = build_plot_spec(items, guides=args.guides, include_g=args.include_g, log_y=args.log_y)
    if args.format == "svg":
        _emit_bytes(render_svg(spec), args.output)
    else:
        from .render import write_points_csv
        _emit_text(write_points_csv(spec), args.output)
    return 0


def _compare_rows(loaded: Sequence[tuple[CitationProfile, str | None]]) -> tuple[list[str], list[list[str]]]:
    header = ["source", "r0", "r", "c_sigma", "mean_per_work", "mean_per_cited", "h", "i10"]
    value_rows: list[list[float | None]] = []  # one per input
    for profile, _ in loaded:
        report = compute_report(profile)
        mean_per_work = report.c_sigma / report.r0 if report.r0 > 0 else None
        mean_per_cited = report.c_sigma / report.r if report.r > 0 else None
        value_rows.append([report.r0, report.r, report.c_sigma, mean_per_work, mean_per_cited, report.h, report.i10])
    ratio = [None if None in column or min(column) <= 0 else max(column) / min(column) for column in zip(*value_rows)]
    labels = [*(source or profile.author_id for profile, source in loaded), "max/min"]
    return header, [[label, *display_cells(values)] for label, values in zip(labels, [*value_rows, ratio])]


def cmd_compare(args: argparse.Namespace) -> int:
    header, rows = _compare_rows(_load_profiles(args.paths))
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
        message = str(exc)
    except MemoryError:
        message = "out of memory"  # printed once the handler has let go of what the command held
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
