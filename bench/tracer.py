"""In-process traced run of the real CLI: one span per call into a module.

``traced_command`` runs ``citemetric.cli.main`` on a command's arguments,
with standard output and standard error captured.  While it runs, the
names through which the CLI and the library modules reach each other are
rebound to wrappers that open a span named ``<module>.<step>`` (see
``WRAPPED``), so the spans come from the CLI's own sequence of calls.
Spans keep name, start, end and parent in memory; ``Trace.self_times``
gives each span's duration minus the time its children cover.  After the
command, every single-index function runs on each profile the command
built or merged, under a root of its own, so that it adds nothing to the
command's total.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Iterator
from unittest import mock

from citemetric import cli, collective, ingest
from citemetric.indices import c_k, g_index_parabola, h_index, i_k, kh1, kh2, kh3, kh_max

COMMAND = "cli.main"
SINGLE_INDEX_PASS = "single_index_pass"
SINGLE_INDEX = (
    ("indices.h", h_index, ()),
    ("indices.g", g_index_parabola, ()),
    ("indices.i10", i_k, (10,)),
    ("indices.c10", c_k, (10,)),
    ("indices.kh1", kh1, ()),
    ("indices.kh2", kh2, ()),
    ("indices.kh3", kh3, ()),
    ("indices.kh_max", kh_max, ()),
)


class Trace:
    """Spans and counters of one traced command."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.profiles: list = []  # every profile built or merged, for the single-index pass
        self._open: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0, 0, self._open[-1] if self._open else -1])
        self._open.append(index)
        self.spans[index][1] = perf_counter_ns()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def root_ns(self, name: str) -> int:
        return sum(end - start for span_name, start, end, parent in self.spans if parent == -1 and span_name == name)

    def self_times(self, root: str) -> dict[str, int]:
        """Self time in ns per span name, over the tree under the roots named ``root``."""
        inside: list[bool] = []
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            inside.append(name == root if parent == -1 else inside[parent])
            if parent != -1:
                child_ns[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for (name, start, end, _), keep, children in zip(self.spans, inside, child_ns):
            if keep:
                totals[name] += end - start - children
        return totals

    def to_json(self) -> list[dict]:
        base = self.spans[0][1] if self.spans else 0
        return [
            {"name": name, "start_ns": start - base, "end_ns": end - base, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def _count_read(trace: Trace, args, text: str) -> None:
    trace.count("ingest.files")
    trace.count("ingest.bytes_in", len(text))  # the generated inputs are ASCII


def _count_built(trace: Trace, args, profile) -> None:
    trace.count("profile.works", profile.r0)
    trace.profiles.append(profile)


def _count_merged(trace: Trace, args, merged) -> None:
    trace.count("collective.works_pooled", merged.merged.r0)
    trace.profiles.append(merged.merged)


# (namespace, attribute, span name, counter run on (trace, args, result)).
# The CLI and the library import these names into their own modules, so
# each is rebound where it is looked up.  ``merge_profiles`` builds the
# pooled profile through the collective module's own ``build_profile``,
# which is left unwrapped: that build counts under collective.merge.
WRAPPED: tuple[tuple[object, str, str, Callable | None], ...] = (
    (cli, "scan_directory", "ingest.scan", None),
    (pathlib.Path, "read_text", "ingest.read", _count_read),
    (ingest, "parse_profile_json", "ingest.parse", lambda trace, args, doc: trace.count("ingest.documents")),
    (ingest, "parse_profile_csv", "ingest.parse", lambda trace, args, doc: trace.count("ingest.documents")),
    (ingest, "build_profile", "profile.build", _count_built),
    (cli, "compute_report", "indices.report", lambda trace, args, report: trace.count("indices.reports")),
    (collective, "compute_report", "indices.report", lambda trace, args, report: trace.count("indices.reports")),
    (cli, "merge_profiles", "collective.merge", _count_merged),
    (cli, "write_report_table", "ingest.table", lambda trace, args, text: trace.count("ingest.bytes_out", len(text))),
    (cli, "write_profile", "ingest.write_profile", lambda trace, args, text: trace.count("ingest.bytes_out", len(text))),
    (cli, "build_plot_spec", "render.spec",
     lambda trace, args, spec: trace.count("render.vertices", sum(len(curve.vertices) for curve in spec.curves))),
    (cli, "render_svg", "render.svg", lambda trace, args, svg: trace.count("render.svg_bytes", len(svg))),
    (cli, "_emit_text", "cli.emit", None),
    (cli, "_emit_bytes", "cli.emit", None),
    (pathlib.Path, "write_text", "cli.emit", None),  # merge writes its document without _emit_text
)


def _wrap(trace: Trace, name: str, fn: Callable, counter: Callable | None) -> Callable:
    def traced(*args, **kwargs):
        index = trace.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            trace.close(index)
        if counter is not None:
            counter(trace, args, result)
        return result

    return traced


class _Json:
    """Stands in for the json module inside ingest, so json.loads gets the span ingest.decode."""

    def __init__(self, trace: Trace) -> None:
        self.loads = _wrap(trace, "ingest.decode", json.loads, None)

    def __getattr__(self, name: str):
        return getattr(json, name)


@contextlib.contextmanager
def _traced_modules(trace: Trace) -> Iterator[None]:
    with contextlib.ExitStack() as stack:
        for namespace, attribute, name, counter in WRAPPED:
            fn = getattr(namespace, attribute)
            stack.enter_context(mock.patch.object(namespace, attribute, _wrap(trace, name, fn, counter)))
        stack.enter_context(mock.patch.object(ingest, "json", _Json(trace)))
        yield


def traced_command(args: tuple[str, ...]) -> tuple[Trace, int, bytes, bytes]:
    """Run the CLI in-process on ``args``, traced, then the single-index pass.

    Returns the trace, the exit code and what the command wrote to
    standard output and standard error.
    """
    trace = Trace()
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # with .buffer, as _emit_bytes needs
    stderr = io.StringIO()
    with _traced_modules(trace), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with trace.span(COMMAND):
            code = cli.main(list(args))
    stdout.flush()
    with trace.span(SINGLE_INDEX_PASS):
        for profile in trace.profiles:
            for name, fn, extra in SINGLE_INDEX:
                with trace.span(name):
                    fn(profile, *extra)
    return trace, code, stdout.buffer.getvalue(), stderr.getvalue().encode("utf-8")
