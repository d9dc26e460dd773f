"""Running a command's work on two halves of its inputs in two processes; ``cli`` decides when.

A forked child works on the second half of the inputs while this process
works on the first, and sends its result back through a pipe as marshal
bytes of plain tuples; marshal keeps floats bit for bit and strings with
surrogates whole.  Any exception or signal ends the child without a whole
payload, and this process then does the child's half itself, so the result,
every error and its order are those of working through the inputs in order.
"""

from __future__ import annotations

import marshal
import os
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .indices import IndexReport
from .ingest import ScanFailure
from .profile import CitationProfile

Item = TypeVar("Item")
Result = TypeVar("Result")
Loaded = tuple[CitationProfile, str | None]  # an input's profile and source
Row = tuple[CitationProfile, IndexReport]  # a table file's profile and report

_SIGKILL = 9  # signal.SIGKILL on POSIX systems; the signal module costs 0.7 ms to import


def in_two_processes(
    items: Sequence[Item],
    split: int,
    work: Callable[[Sequence[Item]], Result],
    pack: Callable[[Result], object],
    unpack: Callable[[object], Result],
) -> tuple[Result, Result]:
    """``(work(items[:split]), work(items[split:]))``, the second call run in a forked child.

    The child sends ``pack`` of its result, data that marshal takes, and this
    process turns it back into a result with ``unpack``.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: this process does both halves
        os.close(read_end)
        os.close(write_end)
        return work(items[:split]), work(items[split:])
    if pid == 0:
        try:
            os.close(read_end)
            payload = marshal.dumps(pack(work(items[split:])))
            with open(write_end, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)  # no traceback, no exit handlers, no flush of buffers copied from the parent
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            first = work(items[:split])
            payload = pipe.read()  # to the end of the pipe, where the child has closed it or died
        try:
            rest = marshal.loads(payload)  # while the child's exit frees its memory
        except EOFError:  # marshal bytes cut short: the child ended before it wrote them all
            rest = None
    except BaseException:
        os.kill(pid, _SIGKILL)  # this half failed first
        raise
    finally:
        os.waitpid(pid, 0)  # no child outlives the command
    return first, work(items[split:]) if rest is None else unpack(rest)


def load_profiles(paths: Sequence[str], split: int, load: Callable[[str], Loaded]) -> list[Loaded]:
    """``[load(path) for path in paths]``, with ``paths[split:]`` loaded in a forked child."""
    first, rest = in_two_processes(
        paths,
        split,
        lambda half: [load(path) for path in half],
        lambda loaded: [(tuple(profile), source) for profile, source in loaded],
        lambda plain: [(CitationProfile._make(fields), source) for fields, source in plain],
    )
    return first + rest


def tabulate(
    entries: Sequence[Item],
    split: int,
    work: Callable[[Sequence[Item]], tuple[list[ScanFailure], list[Row]]],
) -> tuple[list[ScanFailure], list[Row]]:
    """The failures and rows of ``work`` on the whole listing, with ``entries[split:]`` worked on in a forked child."""
    (failures, rows), (more_failures, more_rows) = in_two_processes(
        entries,
        split,
        work,
        lambda result: (
            [(str(failure.path), failure.error) for failure in result[0]],
            [(tuple(profile), tuple(report)) for profile, report in result[1]],
        ),
        lambda plain: (
            [ScanFailure(Path(path), error) for path, error in plain[0]],
            [(CitationProfile._make(profile), IndexReport._make(report)) for profile, report in plain[1]],
        ),
    )
    return failures + more_failures, rows + more_rows
