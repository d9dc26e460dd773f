"""Loading the named inputs of a command in two processes; ``cli._child_half`` decides when.

A forked child parses and builds the second half of the inputs while this
process loads the first, and sends its profiles back through a pipe as
marshal bytes of plain tuples; marshal keeps floats bit for bit and strings
with surrogates whole.  Any exception or signal ends the child without a
whole payload, and this process then loads the child's inputs itself, so the
result, every error and its order are those of loading the inputs one by one.
"""

from __future__ import annotations

import marshal
import os
from typing import Callable, Sequence

from .profile import CitationProfile

Loaded = tuple[CitationProfile, str | None]  # an input's profile and source

_SIGKILL = 9  # signal.SIGKILL on POSIX systems; the signal module costs 0.7 ms to import


def load_profiles(paths: Sequence[str], split: int, load: Callable[[str], Loaded]) -> list[Loaded]:
    """``[load(path) for path in paths]``, with ``paths[split:]`` loaded in a forked child."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: this process loads them all
        os.close(read_end)
        os.close(write_end)
        return [load(path) for path in paths]
    if pid == 0:
        try:
            os.close(read_end)
            loaded = [(tuple(profile), source) for profile, source in map(load, paths[split:])]
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(loaded))
        finally:
            os._exit(0)  # no traceback, no exit handlers, no flush of buffers copied from the parent
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            loaded = [load(path) for path in paths[:split]]
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
    if rest is None:
        return loaded + [load(path) for path in paths[split:]]
    return loaded + [(CitationProfile._make(fields), source) for fields, source in rest]
