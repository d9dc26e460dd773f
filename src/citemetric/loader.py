"""Running a command's work on two halves of its inputs in two processes; ``cli`` decides when.

A forked child works on the second half of the inputs while this process
works on the first, and sends its result back through a pipe as pickle
bytes; pickle keeps floats bit for bit, integers of any size, strings with
surrogates, named tuples and paths whole.  The bytes come from this
process's own child through an anonymous pipe, which nothing outside the
program can write to, so they are safe to unpickle.  Any exception or
signal ends the child without a whole payload, and this process then does
the child's half itself, as it does both halves when no pipe or child can
be made, so the result, every error and its order are those of working
through the inputs in order.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Sequence, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")

_SIGKILL = 9  # signal.SIGKILL on POSIX systems; the signal module costs 0.7 ms to import


def in_two_processes(
    items: Sequence[Item], split: int, work: Callable[[Sequence[Item]], Result]
) -> tuple[Result, Result]:
    """``(work(items[:split]), work(items[split:]))``, the second call run in a forked child."""
    try:
        read_end, write_end = os.pipe()
    except OSError:  # out of descriptors: this process does both halves
        return work(items[:split]), work(items[split:])
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: this process does both halves
        os.close(read_end)
        os.close(write_end)
        return work(items[:split]), work(items[split:])
    if pid == 0:
        try:
            os.close(read_end)
            payload = pickle.dumps(work(items[split:]), pickle.HIGHEST_PROTOCOL)
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
            return first, pickle.loads(payload)  # while the child's exit frees its memory
        except (EOFError, pickle.UnpicklingError):  # pickle bytes cut short: the child ended before it wrote them all
            pass
    except BaseException:
        os.kill(pid, _SIGKILL)  # this half failed first
        raise
    finally:
        os.waitpid(pid, 0)  # no child outlives the command
    return first, work(items[split:])
