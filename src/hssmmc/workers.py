"""Forked worker processes for the independent parts of one scenario.

``fork_map(fn, items)`` is ``[fn(item) for item in items]``. Where forking
is safe and useful (``usable_cpus``), each item after the first runs in a
child process forked for it, while the calling process runs the first. A
child starts from the caller's memory at the fork, so ``fn`` reads its
inputs from there. Its return value or exception comes back pickled
through a pipe, so it should be small. Bulk output goes to an array that
the caller and its children share (``shared_empty``) or to files.
Elsewhere every item runs inline, in order, and the results are the same.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal

import numpy as np


def usable_cpus() -> int:
    """The CPUs this process may run on if it can fork safely, else 1.

    It can where ``os.fork`` exists and the process has one OS thread, one
    entry in /proc/self/task on Linux. A child of a threaded process holds
    only the forking thread, and a lock another thread held stays held in
    it. A BLAS thread pool counts: OpenBLAS starts one unless it runs with
    OPENBLAS_NUM_THREADS=1.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return 1
    return len(os.sched_getaffinity(0)) if threads == 1 else 1


def shared_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float array in anonymous shared memory: what a
    forked child writes to it, its parent reads."""
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(8 * count, 1))
    return np.frombuffer(buffer, dtype=float, count=count).reshape(shape)


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, each item after the first in a
    forked child when ``usable_cpus`` is above 1 and the first meanwhile in
    this process.

    An exception of ``fn`` is raised here with its type and message, that
    of the first failing item in ``items`` order; it must pickle by its
    args, as an exception with the default ``__init__`` does. Every child
    is reaped before this returns or raises. Once an item has failed, the
    children of the items after it are killed. Where a fork fails, as under
    a limit on processes or memory, that item and the ones after it run
    here in turn once the children are done.
    """
    items = list(items)
    if len(items) < 2 or usable_cpus() < 2:
        return [fn(item) for item in items]
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for item in items[1:]:
            try:
                children.append(_fork(fn, item))
            except OSError:
                break
        inline = items[1 + len(children):]
        results = [fn(items[0])]
        while children:
            pid, fd = children[0]
            data = _read_to_end(fd)
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            os.close(fd)
            results.append(_outcome(data, status))
        results += [fn(item) for item in inline]
    finally:
        for pid, fd in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _fork(fn, item) -> tuple[int, int]:
    """Fork a child that runs ``fn(item)``, writes its pickled outcome to a
    pipe and ends by ``os._exit``; return its pid and the pipe's read end."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                outcome = (True, fn(item))
            except Exception as exc:  # sent to the parent, which raises it
                outcome = (False, exc)
            view = memoryview(pickle.dumps(outcome))
            while view:
                view = view[os.write(write_end, view):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _outcome(data: bytes, status: int):
    """The result a child sent, or its exception raised; a child that ended
    without sending one, killed or unable to pickle it, is a
    ChildProcessError."""
    if os.waitstatus_to_exitcode(status) != 0:
        raise ChildProcessError(f"a worker process ended with wait status {status} and no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value
