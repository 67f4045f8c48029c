"""Worker-count control, the thread pool of grid evaluations and the forked
workers of ``concentrate``'s trials and ``simulate``'s CSV formatters.

The ``COHERELAB_THREADS`` environment variable caps parallelism; ``0`` or
an unset variable selects an automatic cap: the CPUs this process may run
on, at most 8.  Results are always assembled in input order, so parallel
evaluation never changes output bytes.

``map_ordered`` runs its items on threads, which pays where they release
the GIL.  ``forked_in_order`` runs units of pure-Python or small-array
work on forked processes, each with its own interpreter; it is the one
place that forks.  A forked worker has its own memory: a budget that a
caller sizes per process (``concentration._KRYLOV_BYTES``) holds once in
each worker.  Each worker's BLAS also starts a thread pool of its own, so
a caller whose units call BLAS forks only where ``runs_one_thread``.
"""

from __future__ import annotations

import gc
import os
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TypeVar

from .errors import ValidationError

ENV_VAR = "COHERELAB_THREADS"

_T = TypeVar("_T")
_R = TypeVar("_R")

# ``os.fork`` is safe here only where the child may keep running Python
# without an exec: not on macOS, whose system libraries may abort in a
# forked child, and not on Windows, which has no fork.
_CAN_FORK = sys.platform.startswith("linux") and hasattr(os, "fork")
# The length a forked worker sends in place of a payload's: redo the unit here.
_REDO = (1 << 64) - 1
# Bytes read from a worker's pipe at a time: a few rows of a wide network.
_PIPE_CHUNK = 1 << 14


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the system
    keeps one, else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_count() -> int:
    raw = os.environ.get(ENV_VAR, "0").strip() or "0"
    try:
        requested = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if requested < 0:
        raise ValidationError(f"{ENV_VAR} must be >= 0, got {requested}")
    if requested == 0:
        return min(_usable_cpus(), 8)
    return requested


def runs_one_thread() -> bool:
    """Whether this process runs one thread of the system's: no other Python
    thread and no BLAS or OpenMP pool, which numpy's OpenBLAS starts as it
    loads unless it is held to one thread.  False where the system does not
    tell."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def map_ordered(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """Apply ``fn`` to every item, preserving order; threads when it pays."""
    seq: Sequence[_T] = list(items)
    workers = thread_count()
    if workers <= 1 or len(seq) < 4:
        return [fn(item) for item in seq]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seq))


def forked_in_order(
    units: Sequence[_T],
    workers: int,
    produce: Callable[[_T], bytes | None],
    take: Callable[[_T, Iterator[bytes]], object],
    run_here: Callable[[_T], object],
) -> None:
    """Run every unit once, in order, on up to ``workers`` processes.

    The units are dealt in turn to ``min(workers, len(units))`` workers,
    unit ``u`` to worker ``u % workers``; worker 0 is this process.  On
    Linux, in a process that runs one Python thread, every other worker is
    a forked process that calls ``produce`` on its units one after another
    and sends each payload through its own pipe, behind its length in 8
    little-endian bytes.  A ``produce`` that raises or returns None asks
    for its unit to be redone here.  This process goes through the units
    in order.  It calls ``run_here(unit)`` on its own units, on those a
    worker asks it to redo, and on those of a worker it could not fork or
    that ended before it began their payloads.  On every other unit it
    calls ``take(unit, chunks)``, which must read the payload to its end
    from ``chunks``, ``_PIPE_CHUNK`` bytes at a time; a worker that ends
    in the middle of a payload makes ``chunks`` raise
    ``ChildProcessError``.  So the calls, and what they raise, are those
    of ``run_here`` on every unit in order wherever ``take`` does what
    ``run_here`` would.  With one worker, on other systems, or where other
    Python threads run (a lock one of them holds would stay locked in the
    child), every unit runs here.  An error of ``run_here`` or ``take``
    ends the call, and no forked worker outlives it.  This process holds a
    chunk of the workers' payloads at a time.
    """
    workers = min(workers, len(units))
    if workers < 2 or not _CAN_FORK or threading.active_count() > 1:
        for unit in units:
            run_here(unit)
        return
    children: dict[int, tuple[int, int]] = {}  # worker -> (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            child = _fork_worker(units[w::workers], produce)
            if child is not None:
                children[w] = child
        for u, unit in enumerate(units):
            length = None
            if u % workers in children:
                fd = children[u % workers][1]
                try:
                    length = int.from_bytes(_read_exactly(fd, 8), "little")
                except EOFError:  # the worker died: its units are done here
                    _end(*children.pop(u % workers))
            if length is None or length == _REDO:
                run_here(unit)
            else:
                take(unit, _chunks(fd, length))
    finally:
        # Every unit is done or no longer wanted: end the workers, done or not.
        for child in children.values():
            _end(*child)


def _end(pid: int, fd: int) -> None:
    """Close a worker's pipe, kill the worker and reap it."""
    os.close(fd)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _read_exactly(fd: int, size: int) -> bytes:
    """The next ``size`` bytes of ``fd``; ``EOFError`` where it ends first."""
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _chunks(fd: int, length: int) -> Iterator[bytes]:
    """The next ``length`` bytes of ``fd``, ``_PIPE_CHUNK`` at a time."""
    while length:
        chunk = os.read(fd, min(length, _PIPE_CHUNK))
        if not chunk:
            raise ChildProcessError("a forked worker ended in the middle of a payload")
        length -= len(chunk)
        yield chunk


def _fork_worker(units: Sequence[_T], produce: Callable[[_T], bytes | None]):
    """``(pid, read end)`` of a forked worker that sends the payloads of
    ``units`` into a new pipe, or None where no process can be forked."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller runs the units
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        os.close(read_end)
        _serve(units, produce, write_end)
    os.close(write_end)
    return pid, read_end


def _serve(units: Sequence[_T], produce: Callable[[_T], bytes | None], fd: int) -> NoReturn:
    """Body of a forked worker: send each unit's payload, or the redo
    marker, to ``fd`` and end the process, with status 0 only once all are
    sent.

    The worker never returns into the caller's code and ends by
    ``os._exit``, so no buffer of the parent is flushed twice and no exit
    handler runs.  The collector is off, so that no finalizer of the
    parent's objects runs here.  A unit is produced only once the payload
    before it is in the pipe, so the process holds one payload at most.
    """
    code = 1
    try:
        gc.disable()
        for unit in units:
            try:
                payload = produce(unit)
            except Exception:
                payload = None
            header = (_REDO if payload is None else len(payload)).to_bytes(8, "little")
            for view in (memoryview(header), memoryview(payload or b"")):
                while view:
                    view = view[os.write(fd, view):]
            del payload, view
        code = 0
    finally:
        os._exit(code)
