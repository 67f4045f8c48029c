"""Worker-count control and the forked workers of every parallel stage.

The ``COHERELAB_THREADS`` environment variable caps parallelism; ``0`` or
an unset variable selects an automatic cap: the CPUs this process may run
on, at most 8.  Results are always taken in unit order, so parallel
evaluation never changes output bytes.

``forked_in_order`` runs units on forked processes, each with its own
interpreter, and is the one place that forks.  A forked worker has its
own memory: a budget that a caller sizes per process
(``concentration._KRYLOV_BYTES``) holds once in each worker.  Each
worker's BLAS also starts a thread pool of its own, so units that call
BLAS (``sweep``'s points, ``converge``'s multipliers, ``concentrate``'s
trial blocks) get more than one worker only where ``blas_workers`` says:
above ``_FORK_WORK`` and where ``runs_one_thread``.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import sys
import threading
import warnings
from typing import Callable, NoReturn, Sequence, TypeVar

from .errors import ValidationError

ENV_VAR = "COHERELAB_THREADS"

_T = TypeVar("_T")
_R = TypeVar("_R")

# Forking is safe here only where the child may keep running Python
# without an exec: not on macOS, whose system libraries may abort in a
# forked child, and not on Windows, which has no fork.
_CAN_FORK = sys.platform.startswith("linux") and hasattr(os, "fork")
# The length a forked worker sends in place of a payload's: redo the unit here.
_REDO = (1 << 64) - 1
# Work, summed over the units of a call, above which units that call BLAS
# are forked.  A frequency point of an n-node network, and a multiplier of
# ``converge``, counts ``point_work(n)``.  On a 2-core x86 VM, BLAS on one
# thread, medians of alternating calls, one process -> two: forking lost
# at work 1,250 to 3,200 (an 8-point sweep at n = 50, 13.5 -> 20.9 ms;
# 4 multipliers at n = 100, 19.6 -> 23.0 ms; 20 complete-family trials at
# n = 20, 19.8 -> 25.3 ms), won or lost by 5 to 13% at 5,000 to 5,625
# (8- and 200-point sweeps at n = 100 and 20, 37.1 -> 32.2 and
# 47.0 -> 44.8 ms; 4 multipliers at n = 150, 29.8 -> 31.3 ms) and won from
# 6,400 (40 complete-family trials at n = 20, 27.4 -> 23.5 ms; a 13-point
# sweep and 13 multipliers at n = 100, 56.2 -> 50.0 and 37.5 -> 31.6 ms).
_FORK_WORK = 6_000


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


def point_work(n: int, dense: bool = True) -> int:
    """The work counted for one frequency point of an ``n``-node network:
    ``n**2 / 16`` (at least ``n``) for a dense solve and norm, ``n`` for a
    point that costs O(n), such as the complete family's closed form.  The
    runs behind ``_FORK_WORK`` cover both kinds, with ``sweep``'s points,
    ``converge``'s multipliers and ``concentrate``'s trials as units."""
    return max(n, n * n // 16) if dense else n


def blas_workers(work: int) -> int:
    """The workers for units that call BLAS, ``work`` in all (``point_work``
    summed): ``thread_count()`` where the work exceeds ``_FORK_WORK`` and
    ``runs_one_thread()``, else 1.  ``COHERELAB_THREADS`` is read on every
    call, so a bad value fails whatever the work."""
    workers = thread_count()
    return workers if work > _FORK_WORK and runs_one_thread() else 1


def forked_in_order(
    units: Sequence[_T],
    workers: int,
    fn: Callable[[_T], _R],
    take: Callable[[_T, _R], object],
) -> None:
    """Call ``take(unit, fn(unit))`` on every unit, in order, with ``fn``
    computed on up to ``workers`` processes.

    The units are dealt in turn to ``min(workers, len(units))`` workers,
    unit ``u`` to worker ``u % workers``; worker 0 is this process.  On
    Linux, in a process that runs one Python thread, every other worker is
    a forked process that computes ``fn`` on its units one after another
    and sends each result, pickled whole, through its own pipe, which only
    this process reads: only a child's pickles are loaded.  This process
    goes through the units in order and calls ``take`` on each:
    with the result a worker sent, or with ``fn(unit)`` computed here.
    ``fn`` is computed here on this process's own units and redone here on
    a unit whose worker raised, recorded any warning, or died before the
    whole result came, and on every unit of a worker that could not be
    forked or has died.  So the calls, the warnings with the frames they
    point at, and the first error are those of the serial loop.  With one
    worker, on other systems, or where other Python threads run (a lock
    one of them holds would stay locked in the child), every unit is
    computed here.  An error of ``fn`` here or of ``take`` ends the call,
    and no forked worker outlives it.  This process holds one result of a
    worker's at a time, twice: pickled and loaded.
    """
    workers = min(workers, len(units))
    if workers < 2 or not _CAN_FORK or threading.active_count() > 1:
        for unit in units:
            take(unit, fn(unit))
        return
    children: dict[int, tuple[int, int]] = {}  # worker -> (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            child = _fork_worker(units[w::workers], fn)
            if child is not None:
                children[w] = child
        for u, unit in enumerate(units):
            payload = None
            if u % workers in children:
                try:
                    payload = _read_payload(children[u % workers][1])
                except EOFError:  # the worker died: its units are done here
                    _end(*children.pop(u % workers))
            take(unit, fn(unit) if payload is None else pickle.loads(payload))
    finally:
        # Every unit is done or no longer wanted: end the workers, done or not.
        for child in children.values():
            _end(*child)


def _end(pid: int, fd: int) -> None:
    """Close a worker's pipe, kill the worker and reap it."""
    os.close(fd)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _read_payload(fd: int) -> bytearray | None:
    """The next payload of a worker's pipe, or None where it asks for a
    redo; ``EOFError`` where the pipe ends before the payload does."""
    length = int.from_bytes(_read_exactly(fd, 8), "little")
    return None if length == _REDO else _read_exactly(fd, length)


def _read_exactly(fd: int, size: int) -> bytearray:
    """The next ``size`` bytes of ``fd``; ``EOFError`` where it ends first."""
    data = bytearray(size)
    view = memoryview(data)
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError
        view = view[got:]
    return data


def _fork_worker(units: Sequence[_T], fn: Callable[[_T], object]):
    """``(pid, read end)`` of a forked worker that sends the results of
    ``units`` into a new pipe, or None where no process can be forked."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller computes the units
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        os.close(read_end)
        _serve(units, fn, write_end)
    os.close(write_end)
    return pid, read_end


def _serve(units: Sequence[_T], fn: Callable[[_T], object], fd: int) -> NoReturn:
    """Body of a forked worker: send each unit's pickled result behind its
    length in 8 little-endian bytes, or the redo marker where ``fn`` raised
    or warned, to ``fd``, and end the process, with status 0 only once all
    are sent.

    The worker never returns into the caller's code and ends by
    ``os._exit``, so no buffer of the parent is flushed twice and no exit
    handler runs.  The collector is off, so that no finalizer of the
    parent's objects runs here.  A unit is computed only once the payload
    before it is in the pipe, so the process holds one result at most.
    """
    code = 1
    try:
        gc.disable()
        for unit in units:
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(unit)
                payload = None if caught else pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
                del result
            except Exception:  # redone by the parent, where it raises in order
                payload = None
            length = _REDO if payload is None else len(payload)
            for view in (memoryview(length.to_bytes(8, "little")), memoryview(payload or b"")):
                while view:
                    view = view[os.write(fd, view):]
            del payload, view
        code = 0
    finally:
        os._exit(code)
