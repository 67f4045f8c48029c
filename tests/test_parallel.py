"""Tests for the worker count and the forked workers of ``_parallel``."""

import os
import signal
import threading

import pytest

from coherelab import _parallel
from coherelab.errors import ValidationError


class TestThreadCount:
    def test_the_automatic_cap_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.delenv("COHERELAB_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
        assert _parallel.thread_count() == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(20)))
        assert _parallel.thread_count() == 8

    def test_without_an_affinity_set_the_cap_counts_the_host_s_cpus(self, monkeypatch):
        monkeypatch.delenv("COHERELAB_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _parallel.thread_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _parallel.thread_count() == 1

    @pytest.mark.parametrize("raw, want", [("", None), ("0", None), (" 5 ", 5), ("1", 1)])
    def test_the_variable_sets_the_count(self, monkeypatch, raw, want):
        monkeypatch.setenv("COHERELAB_THREADS", raw)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert _parallel.thread_count() == (2 if want is None else want)

    @pytest.mark.parametrize("raw", ["abc", "-1", "1.5"])
    def test_a_bad_variable_is_refused(self, monkeypatch, raw):
        monkeypatch.setenv("COHERELAB_THREADS", raw)
        with pytest.raises(ValidationError, match="COHERELAB_THREADS"):
            _parallel.thread_count()


def test_a_running_python_thread_is_a_second_thread():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert not _parallel.runs_one_thread()
    finally:
        release.set()
        other.join(timeout=60)


class TestForkedInOrder:
    """``forked_in_order`` on units whose payloads say who made them."""

    @pytest.fixture
    def forks(self, monkeypatch):
        forked = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return forked

    @staticmethod
    def run(units, workers, produce):
        """``(unit, where)`` in the order the units were taken: ``here`` or
        the payload."""
        taken = []
        _parallel.forked_in_order(
            units, workers, produce,
            lambda unit, chunks: taken.append((unit, b"".join(chunks).decode())),
            lambda unit: taken.append((unit, "here")),
        )
        return taken

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers, units", [(1, 5), (2, 5), (3, 7), (4, 2), (3, 0)])
    def test_units_are_dealt_in_turn_and_taken_in_order(self, forks, workers, units):
        taken = self.run(list(range(units)), workers, lambda u: f"w{u}".encode())
        assert taken == [(u, "here" if u % workers == 0 else f"w{u}") for u in range(units)]
        assert len(forks) == max(0, min(workers, units) - 1)
        self.assert_no_child_left()

    def test_a_worker_asks_for_a_redo_by_none_or_by_raising(self, forks):
        def produce(u):
            if u == 1:
                return None
            if u == 3:
                raise MemoryError
            return b"" if u == 5 else f"w{u}".encode()

        taken = self.run(list(range(6)), 2, produce)
        assert taken == [(0, "here"), (1, "here"), (2, "here"), (3, "here"), (4, "here"),
                         (5, "")]
        self.assert_no_child_left()

    def test_a_dead_worker_s_units_run_here(self, forks):
        def produce(u):
            if u == 4:
                os.kill(os.getpid(), signal.SIGKILL)
            return f"w{u}".encode()

        taken = self.run(list(range(9)), 3, produce)
        # Worker 1 takes units 1, 4 and 7, and dies at unit 4.
        assert taken == [(u, "here" if u % 3 == 0 or u in (4, 7) else f"w{u}")
                         for u in range(9)]
        self.assert_no_child_left()

    def test_units_that_cannot_fork_run_here(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        assert self.run([0, 1, 2], 3, lambda u: b"w") == [(0, "here"), (1, "here"), (2, "here")]

    def test_a_caller_running_threads_forks_nothing(self, forks):
        got = []
        caller = threading.Thread(target=lambda: got.append(self.run([0, 1, 2], 3, bytes)))
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert got == [[(0, "here"), (1, "here"), (2, "here")]]
        assert forks == []

    def test_a_payload_that_breaks_off_raises(self, forks):
        # More than a pipe holds: the worker is killed while it writes.
        big = b"x" * (1 << 20)

        def take(unit, chunks):
            next(chunks)
            os.kill(forks[0], signal.SIGKILL)
            for _ in chunks:
                pass

        with pytest.raises(ChildProcessError, match="middle of a payload"):
            _parallel.forked_in_order([0, 1], 2, lambda u: big, take, lambda u: None)
        self.assert_no_child_left()

    def test_an_error_here_ends_every_worker(self, forks):
        def run_here(unit):
            raise KeyError(unit)

        with pytest.raises(KeyError):
            _parallel.forked_in_order([0, 1, 2], 3, lambda u: b"w", lambda u, c: None, run_here)
        assert len(forks) == 2
        self.assert_no_child_left()
