"""Tests for the worker count and the forked workers of ``_parallel``."""

import math
import os
import signal
import threading
import warnings

import pytest

from coherelab import _parallel
from coherelab.errors import ValidationError

PARENT = os.getpid()  # the process that runs the tests


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


class TestBlasWorkers:
    def test_a_dense_point_counts_a_sixteenth_of_its_square(self):
        assert [_parallel.point_work(n) for n in (2, 16, 100, 300)] == [2, 16, 625, 5625]
        assert _parallel.point_work(300, dense=False) == 300

    @pytest.mark.parametrize("one_thread", [True, False])
    def test_workers_above_the_cutoff_where_one_thread_runs(self, monkeypatch, one_thread):
        monkeypatch.setenv("COHERELAB_THREADS", "3")
        monkeypatch.setattr(_parallel, "runs_one_thread", lambda: one_thread)
        assert _parallel.blas_workers(_parallel._FORK_WORK) == 1
        assert _parallel.blas_workers(_parallel._FORK_WORK + 1) == (3 if one_thread else 1)

    @pytest.mark.parametrize("work", [0, 1 << 20])
    @pytest.mark.parametrize("one_thread", [True, False])
    def test_a_bad_variable_is_refused_whatever_the_work(self, monkeypatch, work, one_thread):
        monkeypatch.setenv("COHERELAB_THREADS", "abc")
        monkeypatch.setattr(_parallel, "runs_one_thread", lambda: one_thread)
        with pytest.raises(ValidationError, match="COHERELAB_THREADS"):
            _parallel.blas_workers(work)


class TestForkedInOrder:
    """``forked_in_order`` on units whose results say where they were computed."""

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
    def where():
        return "here" if os.getpid() == PARENT else "forked"

    def run(self, units, workers, fn=None):
        """``(unit, result)`` in the order the units were taken; by default
        the result says where the unit was computed."""
        taken = []
        _parallel.forked_in_order(units, workers, fn or (lambda unit: self.where()),
                                  lambda unit, result: taken.append((unit, result)))
        return taken

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers, units", [(1, 5), (2, 5), (3, 7), (4, 2), (3, 0)])
    def test_units_are_dealt_in_turn_and_taken_in_order(self, forks, workers, units):
        taken = self.run(list(range(units)), workers)
        assert taken == [(u, "here" if u % workers == 0 else "forked") for u in range(units)]
        assert len(forks) == max(0, min(workers, units) - 1)
        self.assert_no_child_left()

    def test_results_come_whole_and_exact(self, forks):
        # More than a pipe holds, and floats that must keep every bit.
        def fn(u):
            return u, b"x" * (1 << 20), [0.1 * u, math.nextafter(1.0, 2.0), -0.0], None

        assert self.run(list(range(4)), 2, fn) == [(u, fn(u)) for u in range(4)]
        assert len(forks) == 1
        self.assert_no_child_left()

    def test_a_unit_that_raises_or_warns_in_a_worker_is_redone_here(self, forks):
        def fn(u):
            where = self.where()
            if u == 1:
                warnings.warn(f"unit {u} {where}", UserWarning)
            if u == 3 and where == "forked":
                raise MemoryError
            return where

        with pytest.warns(UserWarning) as caught:
            taken = self.run(list(range(6)), 2, fn)
        assert taken == [(0, "here"), (1, "here"), (2, "here"), (3, "here"), (4, "here"),
                         (5, "forked")]
        # The warning of the serial loop, once, pointing at the same frame.
        assert [(str(w.message), w.filename) for w in caught] == [("unit 1 here", __file__)]
        self.assert_no_child_left()

    def test_a_dead_worker_s_units_are_computed_here(self, forks):
        def fn(u):
            if u == 4 and self.where() == "forked":
                os.kill(os.getpid(), signal.SIGKILL)
            return self.where()

        taken = self.run(list(range(9)), 3, fn)
        # Worker 1 takes units 1, 4 and 7, and dies at unit 4.
        assert taken == [(u, "here" if u % 3 == 0 or u in (4, 7) else "forked")
                         for u in range(9)]
        self.assert_no_child_left()

    def test_a_result_that_breaks_off_is_redone_here(self, forks, monkeypatch):
        # The worker sends the length and half of its first result, and dies.
        write = os.write

        def dying_write(fd, data):
            if self.where() == "forked" and len(data) > 8:
                write(fd, data[:len(data) // 2])
                os._exit(1)
            return write(fd, data)

        monkeypatch.setattr(os, "write", dying_write)
        taken = self.run(list(range(4)), 2, lambda u: (self.where(), "y" * 1000))
        assert taken == [(u, ("here", "y" * 1000)) for u in range(4)]
        assert len(forks) == 1
        self.assert_no_child_left()

    def test_units_that_cannot_fork_are_computed_here(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        assert self.run([0, 1, 2], 3) == [(0, "here"), (1, "here"), (2, "here")]

    def test_a_caller_running_threads_forks_nothing(self, forks):
        got = []
        caller = threading.Thread(target=lambda: got.append(self.run([0, 1, 2], 3)))
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert got == [[(0, "here"), (1, "here"), (2, "here")]]
        assert forks == []

    @pytest.mark.parametrize("failing", ["fn", "take"])
    def test_an_error_here_ends_every_worker(self, forks, failing):
        def fail(*args):
            raise KeyError(args[0])

        fn = fail if failing == "fn" else (lambda u: u)
        take = fail if failing == "take" else (lambda u, result: None)
        with pytest.raises(KeyError):
            _parallel.forked_in_order([0, 1, 2], 3, fn, take)
        assert len(forks) == 2
        self.assert_no_child_left()
