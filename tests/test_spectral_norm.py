"""The largest-singular-value routine behind every spectral norm.

``_spectral_norm(t, shift)`` returns ``sigma_max(T - shift/n 11^T)``: a
full SVD below ``_LANCZOS_MIN_N``, certified Golub-Kahan-Lanczos above it
with the full SVD as fallback.  These tests hold it to the SVD of the
formed matrix on both sides of the crossover.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import coherelab.coherence as coherence
from coherelab.coherence import (
    _LANCZOS_MAX_STEPS,
    _LANCZOS_MIN_N,
    FrequencyGrid,
    _golub_kahan_norms,
    _orthogonalize,
    _spectral_norm,
    report_csv_row,
    sweep,
)
from coherelab.netfile import parse_network_text

from conftest import positive_real_ring_text, random_connected_laplacian

RTOL = 1e-12
SIZES = st.one_of(st.integers(2, _LANCZOS_MIN_N - 1), st.integers(_LANCZOS_MIN_N, 200))
SEEDS = st.integers(0, 2**32 - 1)


def svd_value(t: np.ndarray, shift: complex = 0.0) -> float:
    """The reference: the SVD of the formed shifted matrix."""
    n = t.shape[0]
    x = t - (shift / n) * np.ones((n, n), dtype=complex) if shift else t
    return float(np.linalg.svd(x, compute_uv=False).max())


def assert_close(got: float, want: float) -> None:
    assert abs(got - want) <= RTOL * want


def complex_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def network_transfer(rng: np.random.Generator, n: int, coupling: complex) -> tuple[np.ndarray, complex]:
    """``T = (diag{1/g_i} + f L)^{-1}`` of a random heterogeneous network at a
    right-half-plane point (complex symmetric) and its coherent value gbar."""
    lap = random_connected_laplacian(rng, n, extra_edges=n).matrix
    s = complex(rng.uniform(0.1, 1.0), rng.uniform(0.1, 5.0))
    inv = (s + rng.uniform(0.2, 2.0, n)) / rng.uniform(0.5, 2.0, n)
    return np.linalg.inv(np.diag(inv) + coupling * lap), 1.0 / np.mean(inv)


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def with_singular_values(rng: np.random.Generator, sv: np.ndarray) -> np.ndarray:
    n = sv.size
    return (unitary(rng, n) * sv) @ unitary(rng, n).conj().T


class TestAgainstSvd:
    @given(n=SIZES, seed=SEEDS, shifted=st.booleans())
    @example(n=_LANCZOS_MIN_N - 1, seed=0, shifted=True)
    @example(n=_LANCZOS_MIN_N, seed=0, shifted=True)
    @settings(max_examples=40, deadline=None)
    def test_random_complex_matrices(self, n, seed, shifted):
        rng = np.random.default_rng(seed)
        t = complex_gaussian(rng, n, n)
        shift = complex(*rng.normal(0.0, n, 2)) if shifted else 0.0
        assert_close(_spectral_norm(t, shift), svd_value(t, shift))

    @given(n=SIZES, seed=SEEDS, shifted=st.booleans())
    @example(n=150, seed=1, shifted=True)
    @settings(max_examples=30, deadline=None)
    def test_complex_symmetric_network_transfer(self, n, seed, shifted):
        rng = np.random.default_rng(seed)
        t, gbar = network_transfer(rng, n, complex(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0)))
        assert np.allclose(t, t.T)
        shift = gbar if shifted else 0.0
        assert_close(_spectral_norm(t, shift), svd_value(t, shift))

    def test_clustered_top_spectrum(self):
        # Heterogeneous k/s nodes on a complete graph under weak coupling:
        # T is nearly diag(g_i), so its top singular values crowd together,
        # and those of T - gbar/n 11^T too.  Some of these runs certify,
        # others reach the step cap and fall back.
        n = 300
        rng = np.random.default_rng(7)
        lap = n * np.eye(n) - np.ones((n, n))
        for s in (0.5 + 1.0j, 0.5 + 2.0j):
            inv = s / rng.uniform(1.0, 5.0, n)
            t = np.linalg.inv(np.diag(inv) + 1e-3 * lap)
            gbar = 1.0 / np.mean(inv)
            for shift in (0.0, gbar):
                sv = np.linalg.svd(t - (shift / n) * np.ones((n, n)), compute_uv=False)
                assert sv[1] > 0.75 * sv[0]
                assert_close(_spectral_norm(t, shift), svd_value(t, shift))

    @given(n=st.integers(_LANCZOS_MIN_N, 200), seed=SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_rank_one_dominated_transfer(self, n, seed):
        # Strong coupling: T is gbar/n 11^T plus a part of order 1/|f|.
        rng = np.random.default_rng(seed)
        t, gbar = network_transfer(rng, n, 1e4)
        assert svd_value(t) > 100 * svd_value(t, gbar)
        assert_close(_spectral_norm(t), svd_value(t))
        # The shifted value cancels T's coherent part: T v and shift/n (sum v)
        # each carry a rounding error of order eps |T|, so the agreement is
        # measured against |T| (the solve leaves errors larger than that in T).
        got, want = _spectral_norm(t, gbar), svd_value(t, gbar)
        assert abs(got - want) <= RTOL * want + 1e-14 * svd_value(t)

    @pytest.mark.parametrize("n", [3, _LANCZOS_MIN_N, 200])
    def test_diagonal_and_rank_one_breakdown(self, n):
        rng = np.random.default_rng(n)
        cases = [
            np.diag(np.tile([3.0, 1.0, 0.5, 2.0], n)[:n]).astype(complex),
            np.diag(complex_gaussian(rng, n)),
            np.eye(n, dtype=complex),
            np.outer(complex_gaussian(rng, n), complex_gaussian(rng, n)),
        ]
        # One nonzero entry: from the seeded start some of these reach an
        # exact alpha breakdown, X v_{k+1} - beta_k u_k = 0 after
        # reorthogonalization.
        for (i, j), value in itertools.product([(0, 0), (5, 17)], [1.0, 3.0, 0.5j, 2.0 - 1.0j]):
            single = np.zeros((n, n), dtype=complex)
            single[i % n, j % n] = value
            cases.append(single)
        for t in cases:
            assert_close(_spectral_norm(t), svd_value(t))
            assert_close(_spectral_norm(t, 1.5j), svd_value(t, 1.5j))

    @pytest.mark.parametrize("n", [4, _LANCZOS_MIN_N, 200])
    def test_zero_matrix(self, n):
        zero = np.zeros((n, n), dtype=complex)
        assert _spectral_norm(zero) == 0.0
        assert_close(_spectral_norm(zero, 2.0 + 1.0j), abs(2.0 + 1.0j))

    def test_below_the_crossover_the_value_is_the_svd_bit_for_bit(self):
        rng = np.random.default_rng(5)
        n = _LANCZOS_MIN_N - 1
        t = complex_gaussian(rng, n, n)
        assert _spectral_norm(t) == svd_value(t)
        assert _spectral_norm(t, 0.3 - 2.0j) == svd_value(t, 0.3 - 2.0j)


def test_orthogonalize_removes_the_basis_to_working_precision():
    # w lies within 1e-10 of the span of the basis: one Gram-Schmidt pass
    # leaves components of order eps |w| along it, far above eps |result|.
    rng = np.random.default_rng(4)
    basis = unitary(rng, 200)[:30]
    w = complex_gaussian(rng, 30) @ basis + 1e-10 * complex_gaussian(rng, 200)
    out = _orthogonalize(w, basis)
    assert np.max(np.abs(basis.conj() @ out)) <= 1e-14 * np.linalg.norm(out)


class TestFallback:
    @pytest.fixture
    def svd_shapes(self, monkeypatch) -> list:
        """The shape of every matrix handed to ``np.linalg.svd``."""
        shapes = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        return shapes

    def test_uncertified_run_returns_the_svd_value_bit_for_bit(self, monkeypatch, svd_shapes):
        n = _LANCZOS_MIN_N + 22
        rng = np.random.default_rng(11)
        sv = np.concatenate([[1.0, 1.0], np.sort(rng.uniform(0.5, 0.99, n - 2))[::-1]])
        t = with_singular_values(rng, sv)
        monkeypatch.setattr(coherence, "_LANCZOS_MAX_STEPS", 3)
        got = _spectral_norm(t, 0.25 + 0.5j)
        assert svd_shapes[-1] == (n, n)
        assert got == svd_value(t, 0.25 + 0.5j)

    def test_certified_run_takes_no_full_svd(self, svd_shapes):
        n = 200
        rng = np.random.default_rng(12)
        t = with_singular_values(rng, np.concatenate([[2.0], np.linspace(1.0, 0.1, n - 1)]))
        got = _spectral_norm(t)
        assert svd_shapes and all(shape[0] <= coherence._LANCZOS_MAX_STEPS for shape in svd_shapes)
        assert_close(got, 2.0)

    def test_non_finite_matrix_behaves_as_the_svd(self):
        n = _LANCZOS_MIN_N
        t = np.ones((n, n), dtype=complex)
        t[3, 5] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            svd_value(t)
        with pytest.raises(np.linalg.LinAlgError):
            _spectral_norm(t)
        t[3, 5] = np.inf
        assert np.isnan(svd_value(t)) and np.isnan(_spectral_norm(t))


def diagonal_norms(d: np.ndarray) -> np.ndarray:
    """``_golub_kahan_norms`` of the diagonal operators ``diag(d[j])``, one
    batch."""

    def apply(idx, v):
        return d[idx] * v

    def adjoint(idx, u):
        return d[idx].conj() * u

    return _golub_kahan_norms(apply, adjoint, d.shape[0], d.shape[1])


def spread_diagonals(rng: np.random.Generator, profiles: list) -> np.ndarray:
    """One row per profile: its values in random order, each turned by a
    random phase, so the top singular value is the profile's largest."""
    return np.array([rng.permutation(p) * np.exp(1j * rng.uniform(-0.1, 0.1, p.size))
                     for p in profiles])


class TestBatch:
    """A batch's Krylov bases start with room for a few steps and grow as
    its members need more."""

    def test_members_take_the_steps_they_would_take_alone(self, monkeypatch):
        n = 50
        ramp = np.linspace(0.0, 1.0, n)
        profiles = [
            np.concatenate([[2.0], np.linspace(1.0, 0.1, n - 1)]),  # certified early
            1.0 - 0.3 * np.sqrt(ramp),  # certified after some 25 steps
            1.0 - 0.3 * ramp**2,  # a tight top cluster: no certificate
        ]
        d = spread_diagonals(np.random.default_rng(21), profiles * 3)
        steps = []
        certificate = coherence._ritz_certificate

        def recording(b, beta):
            steps.append(b.shape[-1])
            return certificate(b, beta)

        monkeypatch.setattr(coherence, "_ritz_certificate", recording)
        batch = diagonal_norms(d)
        assert max(steps) == _LANCZOS_MAX_STEPS  # every growth of the bases ran
        alone = np.concatenate([diagonal_norms(d[j : j + 1]) for j in range(len(d))])
        assert batch.tobytes() == alone.tobytes()
        assert np.isnan(batch).tolist() == [False, False, True] * 3
        top = np.abs(d).max(axis=1)
        certified = ~np.isnan(batch)
        np.testing.assert_allclose(batch[certified], top[certified], rtol=RTOL, atol=0.0)

    def test_a_batch_certified_in_a_few_steps_holds_bases_of_a_few_steps(self):
        # Certified in 7 steps: the bases end with room for 9 steps, 2 x 9 + 1
        # rows a member, against 2 x 40 + 1 if every step ran.
        n, count = 2000, 16
        profile = np.concatenate([[10.0], np.linspace(1.0, 0.1, n - 1)])
        d = spread_diagonals(np.random.default_rng(22), [profile] * count)
        full = count * 16 * n * (2 * _LANCZOS_MAX_STEPS + 1)
        tracemalloc.start()
        try:
            sigma = diagonal_norms(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(sigma, 10.0, rtol=RTOL, atol=0.0)
        assert peak < full / 2


def start_dependent_values() -> list[float]:
    """Norms of a T whose certified values, unlike their first 13 digits,
    depend on the start vector (a complete graph under unit coupling)."""
    n = 300
    rng = np.random.default_rng(9)
    inv = (0.5 + 1.0j) / rng.uniform(1.0, 5.0, n)
    t = np.linalg.inv(np.diag(inv) + (n * np.eye(n) - np.ones((n, n))))
    return [_spectral_norm(t), _spectral_norm(t, 1.0 / np.mean(inv))]


def test_values_do_not_depend_on_the_process():
    src = str(Path(coherence.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-c",
         "import test_spectral_norm as m; print(repr(m.start_dependent_values()))"],
        cwd=Path(__file__).parent, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert child.stdout.strip() == repr(start_dependent_values())


def test_sweep_bytes_do_not_depend_on_threads_or_repetition(monkeypatch):
    # The size and shape of the sweep benchmark's network.
    net = parse_network_text(positive_real_ring_text(np.random.default_rng(300), 300, 22, (20.0, 20.0)))
    grid = FrequencyGrid.logarithmic(0.2, 0.05, 20.0, 20)
    outputs = []
    for threads in ("1", "1", "2", "2"):
        monkeypatch.setenv("COHERELAB_THREADS", threads)
        outputs.append("\n".join(report_csv_row(r) for r in sweep(net, grid).reports))
    assert outputs[0].count("\n") == 19
    assert len(set(outputs)) == 1
