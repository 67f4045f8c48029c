import warnings

import numpy as np
import pytest

from conftest import random_connected_laplacian
from coherelab.errors import ValidationError
from coherelab.network import (
    EmptyOrFullIndexSet,
    IndexOutOfRange,
    InvalidK,
    LaplacianMatrix,
    NonPositiveWeight,
    SelfLoop,
    algebraic_connectivity,
    complete_graph,
    grounded,
    grounded_bound_check,
    k_regular_ring,
    laplacian_from_edges,
    scale_connectivity,
)


def ring_eigenvalue_oracle(n: int, k: int, weight: float = 1.0) -> float:
    """Smallest positive circulant eigenvalue of the k-nearest-neighbour ring."""
    best = np.inf
    for m in range(1, n):
        lam = weight * sum(2.0 * (1.0 - np.cos(2.0 * np.pi * m * d / n))
                           for d in range(1, k + 1))
        best = min(best, lam)
    return best


# ---------------------------------------------------------------------------
# construction and validation

def test_path_graph_spectrum_oracle():
    lap = laplacian_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert np.allclose(lap.matrix, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert np.allclose(lap.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)


def test_duplicate_edges_are_summed():
    lap = laplacian_from_edges(2, [(0, 1, 1.0), (1, 0, 0.5)])
    assert lap.matrix[0, 1] == pytest.approx(-1.5)


def test_edge_validation_errors():
    with pytest.raises(SelfLoop):
        laplacian_from_edges(2, [(1, 1, 1.0)])
    with pytest.raises(NonPositiveWeight):
        laplacian_from_edges(2, [(0, 1, 0.0)])
    with pytest.raises(IndexOutOfRange):
        laplacian_from_edges(2, [(0, 2, 1.0)])


@pytest.mark.parametrize("edges, error, message", [
    # The first offending edge decides, whatever rules later edges break.
    ([(0, 1, 1.0), (2, 2, 1.0), (0, 5, 1.0), (1, 0, -1.0)],
     SelfLoop, "self-loop at node 2"),
    ([(0, 1, 1.0), (0, 5, 1.0), (2, 2, 1.0), (1, 0, -1.0)],
     IndexOutOfRange, r"edge \(0, 5\) outside 0..3"),
    ([(1, 0, -1.0), (2, 2, 1.0), (0, 5, 1.0)],
     NonPositiveWeight, r"edge \(1, 0\) has non-positive weight -1.0"),
    ([(0, 1, 1.0), (2, 3, float("nan")), (3, 3, 1.0)],
     NonPositiveWeight, r"edge \(2, 3\) has non-positive weight nan"),
    # Within one edge: the range first, then the self-loop, then the weight.
    ([(-1, -1, 0.0)], IndexOutOfRange, r"edge \(-1, -1\) outside 0..3"),
    ([(3, 3, 0.0)], SelfLoop, "self-loop at node 3"),
])
def test_first_offending_edge_decides_the_error(edges, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        laplacian_from_edges(4, edges)


def _edge_loop_laplacian(n, edges):
    """The edge-by-edge accumulation that laplacian_from_edges vectorizes."""
    adjacency = np.zeros((n, n))
    for i, j, w in edges:
        adjacency[i, j] += w
        adjacency[j, i] += w
    return np.diag(adjacency.sum(axis=1)) - adjacency


def test_duplicate_and_reversed_edges_sum_in_edge_order():
    # 1e16 + 1 + 1 differs from 1e16 + (1 + 1): the order of the sums shows.
    edges = [(0, 1, 1e16), (1, 0, 1.0), (0, 1, 1.0), (2, 1, 0.3), (1, 2, 0.1),
             (2, 1, 0.2), (0, 2, 1.0), (2, 0, 1e16), (0, 2, 1.0)]
    rng = np.random.default_rng(3)
    for _ in range(200):
        i, j = rng.choice(6, size=2, replace=False)
        edges.append((int(i), int(j), float(rng.choice([1e-3, 1.0, 7.0, 1e12]) * rng.random())))
    got = laplacian_from_edges(6, edges).matrix
    assert got.tobytes() == _edge_loop_laplacian(6, edges).tobytes()


@pytest.mark.parametrize("n, k", [(7, 3), (10, 2), (500, 37)])
def test_ring_is_its_edge_list(n, k):
    edges = [(i, (i + d) % n, 2.5) for i in range(n) for d in range(1, k + 1)]
    assert k_regular_ring(n, k, 2.5).matrix.tobytes() == _edge_loop_laplacian(n, edges).tobytes()


def test_numpy_endpoints_and_weights_are_accepted():
    edges = [(np.int64(0), np.int32(1), np.float64(1.5)), (np.uint8(2), 1, 2)]
    lap = laplacian_from_edges(np.int64(3), edges)
    assert lap.matrix.tobytes() == _edge_loop_laplacian(3, [(0, 1, 1.5), (2, 1, 2.0)]).tobytes()


def test_single_node_without_edges():
    lap = laplacian_from_edges(1, [])
    assert lap.matrix.tolist() == [[0.0]]
    assert lap.connected and lap.eigenvalues.tolist() == [0.0]


def test_empty_matrix_rejected():
    with pytest.raises(ValidationError, match="non-empty square"):
        LaplacianMatrix(np.zeros((0, 0)))


def test_asymmetric_matrix_rejected():
    with pytest.raises(ValidationError, match="symmetric"):
        LaplacianMatrix([[1.0, -1.0], [-0.5, 0.5]])


def test_positive_off_diagonal_rejected():
    with pytest.raises(ValidationError, match="off-diagonal"):
        LaplacianMatrix([[-1.0, 1.0], [1.0, -1.0]])


@pytest.mark.parametrize("matrix, message", [
    ([[1e308, -1e308], [-0.5e308, 0.5e308]], "too large"),  # asymmetric
    ([[-1e308, 1e308], [1e308, -1e308]], "too large"),  # positive off-diagonal
    # A finite norm, but the asymmetry overflows.
    ([[0.5e308, -0.95e308], [0.95e308, -0.5e308]], "not symmetric"),
])
def test_entries_near_the_float_limit_are_checked_without_warnings(matrix, message):
    with pytest.raises(ValidationError, match=message):
        LaplacianMatrix(matrix)


def test_a_huge_laplacian_with_a_tiny_asymmetry_is_accepted_without_warnings():
    # The squared differences of the entries, about 1e330, overflow unscaled.
    a, b = 1e180, 1e180 * (1.0 + 1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lap = LaplacianMatrix([[a, -a], [-b, b]])
    assert lap.matrix[1, 0] == -b


def test_nonzero_row_sums_rejected():
    with pytest.raises(ValidationError, match="row sums"):
        LaplacianMatrix([[2.0, -1.0], [-1.0, 1.0]])


def test_single_node_graph():
    lap = LaplacianMatrix([[0.0]])
    assert lap.connected
    assert algebraic_connectivity(lap) == 0.0


def test_disconnected_graph_constructs_with_flag():
    lap = laplacian_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert not lap.connected
    assert algebraic_connectivity(lap) == pytest.approx(0.0, abs=1e-12)


def test_connectivity_is_read_from_the_graph():
    # Two unit triangles joined by one edge of weight 1e-12: lambda2 is about
    # 3e-13 of the largest eigenvalue, yet every node is reached.
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
    lap = laplacian_from_edges(6, edges + [(2, 3, 1e-12)])
    assert lap.connected
    assert algebraic_connectivity(lap) < 1e-12 * lap.eigenvalues[-1]
    assert not laplacian_from_edges(6, edges).connected


def test_spectrum_is_computed_once_when_first_read(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    lap = k_regular_ring(12, 2)
    scaled = scale_connectivity(lap, 3.0)
    assert lap.connected and scaled.connected and calls == []
    assert np.array_equal(scaled.eigenvalues, 3.0 * lap.eigenvalues)
    assert lap.eigenvectors is scaled.eigenvectors
    assert calls == [(12, 12)]


def test_repr_shows_lambda2_only_once_the_spectrum_is_computed(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    lap = k_regular_ring(12, 2)
    assert repr(lap) == "LaplacianMatrix(n=12)"
    assert calls == []
    lam2 = algebraic_connectivity(lap)
    assert repr(lap) == f"LaplacianMatrix(n=12, lambda2={lam2:.6g})"
    assert calls == ["eigh"]


def test_scaling_checks_the_scaled_matrix():
    # At 1e-320 the weights are subnormal: w rounds to 607 units of the
    # smallest subnormal, 2w to 1215, so node 1's row sum is one unit.
    lap = laplacian_from_edges(3, [(0, 1, 0.3001), (1, 2, 0.3001)])
    with pytest.raises(ValidationError, match="row sums"):
        scale_connectivity(lap, 1e-320)


# ---------------------------------------------------------------------------
# spectral properties
# ---------------------------------------------------------------------------
# spectral properties

def test_complete_graph_spectrum():
    lap = complete_graph(4)
    assert np.allclose(lap.eigenvalues, [0.0, 4.0, 4.0, 4.0], atol=1e-12)
    assert algebraic_connectivity(complete_graph(7, 2.0)) == pytest.approx(14.0)


def test_eigendecomposition_reconstructs():
    rng = np.random.default_rng(7)
    for n in (2, 5, 9):
        lap = random_connected_laplacian(rng, n)
        V, lam = lap.eigenvectors, lap.eigenvalues
        assert np.allclose(V.T @ V, np.eye(n), atol=1e-10)
        assert np.allclose(V @ np.diag(lam) @ V.T, lap.matrix, atol=1e-9)


def test_first_eigenvector_is_uniform_for_connected_graphs():
    rng = np.random.default_rng(21)
    for n in (2, 6, 11):
        lap = random_connected_laplacian(rng, n)
        assert np.allclose(lap.eigenvectors[:, 0], np.ones(n) / np.sqrt(n),
                           atol=1e-9)


def test_eigenvector_sign_convention_is_deterministic():
    lap1 = complete_graph(5)
    lap2 = complete_graph(5)
    assert np.array_equal(lap1.eigenvectors, lap2.eigenvectors)
    for col in range(5):
        column = lap1.eigenvectors[:, col]
        first = column[np.nonzero(np.abs(column) > 1e-12)[0][0]]
        assert first > 0


def test_ring_matches_circulant_oracle():
    lap = k_regular_ring(20, 3)
    assert algebraic_connectivity(lap) == pytest.approx(
        ring_eigenvalue_oracle(20, 3), abs=1e-9)


def test_small_rings():
    # one neighbour per side on four nodes: the 4-cycle
    lap = k_regular_ring(4, 1)
    assert np.allclose(lap.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-12)
    # two neighbours per side on five nodes covers every pair
    assert np.allclose(k_regular_ring(5, 2).matrix, complete_graph(5).matrix)


def test_invalid_ring_parameters():
    with pytest.raises(InvalidK):
        k_regular_ring(4, 2)
    with pytest.raises(InvalidK):
        k_regular_ring(10, 0)


def test_scaling_scales_spectrum_exactly():
    rng = np.random.default_rng(3)
    lap = random_connected_laplacian(rng, 6)
    scaled = scale_connectivity(lap, 32.0)
    assert np.array_equal(scaled.eigenvalues, 32.0 * lap.eigenvalues)
    assert np.array_equal(scaled.eigenvectors, lap.eigenvectors)
    assert np.allclose(scaled.matrix, 32.0 * lap.matrix)


def test_scale_rejects_nonpositive():
    with pytest.raises(ValidationError):
        scale_connectivity(complete_graph(3), 0.0)


# ---------------------------------------------------------------------------
# grounding

def test_grounded_triangle_equality_case():
    lam, reference, holds = grounded_bound_check(complete_graph(3), {0})
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert reference == pytest.approx(1.0, abs=1e-12)
    assert holds


def test_grounded_index_validation():
    lap = complete_graph(3)
    with pytest.raises(EmptyOrFullIndexSet):
        grounded(lap, set())
    with pytest.raises(EmptyOrFullIndexSet):
        grounded(lap, {0, 1, 2})
    with pytest.raises(IndexOutOfRange):
        grounded(lap, {5})


def test_grounded_share_of_connectivity_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(3, 13))
        lap = random_connected_laplacian(rng, n)
        m = int(rng.integers(1, n))
        removed = rng.choice(n, size=m, replace=False)
        lam, reference, holds = grounded_bound_check(lap, removed)
        assert holds, (lam, reference)
