"""Weighted graph Laplacians whose spectrum is computed on first use.

A :class:`LaplacianMatrix` checks the defining structure (symmetry, zero
row sums, non-positive off-diagonal entries), which makes it positive
semidefinite with the ones vector in its kernel (Gershgorin).  The
eigendecomposition is computed once, when first read; eigenvectors
follow a deterministic sign convention: the first component of each that
exceeds the noise floor is made positive.  Connectivity is read from the
graph, not from the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ValidationError

SYMMETRY_RTOL = 1e-12
ROW_SUM_RTOL = 1e-10
OFF_DIAGONAL_RTOL = 1e-12


class SelfLoop(ValidationError):
    """An edge connects a node to itself."""


class NonPositiveWeight(ValidationError):
    """An edge weight is zero or negative."""


class IndexOutOfRange(ValidationError):
    """An edge endpoint falls outside 0..n-1."""


class InvalidK(ValidationError):
    """Ring coupling range k violates 1 <= k < n/2."""


class EmptyOrFullIndexSet(ValidationError):
    """Grounding must remove a non-empty strict subset of nodes."""


def check_edge(n: int, i: int, j: int, w: float) -> None:
    """Raise the error of the first rule edge ``(i, j, w)`` breaks, if any."""
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRange(f"edge ({i}, {j}) outside 0..{n - 1}")
    if i == j:
        raise SelfLoop(f"self-loop at node {i}")
    if not w > 0.0:
        raise NonPositiveWeight(f"edge ({i}, {j}) has non-positive weight {w}")


def _apply_sign_convention(vectors: np.ndarray) -> np.ndarray:
    above = np.abs(vectors) > 1e-12
    first = vectors[np.argmax(above, axis=0), np.arange(vectors.shape[1])]
    return np.where(above.any(axis=0) & (first < 0), -vectors, vectors)


class LaplacianMatrix:
    """Dense symmetric graph Laplacian; its spectrum is computed on first use."""

    __slots__ = ("matrix", "_spectrum")

    def __init__(self, matrix, *, _spectrum=None):
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ValidationError("Laplacian must be a non-empty square matrix")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("Laplacian entries must be finite")
        # ||L||_inf is twice the largest degree: between rho(L) and 2 rho(L).
        scale = float(np.max(np.abs(mat).sum(axis=1)))
        asymmetry = float(np.linalg.norm(mat - mat.T))
        if asymmetry > SYMMETRY_RTOL * max(scale, 1e-300):
            raise ValidationError(
                f"matrix is not symmetric (deviation {asymmetry:.3e})")
        row_sums = float(np.max(np.abs(mat.sum(axis=1))))
        if row_sums > ROW_SUM_RTOL * scale:
            raise ValidationError(
                f"row sums must vanish (largest {row_sums:.3e})")
        worst_off = float((mat - np.diag(np.diag(mat))).max(initial=0.0))
        if worst_off > OFF_DIAGONAL_RTOL * scale:
            raise ValidationError(
                f"off-diagonal entries must be <= 0 (found {worst_off:.3e})")
        self.matrix = mat
        self.matrix.setflags(write=False)
        self._spectrum = _spectrum  # None (eigh), a function, or the computed pair

    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        if not isinstance(self._spectrum, tuple):
            if self._spectrum is None:
                values, vectors = np.linalg.eigh(0.5 * (self.matrix + self.matrix.T))
                vectors = _apply_sign_convention(vectors)
            else:
                values, vectors = self._spectrum()
            values.setflags(write=False)
            vectors.setflags(write=False)
            self._spectrum = (values, vectors)
        return self._spectrum

    eigenvalues = property(lambda self: self._eigh()[0])
    eigenvectors = property(lambda self: self._eigh()[1])

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def connected(self) -> bool:
        """Whether the edges (negative off-diagonal entries) join every node."""
        adjacency = (self.matrix < 0.0) | (self.matrix.T < 0.0)
        reached = frontier = np.arange(self.n) == 0
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & ~reached
            reached = reached | frontier
        return bool(reached.all())

    def __repr__(self) -> str:
        """Shows ``lambda2`` only once the spectrum has been computed."""
        if not isinstance(self._spectrum, tuple):
            return f"LaplacianMatrix(n={self.n})"
        return f"LaplacianMatrix(n={self.n}, lambda2={algebraic_connectivity(self):.6g})"


@dataclass(frozen=True)
class GroundedLaplacian:
    """Principal submatrix of a Laplacian after removing grounded nodes."""

    matrix: np.ndarray
    kept: tuple[int, ...]
    removed: tuple[int, ...]
    parent_n: int
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues",
                           np.linalg.eigvalsh(self.matrix))

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])


def laplacian_from_edges(n: int, edges: Iterable[tuple[int, int, float]]) -> LaplacianMatrix:
    """Build a Laplacian from weighted undirected edges; duplicates are summed.

    Endpoints convert as ``int`` does and weights as ``float``.  The first
    edge, in edge order, that breaks a rule decides the error.  Each cell
    sums its weights in edge order, so duplicate edges add up as a loop
    over the edges would add them.
    """
    if n < 1:
        raise ValidationError("node count must be positive")
    i, j, w = list(zip(*edges)) or ((), (), ())
    i, j = np.array(i, dtype=np.int64), np.array(j, dtype=np.int64)
    w = np.array(w, dtype=float)
    bad = (i < 0) | (i >= n) | (j < 0) | (j >= n) | (i == j) | ~(w > 0.0)
    if bad.any():
        k = int(np.argmax(bad))
        check_edge(n, int(i[k]), int(j[k]), float(w[k]))
    # bincount adds in input order: cell (i, j), then (j, i), edge by edge.
    cells = np.stack([i * n + j, j * n + i], axis=1).ravel()
    adjacency = np.bincount(cells, np.repeat(w, 2), n * n).reshape(n, n)
    return LaplacianMatrix(np.diag(adjacency.sum(axis=1)) - adjacency)


def complete_graph(n: int, weight: float = 1.0) -> LaplacianMatrix:
    if n < 2:
        raise ValidationError("complete graph needs at least two nodes")
    if not (weight > 0.0):
        raise NonPositiveWeight(f"weight {weight} must be positive")
    mat = -weight * np.ones((n, n))
    np.fill_diagonal(mat, weight * (n - 1))
    return LaplacianMatrix(mat)


def k_regular_ring(n: int, k: int, weight: float = 1.0) -> LaplacianMatrix:
    """Ring of n nodes, each coupled to its k nearest neighbours per side."""
    if not (1 <= k < n / 2):
        raise InvalidK(f"need 1 <= k < n/2, got k={k}, n={n}")
    return laplacian_from_edges(
        n, [(i, (i + d) % n, weight) for i in range(n) for d in range(1, k + 1)])


def algebraic_connectivity(lap: LaplacianMatrix) -> float:
    """Second-smallest Laplacian eigenvalue (0.0 for a single node)."""
    if lap.n == 1:
        return 0.0
    return float(lap.eigenvalues[1])


def scale_connectivity(lap: LaplacianMatrix, alpha: float) -> LaplacianMatrix:
    """Scale all edge weights by alpha > 0; eigenvectors are unchanged."""
    if not (alpha > 0.0):
        raise ValidationError(f"scale factor must be positive, got {alpha}")
    return LaplacianMatrix(
        alpha * lap.matrix,
        _spectrum=lambda: (alpha * lap.eigenvalues, lap.eigenvectors),
    )


def grounded(lap: LaplacianMatrix, removed: Iterable[int]) -> GroundedLaplacian:
    removed_set = {int(i) for i in removed}
    if any(i < 0 or i >= lap.n for i in removed_set):
        raise IndexOutOfRange(f"grounded indices {sorted(removed_set)} out of range")
    if not removed_set or len(removed_set) >= lap.n:
        raise EmptyOrFullIndexSet(
            "grounding removes a non-empty strict subset of nodes")
    kept = tuple(i for i in range(lap.n) if i not in removed_set)
    sub = lap.matrix[np.ix_(kept, kept)]
    return GroundedLaplacian(matrix=np.array(sub), kept=kept,
                             removed=tuple(sorted(removed_set)), parent_n=lap.n)


def grounded_bound_check(lap: LaplacianMatrix, removed: Iterable[int],
                         tol: float = 1e-9) -> tuple[float, float, bool]:
    """Compare the grounded submatrix's smallest eigenvalue to (m/n) lambda2.

    Returns ``(lambda_min, reference, holds)`` where the reference value is
    the removed-fraction share of the algebraic connectivity.
    """
    sub = grounded(lap, removed)
    reference = len(sub.removed) / lap.n * algebraic_connectivity(lap)
    lam = sub.lambda_min
    return lam, reference, lam >= reference - tol
