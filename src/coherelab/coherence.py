"""Frequency-domain coherence of coupled linear dynamical networks.

A network couples ``n`` heterogeneous scalar transfer functions ``g_i``
through a weighted graph Laplacian ``L`` and a scalar coupling filter
``f``.  The closed-loop transfer matrix from nodal inputs to nodal
outputs is

    T(s) = (diag{1/g_i(s)} + f(s) L)^{-1}.

As the effective connectivity ``|f(s)| * lambda_2(L)`` grows, ``T(s)``
concentrates around the rank-one coherent part ``(1/n) gbar(s) 11^T``,
where ``gbar`` is the harmonic mean of the node dynamics.  This module
computes ``T``, the coherent projection, the incoherence (spectral-norm
distance between the two), an a-priori upper bound on that distance,
frequency sweeps, connectivity-scaling studies, and diagnostic checks
for the regimes where coherence is and is not guaranteed.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._parallel import map_ordered
from .errors import NumericalError, ValidationError, IllConditionedWarning, GridRefinementWarning
from .network import LaplacianMatrix, algebraic_connectivity
from .rational import (
    AT_INFINITY,
    DEFAULT_TOL_CANCEL,
    DEFAULT_TOL_ZERO,
    ExtComplex,
    IndeterminateAt,
    Properness,
    RationalTF,
    ZeroFunctionInverse,
    harmonic_mean,
    is_at_infinity,
    poles,
    properness,
    simplify,
    tf_approx_equal,
    tf_eval,
    zeros,
)

import warnings

__all__ = [
    "PoleOfCoupling",
    "NodePole",
    "SingularSystem",
    "PoleOfCoherent",
    "NotAPoleOfCoherent",
    "BoundHypothesisViolated",
    "PoleOnGrid",
    "ZeroOnGrid",
    "UndefinedPointInGrid",
    "HypothesisViolated",
    "DegenerateGamma",
    "AssumptionReport",
    "NetworkModel",
    "FrequencyGrid",
    "CoherenceReport",
    "SweepResult",
    "ConvergenceRow",
    "FailureRow",
    "UniformityVerdict",
    "COND_LIMIT",
    "DEFAULT_TOL_CLASSIFY",
    "transfer_matrix",
    "transfer_matrix_direct",
    "transfer_matrix_modal",
    "gbar_value",
    "coherent_projection",
    "incoherence",
    "effective_connectivity",
    "nodal_multiplicity",
    "lemma4_bound",
    "default_bounds",
    "evaluate_point",
    "sweep",
    "sup_incoherence",
    "convergence_study",
    "coherent_pole_direction",
    "normalized_incoherence",
    "rhp_uniform_check",
    "failure_experiment",
    "report_csv_header",
    "report_csv_row",
]

# Condition-number threshold above which a linear solve is flagged.
COND_LIMIT = 1e12
# Distance below which a probe point is classified as hitting a root.
DEFAULT_TOL_CLASSIFY = 1e-6
# Relative tolerance used when validating bound hypotheses numerically.
_HYPOTHESIS_RTOL = 1e-9
# Relative tolerance for deciding that s0 sits on a pole of gbar.
DEFAULT_TOL_POLE = 1e-8
# Factor by which derived envelope constants exceed the measured suprema.
DEFAULT_MARGIN = 1.05


class PoleOfCoupling(ValidationError):
    """The probe point is a pole of the coupling filter ``f``."""

    def __init__(self, s: complex):
        self.s = complex(s)
        super().__init__(f"coupling filter has a pole at s = {self.s}")


class NodePole(ValidationError):
    """A node transfer function is infinite at the probe point."""

    def __init__(self, s: complex, node: int):
        self.s = complex(s)
        self.node = int(node)
        super().__init__(f"node {node} has a pole at s = {self.s}")


class SingularSystem(NumericalError):
    """The closed-loop system matrix is numerically singular."""

    def __init__(self, s: complex):
        self.s = complex(s)
        super().__init__(f"closed-loop system matrix is singular at s = {self.s}")


class InverseGainOverflow(NumericalError):
    """A node gain is too small for its inverse to be represented."""

    def __init__(self, s: complex, node: int):
        self.s = complex(s)
        self.node = int(node)
        super().__init__(f"1/g_{self.node}(s) overflows at s = {self.s}: the node gain is "
                         "too small to invert")


class PoleOfCoherent(ValidationError):
    """The probe point is a pole of the coherent dynamics ``gbar``."""

    def __init__(self, s: complex):
        self.s = complex(s)
        super().__init__(f"coherent dynamics have a pole at s = {self.s}")


class NotAPoleOfCoherent(ValidationError):
    """The probe point is not a pole of ``gbar`` (required here)."""

    def __init__(self, s: complex):
        self.s = complex(s)
        super().__init__(f"s = {self.s} is not a pole of the coherent dynamics")


class BoundHypothesisViolated(ValidationError):
    """Supplied envelope constants do not dominate the sampled values."""


class PoleOnGrid(ValidationError):
    """A grid point coincides with a pole of ``gbar``."""

    def __init__(self, s: complex):
        self.s = complex(s)
        super().__init__(f"grid point s = {self.s} is a pole of the coherent dynamics")


class ZeroOnGrid(ValidationError):
    """A grid point coincides with a zero of ``gbar``."""

    def __init__(self, s: complex):
        self.s = complex(s)
        super().__init__(f"grid point s = {self.s} is a zero of the coherent dynamics")


class UndefinedPointInGrid(ValidationError):
    """The requested scalar summary is undefined at some grid point."""

    def __init__(self, s: complex, status: str):
        self.s = complex(s)
        self.status = status
        super().__init__(f"incoherence undefined at grid point s = {self.s} ({status})")


class HypothesisViolated(ValidationError):
    """An experiment's structural hypothesis fails for the given network."""


class DegenerateGamma(NumericalError):
    """The coherent-pole direction is numerically indeterminate."""


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    """Structural validation of a network model.

    Hard violations (``ok`` is False): an improper node or coupling
    filter, or a pole of the coupling filter that coincides with a zero
    of some node (the closed loop is not well posed there).  A
    disconnected graph is reported but is only a warning: the model is
    usable, coherence simply cannot be achieved globally.
    """

    improper_nodes: tuple[int, ...]
    coupling_improper: bool
    connected: bool
    coupling_pole_clashes: tuple[tuple[int, complex], ...]

    @property
    def ok(self) -> bool:
        return not self.improper_nodes and not self.coupling_improper and not self.coupling_pole_clashes

    def summary(self) -> str:
        lines: list[str] = []
        for i in self.improper_nodes:
            lines.append(f"violation: node {i} is improper (more zeros than poles)")
        if self.coupling_improper:
            lines.append("violation: coupling filter is improper")
        for i, p in self.coupling_pole_clashes:
            lines.append(f"violation: coupling pole at {p} coincides with a zero of node {i}")
        if not self.connected:
            lines.append("warning: graph is disconnected (algebraic connectivity is zero)")
        if not lines:
            lines.append("ok: all structural assumptions hold")
        return "\n".join(lines)


def _node_tables(nodes: Sequence[RationalTF]) -> tuple[np.ndarray, np.ndarray]:
    """Node numerators and denominators zero-padded to one width, as
    read-only ``(n, d+1)`` arrays, so that every node is evaluated in a
    single Horner pass (see ``_point_values``)."""
    width = max((max(g.num.coeffs.size, g.den.coeffs.size) for g in nodes), default=1)
    num = np.zeros((len(nodes), width))
    den = np.zeros((len(nodes), width))
    for i, g in enumerate(nodes):
        num[i, : g.num.coeffs.size] = g.num.coeffs
        den[i, : g.den.coeffs.size] = g.den.coeffs
    num.setflags(write=False)
    den.setflags(write=False)
    return num, den


class NetworkModel:
    """A graph Laplacian, per-node dynamics, and a scalar coupling filter.

    Every node must be a nonzero function (``ZeroFunctionInverse``
    otherwise), so that each inverse gain ``1/g_i`` exists.  The coherent
    mean is never built here: the probe points evaluate it from the node
    values, and the consumers that need it as a transfer function call
    ``harmonic_mean(net.nodes)``.
    """

    __slots__ = (
        "laplacian",
        "nodes",
        "coupling",
        "assumptions",
        "node_zeros",
        "coupling_poles",
        "_num",
        "_den",
        "_zeros",
        "_zero_owner",
    )

    def __init__(
        self,
        laplacian: LaplacianMatrix,
        nodes: Sequence[RationalTF],
        coupling: RationalTF,
        *,
        tol_cancel: float = DEFAULT_TOL_CANCEL,
    ):
        nodes = tuple(simplify(g, tol_cancel) for g in nodes)
        coupling = simplify(coupling, tol_cancel)
        if len(nodes) != laplacian.n:
            raise ValidationError(
                f"got {len(nodes)} node dynamics for a graph with {laplacian.n} nodes"
            )
        zero_nodes = [i for i, g in enumerate(nodes) if g.num.is_zero]
        if zero_nodes:
            raise ZeroFunctionInverse(f"node {zero_nodes[0]} has identically zero dynamics")
        self.laplacian = laplacian
        self.nodes = nodes
        self.coupling = coupling
        self.node_zeros = tuple(zeros(g) for g in nodes)
        # Every node zero in one array, with the index of the node owning it.
        self._zeros = np.concatenate([np.zeros(0, dtype=complex), *self.node_zeros])
        self._zero_owner = np.repeat(np.arange(len(nodes)), [zs.size for zs in self.node_zeros])
        self.coupling_poles = poles(coupling)
        self._num, self._den = _node_tables(nodes)
        self.assumptions = self._validate()

    @property
    def n(self) -> int:
        return self.laplacian.n

    def _nodes_with_zero_near(self, s: complex, tol: float) -> np.ndarray:
        """Sorted indices of the nodes with a zero within ``tol`` of ``s``."""
        # bincount, not np.unique: the first np.unique call imports numpy.ma.
        return np.flatnonzero(np.bincount(self._zero_owner[np.abs(self._zeros - s) <= tol]))

    def _validate(self) -> AssumptionReport:
        improper = tuple(
            i for i, g in enumerate(self.nodes) if properness(g) is Properness.IMPROPER
        )
        coupling_improper = properness(self.coupling) is Properness.IMPROPER
        clashes = [
            (int(i), complex(p))
            for p in self.coupling_poles
            for i in self._nodes_with_zero_near(p, DEFAULT_TOL_CLASSIFY)
        ]
        return AssumptionReport(
            improper_nodes=improper,
            coupling_improper=coupling_improper,
            connected=self.laplacian.connected,
            coupling_pole_clashes=tuple(clashes),
        )


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrequencyGrid:
    """Probe points ``sigma + j*omega`` along a vertical line."""

    sigma: float
    omegas: np.ndarray
    spacing: str  # "lin" | "log"

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        if om.ndim != 1:
            raise ValidationError("frequencies must form a one-dimensional sequence")
        if not np.all(np.isfinite(om)) or not math.isfinite(self.sigma):
            raise ValidationError("frequency grid values must be finite")
        if om.size > 1 and not np.all(np.diff(om) > 0):
            raise ValidationError("frequencies must be strictly increasing")
        if self.spacing not in ("lin", "log"):
            raise ValidationError(f"spacing must be 'lin' or 'log', got {self.spacing!r}")
        object.__setattr__(self, "omegas", om)

    @classmethod
    def linear(cls, sigma: float, omega_min: float, omega_max: float, points: int) -> "FrequencyGrid":
        if points < 1:
            raise ValidationError("points must be >= 1")
        if points == 1:
            om = np.array([float(omega_min)])
        else:
            if not omega_max > omega_min:
                raise ValidationError("omega_max must exceed omega_min")
            om = np.linspace(omega_min, omega_max, points)
        return cls(float(sigma), om, "lin")

    @classmethod
    def logarithmic(cls, sigma: float, omega_min: float, omega_max: float, points: int) -> "FrequencyGrid":
        if points < 1:
            raise ValidationError("points must be >= 1")
        if omega_min <= 0:
            raise ValidationError("log spacing requires omega_min > 0")
        if points == 1:
            om = np.array([float(omega_min)])
        else:
            if not omega_max > omega_min:
                raise ValidationError("omega_max must exceed omega_min")
            om = np.geomspace(omega_min, omega_max, points)
        return cls(float(sigma), om, "log")

    @property
    def points(self) -> np.ndarray:
        return self.sigma + 1j * self.omegas

    def refined(self) -> "FrequencyGrid":
        """A nested grid with doubled density (midpoints inserted)."""
        om = self.omegas
        if om.size <= 1:
            return self
        if self.spacing == "lin":
            mids = (om[:-1] + om[1:]) / 2.0
        else:
            mids = np.sqrt(om[:-1] * om[1:])
        merged = np.sort(np.concatenate([om, mids]))
        return FrequencyGrid(self.sigma, merged, self.spacing)


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PointValues:
    """The values every frequency-domain quantity is built from at ``s``.

    ``inv`` holds ``1/g_i(s)``, with zeros at the nodes listed in
    ``vanished`` (their gain is zero, so the inverse is infinite);
    ``f`` is the coupling filter value and ``gbar`` the coherent
    dynamics, both possibly ``AT_INFINITY``.  An ``indeterminate`` record
    has a node whose gain is 0/0 at ``s``; its other values mean nothing,
    and every consumer raises ``IndeterminateAt`` on it.
    """

    s: complex
    f: ExtComplex
    inv: np.ndarray
    vanished: tuple[int, ...]
    gbar: ExtComplex
    indeterminate: bool = False

    @property
    def inv_max(self) -> float:
        """``max_i |1/g_i(s)|``; ``inf`` where some gain vanishes."""
        return math.inf if self.vanished else float(np.max(np.abs(self.inv)))


def _coherent_value(inv: np.ndarray, vanished: Sequence[int], tol: float) -> ExtComplex:
    """Harmonic mean ``(mean_i 1/g_i)^{-1}`` of the node gains.

    ``0j`` when some gain vanishes; ``AT_INFINITY`` when the mean of the
    inverses is at most ``tol`` times the mean of their magnitudes.
    """
    if vanished:
        return 0j
    mean = complex(np.sum(inv)) / inv.size
    scale = float(np.sum(np.abs(inv))) / inv.size
    if abs(mean) <= tol * max(scale, 1e-300):
        return AT_INFINITY
    return 1.0 / mean


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Values of every row at every point, ``(K, n)``; ascending
    coefficients along axis 1 of ``coeffs``."""
    acc = np.zeros((z.size, coeffs.shape[0]), dtype=complex)
    z = z[:, None]
    for k in range(coeffs.shape[1] - 1, -1, -1):
        acc = acc * z + coeffs[:, k]
    return acc


def _point_values(
    num_table: np.ndarray,
    den_table: np.ndarray,
    points: Sequence[complex],
    f_vals: Sequence[ExtComplex],
    tol_zero: float,
) -> list[_PointValues]:
    """One record per point for the nodes in ``_node_tables`` form and the
    coupling values ``f_vals``, from one Horner pass over all points.

    A node polynomial counts as vanishing when its value is at most
    ``tol_zero`` times its evaluation envelope ``sum_k |c_k| |s|^k``;
    a point where some node's numerator and denominator both vanish is
    marked ``indeterminate``.
    """
    z = np.asarray(points, dtype=complex).reshape(-1)
    num = _horner(num_table, z)
    den = _horner(den_table, z)
    powers = np.abs(z)[:, None] ** np.arange(num_table.shape[1])
    num_small = np.abs(num) <= tol_zero * np.maximum(powers @ np.abs(num_table).T, 1e-300)
    den_small = np.abs(den) <= tol_zero * np.maximum(powers @ np.abs(den_table).T, 1e-300)
    indeterminate = np.any(num_small & den_small, axis=1)
    finite = ~(num_small | den_small)
    inv = np.zeros(num.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # _check_inverse raises for these
        inv[finite] = den[finite] / num[finite]
    records = []
    for k, (s, f_val) in enumerate(zip(points, f_vals)):
        vanished = tuple(np.flatnonzero(num_small[k]).tolist())
        records.append(_PointValues(s, f_val, inv[k], vanished,
                                    _coherent_value(inv[k], vanished, tol_zero),
                                    bool(indeterminate[k])))
    return records


def _evaluate(net: NetworkModel, s: complex, tol_zero: float) -> _PointValues:
    """Evaluate the coupling filter and all node inverses at ``s``; raises
    ``IndeterminateAt`` where some node gain is 0/0."""
    f_val = tf_eval(net.coupling, s, tol_zero=tol_zero)
    [pt] = _point_values(net._num, net._den, [s], [f_val], tol_zero)
    if pt.indeterminate:
        raise IndeterminateAt(s)
    _check_inverse(pt)
    return pt


def _check_inverse(pt: _PointValues) -> None:
    """Raise ``InverseGainOverflow`` where some ``1/g_i(s)`` is not finite."""
    overflow = np.flatnonzero(~np.isfinite(pt.inv))
    if overflow.size:
        raise InverseGainOverflow(pt.s, overflow[0])


def _transfer(pt: _PointValues, laplacian: np.ndarray) -> tuple[np.ndarray, float]:
    """Closed-loop transfer matrix at the record and its condition estimate
    ``|A|_1 |T|_1``.

    The only place that forms ``A = diag(1/g_i(s)) + f L``.  Nodes with
    vanishing gain pin their outputs to zero: their rows and columns of T
    are zero, and the rest is solved on the grounded Laplacian without them
    (estimate 1 where every gain vanishes).  Raises ``IndeterminateAt`` for
    a record ``_point_values`` marked indeterminate, ``InverseGainOverflow``
    where some ``1/g_i`` is not finite, ``PoleOfCoupling`` where ``f`` is
    infinite and ``SingularSystem`` where A is singular.
    """
    if pt.indeterminate:
        raise IndeterminateAt(pt.s)
    _check_inverse(pt)
    if is_at_infinity(pt.f):
        raise PoleOfCoupling(pt.s)
    kept = np.arange(laplacian.shape[0])
    if pt.vanished:
        kept = np.delete(kept, pt.vanished)
    a = complex(pt.f) * (laplacian[np.ix_(kept, kept)] if pt.vanished else laplacian)
    a[np.diag_indices(kept.size)] += pt.inv[kept]
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(pt.s) from exc
    cond = float(np.linalg.norm(a, 1) * np.linalg.norm(x, 1)) if kept.size else 1.0
    if not pt.vanished:
        return x, cond
    t = np.zeros(laplacian.shape, dtype=complex)
    t[np.ix_(kept, kept)] = x
    return t, cond


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _warn_ill_conditioned(pt: _PointValues, cond: float) -> None:
    """An ``IllConditionedWarning`` where the condition estimate at the record
    exceeds ``COND_LIMIT``, attributed to the first calling frame outside
    the package, however deep inside it the solve ran."""
    if cond > COND_LIMIT:
        frame, stacklevel = sys._getframe(1), 2
        while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
            frame, stacklevel = frame.f_back, stacklevel + 1
        warnings.warn(
            f"transfer-matrix solve at s = {pt.s} has condition estimate {float(cond):.3e}",
            IllConditionedWarning,
            stacklevel=stacklevel,
        )


def _coherent_matrix(gbar: complex, n: int) -> np.ndarray:
    return (gbar / n) * np.ones((n, n), dtype=complex)


# Below this size one full SVD is cheaper than the Golub-Kahan iteration, or
# close to it.  Per norm of a ring network's T on a 2-core x86 VM, BLAS on one
# thread (SVD / Golub-Kahan): n = 50 0.45 / 0.81 ms, n = 100 1.7 / 0.9 ms,
# n = 150 4.7 / 1.0 ms, n = 300 20 / 1.1 ms.
_LANCZOS_MIN_N = 128
# Golub-Kahan steps before the full SVD takes over.
_LANCZOS_MAX_STEPS = 40
# Relative residual at which the top Ritz value is accepted.
_LANCZOS_RTOL = 1e-13


def _svd_norm(t: np.ndarray, shift: complex) -> float:
    """``sigma_max(T - shift/n 11^T)`` from a full SVD of the shifted matrix."""
    x = t - _coherent_matrix(shift, t.shape[0]) if shift else t
    return float(np.linalg.svd(x, compute_uv=False).max())


@functools.lru_cache(maxsize=8)
def _start_vector(n: int) -> np.ndarray:
    """The fixed complex unit vector every Golub-Kahan run of size ``n`` starts from."""
    v = np.array([1.0, 1j]) @ np.random.default_rng(20050101).standard_normal((2, n))
    v /= np.linalg.norm(v)
    v.setflags(write=False)
    return v


def _ritz_certificate(b: np.ndarray, beta: np.ndarray):
    """The top singular value ``sigma`` of each bidiagonal ``B_k`` (the last
    two axes of the stack ``b``) and whether the residual certificate
    ``|beta_k p_k| <= 1e-13 sigma`` accepts it, ``p`` its left singular
    vector; see ``_spectral_norm``."""
    left, sv, _ = np.linalg.svd(b)
    return sv[:, 0], beta * np.abs(left[:, -1, 0]) <= _LANCZOS_RTOL * sv[:, 0]


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``w`` minus its projection on the orthonormal rows of ``basis``
    (classical Gram-Schmidt, applied twice); for ``(K, n)`` rows against a
    ``(K, k, n)`` stack of bases, each row against its own basis.  The
    coefficients ``conj(basis @ conj(w))`` need no conjugated copy of the
    basis and equal ``conj(basis) @ w`` bit for bit."""
    for _ in range(2):
        coef = (basis @ w.conj()[..., None])[..., 0].conj()
        w = w - (coef[..., None, :] @ basis)[..., 0, :]
    return w


def _row_norms(w: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``w``, bit for bit ``np.linalg.norm``
    of the row alone (two real dot products)."""
    re, im = w.real[:, None, :], w.imag[:, None, :]
    return np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])


def _keep_rows(live: np.ndarray, used: int, *stacks: np.ndarray) -> list[np.ndarray]:
    """Each stack's members that ``live`` selects, moved to its front in
    place (their first ``used`` rows only), as views of the front."""
    m = np.count_nonzero(live)
    for x in stacks:
        x[:m, :used] = x[live, :used]
    return [x[:m] for x in stacks]


def _grown(x: np.ndarray, shape: tuple, alloc=np.empty) -> np.ndarray:
    """An ``alloc``-ed array of ``shape`` whose leading block is ``x``."""
    new = alloc(shape, dtype=x.dtype)
    new[tuple(map(slice, x.shape))] = x
    return new


def _golub_kahan_norms(apply, adjoint, count: int, n: int) -> np.ndarray:
    """``sigma_max`` of ``count`` operators ``X_j`` on ``C^n`` by
    Golub-Kahan-Lanczos bidiagonalization (see ``_spectral_norm``), NaN for
    each operator without a certificate, whose full SVD the caller takes.

    The operators are seen only through products: ``apply(idx, V)`` returns
    the rows ``X_{idx[r]} V[r]`` and ``adjoint(idx, U)`` the rows
    ``X_{idx[r]}^H U[r]``, ``idx`` listing the operators still iterating.
    Every operator starts from the same vector and takes the steps it
    would take alone; it leaves the batch when it is certified or has
    failed.  The Krylov bases take at most ``16 n (2 _LANCZOS_MAX_STEPS +
    1)`` bytes per operator: they start with room for four steps, which
    grows by half whenever the iteration needs more, so a batch certified
    in a few steps holds bases of a few steps.
    """
    steps = _LANCZOS_MAX_STEPS
    sigma = np.full(count, np.nan)
    idx = np.arange(count)
    # Room for four steps.  B_k = b[:, :k+1, :k+1], upper bidiagonal: alpha_j
    # on the diagonal and beta_j at [j, j+1], so beta_k sits just outside B_k.
    v = np.empty((count, 5, n), dtype=complex)
    u = np.empty((count, 4, n), dtype=complex)
    b = np.zeros((count, 4, 5))
    v[:, 0] = _start_vector(n)
    with np.errstate(all="ignore"):  # a non-finite operator goes to the SVD, silently
        w = apply(idx, v[:, 0])
    alpha = _row_norms(w)
    live = (0.0 < alpha) & (alpha < math.inf)
    for k in range(steps):
        kept = np.count_nonzero(live)
        if not kept:
            break
        if kept < idx.size:
            idx, w, alpha = idx[live], w[live], alpha[live]
            v, u, b = _keep_rows(live, k + 1, v, u, b)
        if k == u.shape[1]:
            # Each stack is replaced in turn, so the old ones do not all
            # stay alive beside the new ones.
            room = min(k + k // 2, steps)
            v = _grown(v, (kept, room + 1, n))
            u = _grown(u, (kept, room, n))
            b = _grown(b, (kept, room, room + 1), np.zeros)
        b[:, k, k] = alpha
        u[:, k] = w / alpha[:, None]
        w = adjoint(idx, u[:, k]) - alpha[:, None] * v[:, k]
        w = _orthogonalize(w, v[:, : k + 1])
        beta = b[:, k, k + 1] = _row_norms(w)
        top, done = _ritz_certificate(b[:, : k + 1, : k + 1], beta)
        sigma[idx[done]] = top[done]
        live = ~done & (beta < math.inf)
        kept = np.count_nonzero(live)
        if k + 1 == steps or not kept:
            break
        if kept < idx.size:
            idx, w, beta = idx[live], w[live], beta[live]
            v, u, b = _keep_rows(live, k + 1, v, u, b)
        v[:, k + 1] = w / beta[:, None]
        w = apply(idx, v[:, k + 1]) - beta[:, None] * u[:, k]
        w = _orthogonalize(w, u[:, : k + 1])
        alpha = _row_norms(w)
        exact = alpha == 0.0
        if exact.any():
            # X V_{k+2} = U_{k+1} [B_k, beta_k e_k] and its adjoint hold
            # exactly: the singular values of that block are X's.
            block = b[exact, : k + 1, : k + 2]
            sigma[idx[exact]] = np.linalg.svd(block, compute_uv=False)[:, 0]
        live = ~exact & (alpha < math.inf)
    return sigma


def _spectral_norm(t: np.ndarray, shift: complex = 0) -> float:
    """Largest singular value of ``X = T - shift/n 11^T`` for one n x n
    matrix ``T``.

    Below ``_LANCZOS_MIN_N`` this is a full SVD.  Above it, the shifted
    matrix is never formed: Golub-Kahan-Lanczos bidiagonalization with
    full reorthogonalization (Golub & Kahan 1965) builds orthonormal
    ``U_k``, ``V_k`` and an upper bidiagonal ``B_k`` with ``X V_k = U_k B_k`` and
    ``X^H U_k = V_k B_k^H + beta_k v_{k+1} e_k^T``, from a fixed seeded
    start vector, so the result does not depend on threads or call order.
    The top singular triplet ``(sigma, p, q)`` of ``B_k`` gives unit
    vectors ``U_k p``, ``V_k q`` with ``X V_k q = sigma U_k p`` and
    ``|X^H U_k p - sigma V_k q| = |beta_k p_k|``.

    *Lower bound.*  ``B_k = U_k^H X V_k`` is a compression of ``X``, so
    ``sigma <= sigma_max(X)``.  *Certificate.*  The residual puts a
    singular value of ``X`` within ``|beta_k p_k|`` of ``sigma``; the
    iteration stops once that is at most ``1e-13 sigma``.  The top Ritz
    value climbs towards ``sigma_max`` unless the start vector is nearly
    orthogonal to the top right singular vector, which a fixed random
    start makes improbable; so the value returned is a lower bound that
    lies within 1e-13 relative of ``sigma_max``.  An exact breakdown
    (``beta_k`` or ``alpha_{k+1}`` zero) means the Krylov spaces are
    invariant and the Ritz values are exact singular values.  A zero
    ``X v_1`` (the zero matrix among others), a non-finite value, or no
    certificate after ``_LANCZOS_MAX_STEPS`` steps (a tight cluster at
    the top of the spectrum) falls back to the full SVD.

    The products ``T v`` and ``shift/n (sum v)`` each carry a rounding
    error of order ``eps |T|``, so where ``X`` is far smaller than ``T``
    (strong coupling) the value agrees with the SVD of the formed
    matrix to ``eps |T|`` absolute; the solve that produced ``T`` leaves
    larger errors than that in it.
    """
    n = t.shape[0]
    if n < _LANCZOS_MIN_N:
        return _svd_norm(t, shift)
    c = shift / n
    c_conj = np.conj(c)

    def apply(_, v):
        return (t @ v[0] - c * v[0].sum())[None]

    def adjoint(_, u):
        # X^H u = conj(conj(u) @ T) - conj(c) (sum u) 1
        return ((u[0].conj() @ t).conj() - c_conj * u[0].sum())[None]

    sigma = float(_golub_kahan_norms(apply, adjoint, 1, n)[0])
    return _svd_norm(t, shift) if math.isnan(sigma) else sigma


def transfer_matrix(net: NetworkModel, s: complex) -> np.ndarray:
    """Closed-loop transfer matrix T(s) of the coupled network.

    Solves ``(diag{1/g_i(s)} + f(s) L) T = I``.  Nodes whose gain
    vanishes at ``s`` have identically zero rows and columns; the rest
    of the matrix comes from the correspondingly grounded graph.  Emits
    ``IllConditionedWarning`` when the solve's condition estimate
    exceeds ``COND_LIMIT``.
    """
    pt = _evaluate(net, s, DEFAULT_TOL_ZERO)
    t, cond = _transfer(pt, net.laplacian.matrix)
    _warn_ill_conditioned(pt, cond)
    return t


def transfer_matrix_direct(net: NetworkModel, s: complex) -> np.ndarray:
    """Reference evaluation ``(I + G(s) f(s) L)^{-1} G(s)``.

    Requires every node gain to be finite at ``s`` (raises ``NodePole``
    otherwise); algebraically identical to ``transfer_matrix`` wherever
    both are defined, and kept as an independent cross-check.
    """
    f_val = tf_eval(net.coupling, s)
    if is_at_infinity(f_val):
        raise PoleOfCoupling(s)
    gains = np.zeros(net.n, dtype=complex)
    for i, g in enumerate(net.nodes):
        v = tf_eval(g, s)
        if is_at_infinity(v):
            raise NodePole(s, i)
        gains[i] = v
    g_mat = np.diag(gains)
    a = np.eye(net.n, dtype=complex) + g_mat @ (f_val * net.laplacian.matrix.astype(complex))
    try:
        return np.linalg.solve(a, g_mat)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(s) from exc


def transfer_matrix_modal(net: NetworkModel, s: complex) -> np.ndarray:
    """Eigenbasis evaluation for identical node dynamics.

    With every node equal to ``g``, the closed loop diagonalizes in the
    Laplacian eigenbasis: ``T(s) = sum_k v_k v_k^T / (1/g(s) + f(s) lambda_k)``.
    Raises ``ValidationError`` for heterogeneous networks; used as an
    independent oracle for the linear-solve path.
    """
    if not all(tf_approx_equal(g, net.nodes[0]) for g in net.nodes[1:]):
        raise ValidationError("eigenbasis evaluation requires identical node dynamics")
    pt = _evaluate(net, s, DEFAULT_TOL_ZERO)
    if is_at_infinity(pt.f):
        raise PoleOfCoupling(s)
    lam = net.laplacian.eigenvalues
    vecs = net.laplacian.eigenvectors
    if 0 in pt.vanished:
        return np.zeros((net.n, net.n), dtype=complex)
    denoms = pt.inv[0] + pt.f * lam
    if np.any(np.abs(denoms) == 0.0):
        raise SingularSystem(s)
    return (vecs * (1.0 / denoms)) @ vecs.T


def gbar_value(net: NetworkModel, s: complex) -> ExtComplex:
    """Point value of the coherent dynamics: harmonic mean of node gains.

    Returns ``AT_INFINITY`` at poles of the mean and ``0j`` wherever any
    node gain vanishes.  Works point-wise, so it never needs the symbolic
    mean (which can be expensive for large heterogeneous networks).
    """
    return _evaluate(net, s, DEFAULT_TOL_ZERO).gbar


def coherent_projection(net: NetworkModel, s: complex) -> np.ndarray:
    """Rank-one coherent part ``(1/n) gbar(s) 11^T``."""
    v = gbar_value(net, s)
    if is_at_infinity(v):
        raise PoleOfCoherent(s)
    return _coherent_matrix(v, net.n)


def incoherence(net: NetworkModel, s: complex) -> float:
    """Spectral-norm distance between T(s) and its coherent part.

    Emits ``IllConditionedWarning`` as ``transfer_matrix`` does.
    """
    pt = _evaluate(net, s, DEFAULT_TOL_ZERO)
    if is_at_infinity(pt.gbar):
        raise PoleOfCoherent(s)
    t, cond = _transfer(pt, net.laplacian.matrix)
    _warn_ill_conditioned(pt, cond)
    return _spectral_norm(t, pt.gbar)


def _effective_connectivity(f_val: ExtComplex, lam2: float) -> float:
    return math.inf if is_at_infinity(f_val) else abs(f_val) * lam2


def effective_connectivity(net: NetworkModel, s: complex) -> float:
    """|f(s)| times the algebraic connectivity; ``inf`` at poles of f."""
    return _effective_connectivity(_evaluate(net, s, DEFAULT_TOL_ZERO).f,
                                   algebraic_connectivity(net.laplacian))


def _near_coupling_pole(net: NetworkModel, s: complex, tol: float) -> bool:
    """Whether ``s`` lies within ``tol`` of a pole of the coupling filter."""
    return bool(net.coupling_poles.size) and float(np.min(np.abs(net.coupling_poles - s))) <= tol


def nodal_multiplicity(net: NetworkModel, s: complex, *, tol: float = DEFAULT_TOL_CLASSIFY) -> int:
    """Number of nodes whose gain vanishes at ``s`` (zero within ``tol``)."""
    return int(net._nodes_with_zero_near(s, tol).size)


# ---------------------------------------------------------------------------
# Bound
# ---------------------------------------------------------------------------


def _envelope_bound(pt: _PointValues, lam2: float, m1: float, m2: float) -> float | None:
    """``lemma4_bound`` on already evaluated values, for connectivity ``lam2``."""
    s = pt.s
    if not (m1 > 0 and m2 > 0):
        raise ValidationError("envelope constants must be positive")
    if is_at_infinity(pt.f):
        raise PoleOfCoupling(s)
    if is_at_infinity(pt.gbar):
        raise BoundHypothesisViolated(
            f"coherent dynamics are infinite at s = {s}; no finite envelope applies"
        )
    if abs(pt.gbar) > m1 * (1.0 + _HYPOTHESIS_RTOL):
        raise BoundHypothesisViolated(
            f"|gbar({s})| = {abs(pt.gbar):.6g} exceeds the envelope m1 = {m1:.6g}"
        )
    if pt.vanished:
        raise BoundHypothesisViolated(
            f"node {pt.vanished[0]} gain vanishes at s = {s}; inverse gains unbounded"
        )
    if pt.inv_max > m2 * (1.0 + _HYPOTHESIS_RTOL):
        raise BoundHypothesisViolated(
            f"max_i |1/g_i({s})| = {pt.inv_max:.6g} exceeds the envelope m2 = {m2:.6g}"
        )
    denom = abs(pt.f) * lam2 - m2 - m1 * m2 * m2
    if denom <= 0.0:
        return None
    return (m1 * m2 + 1.0) ** 2 / denom


def lemma4_bound(
    net: NetworkModel,
    s: complex,
    m1: float,
    m2: float,
    *,
    tol_zero: float = DEFAULT_TOL_ZERO,
) -> float | None:
    """A-priori incoherence bound from envelope constants.

    With ``m1 >= |gbar(s)|`` and ``m2 >= max_i |1/g_i(s)|`` the
    incoherence at ``s`` is at most

        (m1 m2 + 1)^2 / (|f(s)| lambda_2 - m2 - m1 m2^2)

    whenever the denominator is positive; returns ``None`` (not
    applicable) otherwise.  The two envelope hypotheses are validated
    numerically and ``BoundHypothesisViolated`` is raised when they
    fail at ``s``.
    """
    return _envelope_bound(
        _evaluate(net, s, tol_zero), algebraic_connectivity(net.laplacian), m1, m2
    )


def _check_margin(margin: float) -> None:
    if not margin >= 1.0:
        raise ValidationError("margin must be >= 1")


def default_bounds(
    net: NetworkModel,
    grid: FrequencyGrid,
    *,
    margin: float = DEFAULT_MARGIN,
) -> tuple[float, float]:
    """Envelope constants from a frequency sweep, inflated by ``margin``.

    ``m1`` dominates ``|gbar|`` and ``m2`` dominates ``max_i |1/g_i|``
    over the grid.  Raises ``PoleOnGrid``/``ZeroOnGrid`` when a grid
    point makes one of the suprema infinite.
    """
    _check_margin(margin)
    pts = []
    for s in grid.points:
        pt = _evaluate(net, complex(s), DEFAULT_TOL_ZERO)
        if is_at_infinity(pt.gbar):
            raise PoleOnGrid(complex(s))
        if pt.vanished:
            raise ZeroOnGrid(complex(s))
        pts.append(pt)
    m1, m2 = _envelopes(pts, margin)
    if m1 is None:
        raise ValidationError("degenerate envelopes: node gains vanish identically on the grid")
    return m1, m2


def _envelopes(pts: Sequence[_PointValues], margin: float) -> tuple[float | None, float | None]:
    """Envelope constants over the clean records (``gbar`` finite and
    nonzero, no vanished gain): ``margin`` times the suprema of ``|gbar|``
    and of ``max_i |1/g_i|``, or ``(None, None)`` where either is zero."""
    clean = [pt for pt in pts if not is_at_infinity(pt.gbar) and pt.gbar != 0 and not pt.vanished]
    sup_g = max((abs(pt.gbar) for pt in clean), default=0.0)
    sup_inv = max((pt.inv_max for pt in clean), default=0.0)
    if sup_g > 0.0 and sup_inv > 0.0:
        return margin * sup_g, margin * sup_inv
    return None, None


# ---------------------------------------------------------------------------
# Reports and sweeps
# ---------------------------------------------------------------------------

STATUS_OK = "ok"
STATUS_POLE_F = "pole_f"
STATUS_POLE_GBAR = "pole_gbar"
STATUS_ZERO_GBAR = "zero_gbar"
STATUS_ILL_CONDITIONED = "ill_conditioned"


@dataclass(frozen=True)
class CoherenceReport:
    """Everything measured at one probe point.

    ``incoherence`` and ``bound`` are ``None`` where undefined or not
    applicable; ``effective_connectivity`` is ``inf`` at poles of the
    coupling filter.  ``norm_transfer`` is reported whenever the
    transfer matrix itself exists (in particular at poles of the
    coherent mean, where the incoherence is undefined but ``|T|``
    remains informative).
    """

    s0: complex
    status: str
    gbar: complex | None
    incoherence: float | None
    bound: float | None
    effective_connectivity: float
    norm_transfer: float | None
    multiplicity: int
    transfer: np.ndarray | None = field(repr=False, default=None)


@dataclass(frozen=True)
class SweepResult:
    grid: FrequencyGrid
    reports: tuple[CoherenceReport, ...]
    m1: float | None
    m2: float | None

    def sup_incoherence(self) -> float:
        sup = 0.0
        for r in self.reports:
            if r.incoherence is None:
                raise UndefinedPointInGrid(r.s0, r.status)
            sup = max(sup, r.incoherence)
        return sup


def _probe_records(net: NetworkModel, points: Sequence[complex], tol_zero: float,
                   tol_classify: float) -> list[tuple[_PointValues, bool]]:
    """The values at each probe point and whether it lies within
    ``tol_classify`` of a coupling pole.  Evaluation errors and
    ``PoleOfCoupling`` (``f`` infinite off those poles) are raised here,
    for the first point that has one, before any point is solved."""
    records = []
    for s in points:
        pt = _evaluate(net, s, tol_zero)
        pole_f = _near_coupling_pole(net, s, tol_classify)
        if not pole_f and is_at_infinity(pt.f):
            raise PoleOfCoupling(s)
        records.append((pt, pole_f))
    return records


def _point_report(net: NetworkModel, lam2: float, pt: _PointValues, pole_f: bool,
                  m1: float | None, m2: float | None, *, tol_classify: float,
                  keep_transfer: bool) -> CoherenceReport:
    """The complete report at one probe point of a network with algebraic
    connectivity ``lam2``, with the bound from the envelope constants
    ``m1``, ``m2`` (none where either is ``None``).

    A point on a coupling pole is not solved.  Elsewhere both norms are
    taken here, so that a sweep holds no n x n matrix beyond the points
    being evaluated; T itself is kept only on request.
    """
    multiplicity = nodal_multiplicity(net, pt.s, tol=tol_classify)
    eff = _effective_connectivity(pt.f, lam2)
    if pole_f:
        return CoherenceReport(complex(pt.s), STATUS_POLE_F, None, None, None, eff, None,
                               multiplicity)
    try:
        t, cond = _transfer(pt, net.laplacian.matrix)
    except SingularSystem:
        # A pole of the closed loop itself: T does not exist there.  The
        # point is still classified (it typically coincides with a pole
        # of the coherent mean) instead of aborting a whole sweep.
        t, cond = None, math.inf
    if is_at_infinity(pt.gbar):
        status = STATUS_POLE_GBAR
    elif pt.gbar == 0:
        status = STATUS_ZERO_GBAR
    elif cond > COND_LIMIT:
        status = STATUS_ILL_CONDITIONED
    else:
        status = STATUS_OK
    norm_t = inc = bound = None
    if t is not None:
        norm_t = _spectral_norm(t)
        if status != STATUS_POLE_GBAR:
            inc = _spectral_norm(t, complex(pt.gbar))
            if m1 is not None and m2 is not None:
                try:
                    bound = _envelope_bound(pt, lam2, m1, m2)
                except BoundHypothesisViolated:
                    bound = None
    return CoherenceReport(
        s0=complex(pt.s),
        status=status,
        gbar=None if is_at_infinity(pt.gbar) else complex(pt.gbar),
        incoherence=inc,
        bound=bound,
        effective_connectivity=eff,
        norm_transfer=norm_t,
        multiplicity=multiplicity,
        transfer=t if keep_transfer else None,
    )


def evaluate_point(
    net: NetworkModel,
    s: complex,
    *,
    m1: float | None = None,
    m2: float | None = None,
    tol_zero: float = DEFAULT_TOL_ZERO,
    tol_classify: float = DEFAULT_TOL_CLASSIFY,
    keep_transfer: bool = True,
) -> CoherenceReport:
    """Full coherence report at one probe point.

    When envelope constants are omitted they are derived from this
    single point (so the reported bound is the tightest this form
    offers there).  Bound hypotheses that fail merely leave the bound
    empty; structural problems (poles of the coupling filter) surface
    in ``status`` rather than raising.
    """
    [(pt, pole_f)] = _probe_records(net, [s], tol_zero, tol_classify)
    if m1 is None and m2 is None:
        m1, m2 = _envelopes([] if pole_f else [pt], DEFAULT_MARGIN)
    return _point_report(net, algebraic_connectivity(net.laplacian), pt, pole_f, m1, m2,
                         tol_classify=tol_classify, keep_transfer=keep_transfer)


def sweep(
    net: NetworkModel,
    grid: FrequencyGrid,
    *,
    with_bounds: bool = True,
    margin: float = DEFAULT_MARGIN,
    tol_zero: float = DEFAULT_TOL_ZERO,
    tol_classify: float = DEFAULT_TOL_CLASSIFY,
) -> SweepResult:
    """Coherence reports over a frequency grid.

    Never fails on individual points: poles of the coupling filter or
    of the coherent mean, vanishing node gains, and ill-conditioned
    solves are all recorded in each report's ``status``.  Envelope
    constants for the bound column are derived from the clean subset of
    the grid (off coupling poles, where both envelopes are finite and
    nonzero), inflated by ``margin``, before any point is solved.
    """
    if with_bounds:
        _check_margin(margin)
    records = _probe_records(net, [complex(s) for s in grid.points], tol_zero, tol_classify)
    clean = [pt for pt, pole_f in records if not pole_f]
    m1, m2 = _envelopes(clean, margin) if with_bounds else (None, None)
    lam2 = algebraic_connectivity(net.laplacian)  # once, not in each worker
    reports = map_ordered(
        lambda rec: _point_report(net, lam2, *rec, m1, m2, tol_classify=tol_classify,
                                  keep_transfer=False),
        records,
    )
    return SweepResult(grid=grid, reports=tuple(reports), m1=m1, m2=m2)


def sup_incoherence(
    net: NetworkModel,
    grid: FrequencyGrid,
    *,
    refine_check: bool = True,
) -> float:
    """Largest incoherence over the grid.

    Raises ``UndefinedPointInGrid`` when the incoherence is undefined at
    some grid point.  With ``refine_check`` the grid is re-evaluated at
    doubled density; if the supremum grows by more than 5% (relative), a
    ``GridRefinementWarning`` flags the grid as too coarse.
    """
    result = sweep(net, grid, with_bounds=False)
    sup = result.sup_incoherence()
    if refine_check and grid.omegas.size > 1:
        fine = sweep(net, grid.refined(), with_bounds=False)
        sup_fine = fine.sup_incoherence()
        if sup_fine > sup * 1.05 and sup_fine - sup > 1e-15:
            warnings.warn(
                f"doubling the grid density raised the supremum from {sup:.6g} "
                f"to {sup_fine:.6g} (> 5%); the grid is too coarse",
                GridRefinementWarning,
                stacklevel=2,
            )
    return sup


# ---------------------------------------------------------------------------
# Connectivity-scaling study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    alpha: float
    value: float
    bound: float | None
    kind: str  # "incoherence" | "norm_T"


def convergence_study(
    net: NetworkModel,
    s: complex,
    alphas: Sequence[float],
    *,
    tol_zero: float = DEFAULT_TOL_ZERO,
    tol_classify: float = DEFAULT_TOL_CLASSIFY,
) -> list[ConvergenceRow]:
    """Incoherence versus uniformly scaled coupling strength.

    Evaluates the network on ``alpha * L`` for each multiplier.  At
    poles of the coherent mean the incoherence is undefined, so the
    study reports ``|T|`` there instead (kind ``norm_T``); the decay
    rate in the connectivity is the same.  Envelope constants for the
    bound column come from the probe point itself and are shared across
    all multipliers (they do not depend on the graph).  Emits
    ``IllConditionedWarning`` per multiplier, in multiplier order, as
    ``transfer_matrix`` does.
    """
    if not alphas:
        raise ValidationError("need at least one multiplier")
    alphas = sorted(float(a) for a in alphas)
    if any(a <= 0 for a in alphas):
        raise ValidationError("multipliers must be positive")
    if _near_coupling_pole(net, s, tol_classify):
        raise PoleOfCoupling(s)
    pt = _evaluate(net, s, tol_zero)
    kind = "norm_T" if is_at_infinity(pt.gbar) else "incoherence"
    m1, m2 = _envelopes([pt], DEFAULT_MARGIN)
    lam2 = algebraic_connectivity(net.laplacian)

    def one(alpha: float) -> tuple[ConvergenceRow, float]:
        try:
            t, cond = _transfer(pt, alpha * net.laplacian.matrix)
        except SingularSystem:
            if kind == "norm_T":
                return ConvergenceRow(alpha, math.inf, None, kind), 1.0
            raise
        if kind == "norm_T":
            return ConvergenceRow(alpha, _spectral_norm(t), None, kind), cond
        value = _spectral_norm(t, pt.gbar)
        bound = None
        if m1 is not None and m2 is not None:
            try:
                bound = _envelope_bound(pt, alpha * lam2, m1, m2)
            except BoundHypothesisViolated:
                bound = None
        return ConvergenceRow(alpha, value, bound, kind), cond

    # Warned here, not in ``one``: a warning raised in a pool thread would
    # be attributed to concurrent.futures.
    results = map_ordered(one, alphas)
    for _, cond in results:
        _warn_ill_conditioned(pt, cond)
    return [row for row, _ in results]


# ---------------------------------------------------------------------------
# Behaviour at poles of the coherent mean
# ---------------------------------------------------------------------------


def _pole_direction_data(
    net: NetworkModel,
    s: complex,
    lambda_lim: Sequence[float] | None,
) -> tuple[complex, complex, _PointValues]:
    """Shared core for the coherent-pole direction.

    Returns ``(gamma, direction, pt)`` where ``gamma`` is the reported
    unit-modulus coefficient ``y/|y|`` with
    ``y = h21^T diag(1/lambda_lim) h21`` (no conjugation: the bilinear
    form follows the transpose), and ``direction`` is the unit complex
    number such that ``T/|T| -> direction * 11^T/n`` as the pole is
    approached, namely ``-(f/|f|) * conj(y)/|y|``; ``pt`` holds the
    values at ``s`` both were computed from.
    """
    n = net.n
    if n < 2:
        raise ValidationError("pole direction needs at least two nodes")
    pt = _evaluate(net, s, DEFAULT_TOL_ZERO)
    if not is_at_infinity(_coherent_value(pt.inv, pt.vanished, DEFAULT_TOL_POLE)):
        raise NotAPoleOfCoherent(s)
    f_val = pt.f
    if is_at_infinity(f_val):
        raise PoleOfCoupling(s)
    if f_val == 0:
        raise ValidationError(f"coupling filter vanishes at s = {s}; nodes are decoupled there")
    lam = net.laplacian.eigenvalues[1:]
    vecs = net.laplacian.eigenvectors[:, 1:]
    if lambda_lim is None:
        lam2 = algebraic_connectivity(net.laplacian)
        if lam2 <= 0.0:
            raise ValidationError("pole direction requires a connected graph")
        weights = lam / lam2
    else:
        weights = np.asarray([float(w) for w in lambda_lim], dtype=float)
        if weights.shape != (n - 1,):
            raise ValidationError(
                f"lambda_lim must supply {n - 1} positive values, got shape {weights.shape}"
            )
        if np.any(weights <= 0.0):
            raise ValidationError("lambda_lim values must be positive")
    h21 = vecs.T @ (pt.inv / math.sqrt(n))
    y = complex(np.sum(h21 * h21 / weights))
    y_scale = float(np.sum(np.abs(h21) ** 2 / weights))
    if abs(y) <= 1e-12 * max(y_scale, 1e-300):
        raise DegenerateGamma(
            f"the limiting quadratic form at s = {s} has negligible magnitude"
        )
    gamma = y / abs(y)
    f_phase = complex(f_val) / abs(f_val)
    direction = -f_phase * gamma.conjugate()
    return gamma, direction, pt


def coherent_pole_direction(
    net: NetworkModel,
    s: complex,
    *,
    lambda_lim: Sequence[float] | None = None,
) -> complex:
    """Unit-modulus coefficient gamma of the limiting rank-one shape.

    At a pole of the coherent mean, ``T(s)/|T(s)|`` approaches a scalar
    multiple of ``11^T/n``; ``gamma = y/|y|`` with
    ``y = h21^T diag(1/lambda_lim) h21`` determines that scalar, where
    ``h21`` collects the inverse gains projected on the non-uniform
    eigenvectors.  ``lambda_lim`` defaults to the positive Laplacian
    eigenvalues divided by the smallest one.
    """
    gamma, _, _ = _pole_direction_data(net, s, lambda_lim)
    return gamma


def normalized_incoherence(net: NetworkModel, s: complex) -> float:
    """Shape distance between T and the limiting rank-one profile.

    Valid only at poles of the coherent mean (``NotAPoleOfCoherent``
    otherwise).  Measures ``| T/|T| - c 11^T/n |`` where ``c`` is the
    unit-modulus limit direction of ``coherent_pole_direction``; decays
    as connectivity grows even though the raw incoherence is undefined at
    such points.  Emits ``IllConditionedWarning`` as ``transfer_matrix``
    does.
    """
    _, direction, pt = _pole_direction_data(net, s, None)
    t, cond = _transfer(pt, net.laplacian.matrix)
    _warn_ill_conditioned(pt, cond)
    norm_t = _spectral_norm(t)
    if norm_t == 0.0:
        raise DegenerateGamma(f"transfer matrix vanishes at s = {s}")
    return _spectral_norm(t, direction * norm_t) / norm_t


# ---------------------------------------------------------------------------
# Eligibility for uniform closed-right-half-plane coherence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformityVerdict:
    eligible: bool
    reason: str | None = None

    def __str__(self) -> str:
        if self.eligible:
            return "eligible: uniform right-half-plane coherence guarantees apply"
        return f"ineligible: {self.reason}"


def rhp_uniform_check(net: NetworkModel) -> UniformityVerdict:
    """Checks the structural conditions for coherence that is uniform
    over the closed right half-plane (not just point-wise):

    - every node is proper but not strictly proper (finite nonzero
      high-frequency gain),
    - the coherent mean is stable (every pole has real part below
      ``-1e-9 (1 + max |pole|)``),
    - no point of the closed right half-plane is a zero of two or more
      nodes (zeros within ``DEFAULT_TOL_CLASSIFY``; shared
      right-half-plane zeros defeat uniformity).

    The poles come from the symbolic ``harmonic_mean`` of the nodes, whose
    ``ExcessiveDegree`` and ``DegenerateMean`` propagate.
    """
    for i, g in enumerate(net.nodes):
        if properness(g) is Properness.STRICTLY_PROPER:
            return UniformityVerdict(False, f"node {i} is strictly proper (gain vanishes at high frequency)")
        if properness(g) is Properness.IMPROPER:
            return UniformityVerdict(False, f"node {i} is improper")
    gbar_poles = poles(harmonic_mean(net.nodes))
    pole_scale = 1.0 + float(np.max(np.abs(gbar_poles))) if gbar_poles.size else 1.0
    for p in gbar_poles:
        if p.real >= -1e-9 * pole_scale:
            return UniformityVerdict(
                False, f"coherent mean has a pole at {complex(p)} (not strictly stable)"
            )
    for z in net._zeros[net._zeros.real >= -DEFAULT_TOL_CLASSIFY]:
        if nodal_multiplicity(net, z) >= 2:
            return UniformityVerdict(
                False, f"multiple nodes share a right-half-plane zero near {complex(z)}"
            )
    return UniformityVerdict(True)


# ---------------------------------------------------------------------------
# Failure experiment: shared zeros defeat uniform coherence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FailureRow:
    alpha: float
    sup_value: float
    argmax: complex


def _gain_linearization_scale(net: NetworkModel, z: complex) -> np.ndarray:
    """|g_i(z)| per node, replaced by |g_i'(z)| at nodes vanishing there.

    Near a shared zero ``z`` the node gains behave like their first
    nonvanishing Taylor term; these magnitudes weight the graph when
    locating where the closed loop loses coherence.
    """
    point = np.array([z], dtype=complex)
    num = _horner(net._num, point)[0]
    den = _horner(net._den, point)[0]
    vanishing = net._nodes_with_zero_near(z, DEFAULT_TOL_CLASSIFY)
    derivative = net._num[vanishing, 1:] * np.arange(1, net._num.shape[1])
    num[vanishing] = _horner(derivative, point)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.abs(num / den)
    return np.where((den != 0) & (mag > 0.0), mag, 1.0)


def failure_experiment(
    net: NetworkModel,
    z: complex,
    radius: float,
    alphas: Sequence[float],
    *,
    expect_shared: bool = True,
) -> list[FailureRow]:
    """Sup of the incoherence on a disk around ``z`` versus coupling scale.

    When every node gain vanishes at ``z`` (``expect_shared=True``,
    validated, else ``HypothesisViolated``), the supremum stays bounded
    away from zero no matter how strong the coupling: the obstruction
    migrates toward ``z`` but never disappears.  The sampling disk uses
    24 angles and 15 log-spaced radii from ``radius`` to
    ``radius / 1000``, augmented, per multiplier, with the predicted
    obstruction distance ``1 / max eig(D^{1/2} (alpha L) D^{1/2})``
    (``D`` from ``_gain_linearization_scale``), so the shrinking feature
    is actually sampled.  With ``expect_shared=False`` the same sweep
    serves as a control on networks without a shared zero.
    """
    if radius <= 0:
        raise ValidationError("radius must be positive")
    if not alphas or any(float(a) <= 0 for a in alphas):
        raise ValidationError("multipliers must be positive")
    mult = nodal_multiplicity(net, z)
    if expect_shared and mult != net.n:
        raise HypothesisViolated(
            f"expected every node gain to vanish at {complex(z)}; only {mult} of {net.n} do"
        )
    scale_diag = _gain_linearization_scale(net, z)
    sqrt_d = np.sqrt(scale_diag)
    base_radii = np.geomspace(radius, radius * 1e-3, 15)
    thetas = 2.0 * math.pi * np.arange(24) / 24
    rows: list[FailureRow] = []
    for alpha in alphas:
        alpha = float(alpha)
        scaled = alpha * net.laplacian.matrix
        weighted = sqrt_d[:, None] * scaled * sqrt_d[None, :]
        lam_max = float(np.max(np.linalg.eigvalsh((weighted + weighted.T) / 2.0)))
        rset = list(base_radii)
        if lam_max > 0.0:
            r_star = 1.0 / lam_max
            if 0.0 < r_star < radius:
                rset.append(r_star)
        sup_val = 0.0
        arg = complex(z)
        for r in rset:
            for th in thetas:
                s = complex(z) + r * cmath.exp(1j * th)
                try:
                    pt = _evaluate(net, s, DEFAULT_TOL_ZERO)
                    if is_at_infinity(pt.gbar):
                        continue
                    t = _transfer(pt, scaled)[0]
                except (PoleOfCoupling, SingularSystem, IndeterminateAt):
                    continue
                val = _spectral_norm(t, pt.gbar)
                if val > sup_val:
                    sup_val = val
                    arg = s
        rows.append(FailureRow(alpha=alpha, sup_value=sup_val, argmax=arg))
    return rows


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """One CSV cell: empty for ``None``, ``str`` for integers, and the
    shortest round-trip text (``inf``/``-inf``/``nan`` included) otherwise."""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def report_csv_header() -> str:
    return "sigma,omega,incoherence,bound,eff_conn,norm_T,multiplicity,status"


def report_csv_row(report: CoherenceReport) -> str:
    cells = [
        _fmt(float(report.s0.real)),
        _fmt(float(report.s0.imag)),
        _fmt(report.incoherence),
        _fmt(report.bound),
        _fmt(report.effective_connectivity),
        _fmt(report.norm_transfer),
        _fmt(report.multiplicity),
        report.status,
    ]
    return ",".join(cells)
