"""State-space realization and simulation of coupled networks.

Realizes each node's rational dynamics in controllable canonical form,
assembles the closed loop ``y = G(u - f L y)`` as one state-space
system (eliminating any algebraic loop created by biproper blocks), and
samples impulse, step, and sinusoid responses exactly on a uniform
grid: each input is generated by a small autonomous exosystem appended
to the state, so the response obeys ``x_{k+1} = exp(A_aug dt) x_k``.
The coherent reference trajectory — the response of ``(1/n) gbar`` to
the summed input — is what node outputs collapse onto as connectivity
grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from ._parallel import forked_in_order, thread_count
from .errors import ValidationError
from .coherence import COND_LIMIT, NetworkModel
from .rational import Properness, RationalTF, harmonic_mean, properness, tf_scale

__all__ = [
    "ImproperTF",
    "AlgebraicLoop",
    "StateSpace",
    "Trajectory",
    "ImpulseAll",
    "StepNode",
    "SinusoidAll",
    "InputSignal",
    "realize",
    "closed_loop",
    "simulate",
    "coherent_reference",
    "default_step",
    "trajectory_csv_lines",
    "write_trajectory_csv",
]


class ImproperTF(ValidationError):
    """Only proper transfer functions have state-space realizations."""


class AlgebraicLoop(ValidationError):
    """The interconnection's instantaneous loop matrix is singular."""


@dataclass(frozen=True)
class StateSpace:
    """Real matrices (A, B, C, D) of dx/dt = Ax + Bu, y = Cx + Du."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        d = np.atleast_2d(np.asarray(self.d, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValidationError(f"A must be square, got {a.shape}")
        if b.shape[0] != a.shape[0]:
            raise ValidationError(f"B has {b.shape[0]} rows for {a.shape[0]} states")
        if c.shape[1] != a.shape[0]:
            raise ValidationError(f"C has {c.shape[1]} columns for {a.shape[0]} states")
        if d.shape != (c.shape[0], b.shape[1]):
            raise ValidationError(f"D shape {d.shape} does not match C rows x B columns")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]

    def frequency_response(self, s: complex) -> np.ndarray:
        """C (sI - A)^{-1} B + D at one complex frequency."""
        n = self.n_states
        if n == 0:
            return self.d.astype(complex)
        resolvent = np.linalg.solve(
            s * np.eye(n, dtype=complex) - self.a.astype(complex), self.b.astype(complex)
        )
        return self.c.astype(complex) @ resolvent + self.d.astype(complex)


@dataclass(frozen=True)
class Trajectory:
    """Sampled outputs on a uniform time grid."""

    times: np.ndarray
    outputs: np.ndarray  # n_outputs x len(times)
    input_label: str

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.outputs, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValidationError("a trajectory needs at least two samples")
        steps = np.diff(t)
        if not np.all(steps > 0):
            raise ValidationError("times must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValidationError("times must be uniformly spaced")
        if y.ndim != 2 or y.shape[1] != t.size:
            raise ValidationError(f"outputs shaped {y.shape} do not match {t.size} samples")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "outputs", y)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_outputs(self) -> int:
        return int(self.outputs.shape[0])


# ---------------------------------------------------------------------------
# Input signals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImpulseAll:
    """Dirac impulse of the given magnitude applied to every input."""

    magnitude: float = 1.0

    def label(self) -> str:
        return f"impulse_all(magnitude={self.magnitude})"


@dataclass(frozen=True)
class StepNode:
    """Unit-step input at one node, zero elsewhere."""

    node: int
    magnitude: float = 1.0

    def label(self) -> str:
        return f"step_node(node={self.node}, magnitude={self.magnitude})"


@dataclass(frozen=True)
class SinusoidAll:
    """sin(omega t) of the given amplitude applied to every input."""

    omega: float
    amplitude: float = 1.0

    def label(self) -> str:
        return f"sinusoid_all(omega={self.omega}, amplitude={self.amplitude})"


InputSignal = ImpulseAll | StepNode | SinusoidAll


def _augmented(
    signal: InputSignal, ss: StateSpace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(A_aug, C_aug, x0)`` of the autonomous system whose output is the response.

    The input is ``u = E w`` with ``dw/dt = S w``, so the augmented state
    ``[x; w]`` evolves under ``[[A, B E], [0, S]]`` and the output is
    ``[C, D E] [x; w]``.
    """
    if isinstance(signal, ImpulseAll):
        # A Dirac impulse through B is equivalent to starting from x(0) = B u0.
        return ss.a, ss.c, ss.b @ np.full(ss.n_inputs, signal.magnitude)
    if isinstance(signal, StepNode):
        if not 0 <= signal.node < ss.n_inputs:
            raise ValidationError(
                f"step node {signal.node} out of range for {ss.n_inputs} inputs"
            )
        e = np.zeros((ss.n_inputs, 1))
        e[signal.node, 0] = signal.magnitude
        exo = np.zeros((1, 1))  # w = 1
        w0 = [1.0]
    elif isinstance(signal, SinusoidAll):
        omega = float(signal.omega)
        e = np.zeros((ss.n_inputs, 2))
        e[:, 0] = signal.amplitude
        exo = np.array([[0.0, omega], [-omega, 0.0]])  # w = (sin, cos)(omega t)
        w0 = [0.0, 1.0]
    else:
        raise ValidationError(f"unknown input signal {signal!r}")
    n, k = ss.n_states, exo.shape[0]
    a = np.zeros((n + k, n + k))
    a[:n, :n] = ss.a
    a[:n, n:] = ss.b @ e
    a[n:, n:] = exo
    c = np.hstack([ss.c, ss.d @ e])
    return a, c, np.concatenate([np.zeros(n), w0])


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------


def realize(g: RationalTF) -> StateSpace:
    """Controllable canonical state-space form of a proper scalar system.

    The denominator is monic by construction; the direct term D is the
    top numerator coefficient when the function is biproper, zero when
    strictly proper.
    """
    if properness(g) is Properness.IMPROPER:
        raise ImproperTF(
            f"degree {g.num.degree} numerator over degree {g.den.degree} denominator"
        )
    den = np.asarray(g.den.coeffs, dtype=float)
    num = np.asarray(g.num.coeffs, dtype=float)
    r = len(den) - 1
    if r == 0:
        gain = num[0] / den[0] if num.size else 0.0
        return StateSpace(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[gain]]
        )
    padded = np.zeros(r + 1)
    padded[: num.size] = num
    d_term = padded[r]
    num_sp = padded[:r] - d_term * den[:r]
    a = np.zeros((r, r))
    if r > 1:
        a[:-1, 1:] = np.eye(r - 1)
    a[-1, :] = -den[:r]
    b = np.zeros((r, 1))
    b[-1, 0] = 1.0
    c = num_sp.reshape(1, r)
    return StateSpace(a, b, c, [[d_term]])


def closed_loop(net: NetworkModel) -> StateSpace:
    """State-space form of the coupled network ``y = G(u - f L y)``.

    Each node contributes its canonical realization; the coupling filter
    is realized once per node channel and fed by the corresponding row
    of ``L y``.  With the block-diagonal node matrices ``A_G, B_G, C_G,
    D_G`` and the coupling's ``A_F = I (x) a_f`` (likewise ``B_F, C_F``)
    and ``d_f``, the output is ``y = Y_G x_G + Y_F x_F + Y_U u`` with
    ``Y_G = M C_G``, ``Y_F = -M D_G C_F``, ``Y_U = M D_G`` and
    ``M = (I + D_G d_f L)^-1``, and

        A = [[A_G - B_G d_f L Y_G, -B_G (C_F + d_f L Y_F)],
             [B_F L Y_G,           A_F + B_F L Y_F       ]],
        B = [[B_G (I - d_f L Y_U)], [B_F L Y_U]],  C = [Y_G, Y_F],  D = Y_U.

    ``B_G, C_G, D_G, B_F, C_F`` have one nonzero entry per row or column,
    so every product with them is a gather with a scaling, which gives
    the dense product's values exactly.  The loop matrix is formed and
    inverted only when ``D_G d_f L`` has a nonzero entry; the six
    products of ``d_f L``, ``B_G d_f L`` or ``B_F L`` with a ``Y`` are then
    the only dense ones.  Otherwise ``M = I`` and they are gathers too.
    A singular loop matrix, or one whose condition estimate exceeds
    ``COND_LIMIT``, makes the interconnection ill posed.
    """
    n = net.n
    lap = net.laplacian.matrix
    node_ss = [realize(g) for g in net.nodes]
    f_ss = realize(net.coupling)
    nodes = np.arange(n)
    # State s of the node part belongs to node node_of[s]; coupling state t
    # to channel chan_of[t].  b_g, c_g, b_f, c_f hold the one entry of the
    # block matrices in that state's row (B) or column (C).
    node_of = np.repeat(nodes, [ss.n_states for ss in node_ss])
    b_g = np.concatenate([ss.b[:, 0] for ss in node_ss])
    c_g = np.concatenate([ss.c[0] for ss in node_ss])
    d_g = np.array([ss.d[0, 0] for ss in node_ss])
    chan_of = np.repeat(nodes, f_ss.n_states)
    b_f = np.tile(f_ss.b[:, 0], n)
    c_f = np.tile(f_ss.c[0], n)
    d_f = f_ss.d[0, 0]
    ng, nf = node_of.size, chan_of.size

    dfl = d_f * lap
    loop_inv = np.eye(n)
    feedthrough = d_g[:, None] * dfl  # D_G d_f L
    inverted = bool(feedthrough.any())
    if inverted:
        loop = loop_inv + feedthrough
        try:
            loop_inv = np.linalg.inv(loop)
        except np.linalg.LinAlgError as exc:
            raise AlgebraicLoop(
                "instantaneous feedthrough around the coupling loop is singular"
            ) from exc
        # Guard near-singular loops too: they produce meaningless dynamics.  The
        # estimate |loop|_1 |loop^-1|_1 is the one every frequency-domain solve uses.
        if np.linalg.norm(loop, 1) * np.linalg.norm(loop_inv, 1) > COND_LIMIT:
            raise AlgebraicLoop(
                "instantaneous feedthrough around the coupling loop is numerically singular"
            )

    # n x n temporaries are dropped once spent: a simulate run reaches its
    # peak memory here or in the matrix exponential.
    del feedthrough
    y_g = loop_inv[:, node_of] * c_g
    y_u = loop_inv * d_g
    y_f = -(y_u[:, chan_of] * c_f)
    del loop_inv

    def times(x, y, cols):
        """``x @ y`` for ``y = M E`` where column k of ``E`` is zero but in
        row ``cols[k]``: a column gather with a scaling when ``M = I``."""
        if inverted:
            return x @ y
        gathered = x[:, cols]
        gathered *= y[cols, np.arange(cols.size)]
        return gathered

    rows_g = b_g[:, None] * dfl[node_of]  # B_G d_f L
    rows_f = b_f[:, None] * lap[chan_of]  # B_F L
    inner_f = times(dfl, y_f, chan_of)  # C_F + d_f L Y_F
    inner_f[chan_of, np.arange(nf)] += c_f
    a_cl = np.zeros((ng + nf, ng + nf))
    offset = 0
    for ss in node_ss:
        k = ss.n_states
        a_cl[offset : offset + k, offset : offset + k] = ss.a
        offset += k
    a_cl[:ng, :ng] -= times(rows_g, y_g, node_of)
    del rows_g
    a_cl[:ng, ng:] = -b_g[:, None] * inner_f[node_of]
    a_cl[ng:, :ng] = times(rows_f, y_g, node_of)
    a_cl[ng:, ng:] = np.kron(np.eye(n), f_ss.a) + times(rows_f, y_f, chan_of)
    b_cl = np.vstack([
        b_g[:, None] * (np.eye(n) - times(dfl, y_u, nodes))[node_of],
        times(rows_f, y_u, nodes),
    ])
    return StateSpace(a_cl, b_cl, np.hstack([y_g, y_f]), y_u)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def default_step(ss: StateSpace) -> float:
    """Default output spacing: ``0.5 / |A|_inf``, at most 0.01.

    The sampling is exact at any spacing; this one keeps the fastest
    dynamics resolved on the output grid.
    """
    norm_a = float(np.linalg.norm(ss.a, np.inf)) if ss.n_states else 0.0
    if norm_a == 0.0:
        return 0.01
    return min(0.01, 0.5 / norm_a)


# Largest |A|_1 at which the degree-m diagonal Pade approximant to exp(A)
# meets double-precision backward error (Higham 2005, Table 2.3).
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068,
    13: 5.371920351148152,
}


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Pade approximant.

    Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26 (2005): the lowest degree
    m in {3, 5, 7, 9} whose bound covers ``|a|_1`` is applied to ``a``
    directly; beyond that, degree 13 is applied to ``a / 2^s`` and the
    result squared ``s`` times.
    """
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    m = next((m for m in (3, 5, 7, 9) if norm <= _PADE_THETA[m]), 13)
    squarings = max(0, math.ceil(math.log2(norm / _PADE_THETA[13]))) if m == 13 else 0
    if squarings:
        a = a * 0.5**squarings
    b = [math.factorial(2 * m - j) / (math.factorial(j) * math.factorial(m - j))
         for j in range(m + 1)]
    # odd and even collect b_{2k+1} a^{2k} and b_{2k} a^{2k}, k = 0 .. m // 2.
    a2 = a @ a
    odd, even = b[3] * a2, b[2] * a2
    diagonal = np.s_[:: a.shape[0] + 1]
    odd.flat[diagonal] += b[1]
    even.flat[diagonal] += b[0]
    power = a2
    for k in range(2, m // 2 + 1):
        power = power @ a2
        odd += b[2 * k + 1] * power
        even += b[2 * k] * power
    u = a @ odd
    del a2, power, odd  # fewer n x n arrays alive at the solve
    v_plus_u = even + u
    even -= u
    del u
    r = np.linalg.solve(even, v_plus_u)
    for _ in range(squarings):
        r = r @ r
    return r


def simulate(
    ss: StateSpace,
    signal: InputSignal,
    t_end: float,
    dt: float | None = None,
) -> Trajectory:
    """Exact response of the system, sampled every ``dt`` up to ``t_end``.

    The input comes from an exosystem appended to the state, so one
    matrix exponential ``Phi = exp(A_aug dt)`` carries the augmented
    state exactly from one sample to the next and ``dt`` sets only the
    output spacing.  Impulses are realized as the equivalent initial
    condition ``x(0) = B u0``.
    """
    if not 0 < t_end < math.inf:
        raise ValidationError("t_end must be positive and finite")
    if dt is None:
        dt = default_step(ss)
    if not dt > 0:
        raise ValidationError("dt must be positive")
    if dt > t_end:
        raise ValidationError(f"dt = {dt:g} exceeds t_end = {t_end:g}")
    steps = int(round(t_end / dt))
    a, c, x0 = _augmented(signal, ss)
    phi = _expm(a * dt)
    # Allocated after Phi, so that the Pade temporaries are already freed.
    states = np.empty((steps + 1, x0.size))
    states[0] = x0
    for k in range(steps):
        np.matmul(phi, states[k], out=states[k + 1])
    # One product for all outputs: a matrix-vector product per step costs
    # as much again as the step itself.
    return Trajectory(np.arange(steps + 1) * dt, (states @ c.T).T, signal.label())


def coherent_reference(
    net: NetworkModel,
    signal: InputSignal,
    t_end: float,
    dt: float | None = None,
    *,
    dynamics: RationalTF | None = None,
) -> Trajectory:
    """Response of the coherent aggregate ``(1/n) gbar`` to the summed input.

    This is the single reference curve that all node outputs approach as
    connectivity grows.  ``dynamics`` substitutes another mean system
    (for example the expected dynamics of a random family) in place of
    the network's own harmonic mean, which is otherwise built here by
    ``harmonic_mean`` (its ``ExcessiveDegree`` propagates).
    """
    gbar = dynamics if dynamics is not None else harmonic_mean(net.nodes)
    return _reference_response(realize(tf_scale(gbar, 1.0 / net.n)), net.n, signal, t_end, dt)


def _reference_response(ref: StateSpace, n: int, signal: InputSignal, t_end: float,
                        dt: float | None) -> Trajectory:
    """``coherent_reference`` for the realized aggregate ``ref`` of ``n`` nodes."""
    # The aggregate sees the scalar input 1^T u.
    if isinstance(signal, ImpulseAll):
        scalar_signal: InputSignal = ImpulseAll(magnitude=n * signal.magnitude)
    elif isinstance(signal, StepNode):
        scalar_signal = StepNode(node=0, magnitude=signal.magnitude)
    elif isinstance(signal, SinusoidAll):
        scalar_signal = SinusoidAll(omega=signal.omega, amplitude=n * signal.amplitude)
    else:
        raise ValidationError(f"unknown input signal {signal!r}")
    return simulate(ref, scalar_signal, t_end, dt)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def _check_reference(traj: Trajectory, reference: Trajectory | None) -> None:
    if reference is None:
        return
    if reference.n_outputs != 1:
        raise ValidationError("the reference trajectory must have a single output")
    if reference.times.size != traj.times.size or not np.allclose(
        reference.times, traj.times, rtol=1e-12, atol=1e-12
    ):
        raise ValidationError("reference and trajectory must share the time grid")


def _csv_header(traj: Trajectory, reference: Trajectory | None) -> str:
    header = "t," + ",".join(f"y_{i}" for i in range(traj.n_outputs))
    return header + ",y_ref" if reference is not None else header


def _csv_rows(
    traj: Trajectory, reference: Trajectory | None, start: int, stop: int
) -> Iterator[str]:
    """Data rows ``start`` to ``stop - 1`` of ``t, y_0, ..., y_{n-1}[, y_ref]``,
    one at a time; ``reference`` has passed ``_check_reference``."""
    # Row by row: a nested list of every sample would hold a Python float
    # per value at once.
    rows = zip(traj.times[start:stop].tolist(), traj.outputs[:, start:stop].T)
    for k, (t, row) in enumerate(rows, start):
        cells = [t, *row.tolist()]
        if reference is not None:
            cells.append(float(reference.outputs[0, k]))
        yield ",".join(map(repr, cells))


def trajectory_csv_lines(traj: Trajectory, reference: Trajectory | None = None) -> list[str]:
    """Rows ``t, y_0, ..., y_{n-1}[, y_ref]``, header first."""
    _check_reference(traj, reference)
    return [_csv_header(traj, reference), *_csv_rows(traj, reference, 0, traj.times.size)]


# Output samples in a block of rows, at least about.  A formatting process
# holds one block of text at a time, about 20 bytes a sample, and the rows
# are forked out only when they make two blocks or more.
_BLOCK_SAMPLES = 1 << 14


def write_trajectory_csv(
    traj: Trajectory, stream: TextIO, reference: Trajectory | None = None
) -> None:
    """Write the rows of ``trajectory_csv_lines`` to ``stream``, each ended
    by a newline.

    The rows are cut into contiguous blocks of about ``_BLOCK_SAMPLES``
    samples or more, which ``_parallel.forked_in_order`` formats on up to
    ``_parallel.thread_count()`` processes, this one and forked ones, and
    which this process writes to ``stream`` in order, one whole block at a
    time; the bytes do not depend on the split.  A block whose forked
    formatter fails or dies is formatted here.  A forked formatter holds
    one block of text at a time; this process holds up to about three: a
    forked formatter's block as it came through the pipe and as text, and
    ``stream``'s encoding of it.
    """
    _check_reference(traj, reference)
    rows = traj.times.size
    blocks = max(1, min(rows, traj.outputs.size // _BLOCK_SAMPLES))
    bounds = [rows * b // blocks for b in range(blocks + 1)]
    stream.write(_csv_header(traj, reference) + "\n")

    def format_block(b: int) -> str:
        lines = _csv_rows(traj, reference, bounds[b], bounds[b + 1])
        return "".join([line + "\n" for line in lines])

    forked_in_order(range(blocks), thread_count(), format_block,
                    lambda b, text: stream.write(text))
