"""Random node dynamics and Monte-Carlo dynamics concentration.

Networks whose node dynamics are independent draws from one random
rational transfer function concentrate, as the network grows, around a
deterministic limit: the harmonic expectation ``ghat = (E[1/g])^{-1}``.
This module samples such networks reproducibly, provides ``ghat`` either
in closed form (for registered coefficient families) or by Monte-Carlo
averaging, and runs the concentration experiment that measures how fast
the sampled coherent dynamics and closed-loop transfer matrix approach
their limits as the network size and connectivity grow.

All randomness is counter-based: every draw is addressed by an explicit
substream key, so results are independent of evaluation order.  Trials,
``sample_nodes`` and each Monte-Carlo batch map their unit doubles to
coefficients by one rule (``_coefficients``).  The experiment measures
all trials of a network size together: it derives the node substreams of
many trials in one vectorized pass, as ``sample_nodes`` derives those of
one draw set, bit for bit numpy's ``SeedSequence``/``PCG64``
(``_streams.unit_tables``).  Above a fixed amount of work
(``_parallel.blas_workers``), in a process whose BLAS runs one thread,
the trials of each size are split into up to ``COHERELAB_THREADS``
contiguous blocks, run on forked workers (``_parallel.forked_in_order``)
with the bytes, warnings and errors of one process.  The draws are kept
as padded coefficient tables, no ``RationalTF`` is built, and each
trial's nodes are evaluated at many grid points in one pass.  The
(trial, grid point) records are taken in
chunks sized by a fixed memory budget that run on across trials, and the
experiment reports the first point that fails, in trial then grid order,
after warning about every ill-conditioned point before it: the events of
running the trials one after another.  On the complete family, whose
``lambda2`` is exactly ``w n``, each point takes O(n) work and no n x n
matrix is formed: the closed-loop transfer matrix is a diagonal plus a
rank-one term (Sherman-Morrison), and a chunk, points of several trials
among them, is normed by one batched Golub-Kahan run.  On a ring family
each point is solved and normed densely in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, repeat
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from ._parallel import blas_workers, forked_in_order, point_work
from ._streams import check_int, substream, unit_table, unit_tables
from .errors import ValidationError
from .coherence import (
    _LANCZOS_MAX_STEPS, FrequencyGrid, PoleOfCoupling, SingularSystem, _check_inverse, _fmt,
    _golub_kahan_norms, _point_values, _spectral_norm, _svd_norm, _transfer,
    _warn_ill_conditioned,
)
from .network import (
    LaplacianMatrix,
    NonPositiveWeight,
    algebraic_connectivity,
    complete_graph,
    k_regular_ring,
)
from .rational import (
    DEFAULT_TOL_ZERO,
    IndeterminateAt,
    RationalTF,
    _normalized_table,
    _tfs_from_table,
    is_at_infinity,
    poles,
    simplify,
    tf_eval,
)

__all__ = [
    "Constant",
    "Uniform",
    "CoefficientSpec",
    "RandomTFModel",
    "NoClosedForm",
    "MonteCarlo",
    "ExpectedDynamics",
    "CompleteFamily",
    "RingFamily",
    "GraphFamily",
    "ConcentrationRow",
    "ConcentrationTable",
    "sample_nodes",
    "expected_dynamics",
    "concentration_experiment",
    "concentration_csv_header",
    "concentration_csv_lines",
    "write_concentration_csv",
]

_MAX_SEED = 2**64


class NoClosedForm(ValidationError):
    """No registered closed form for this model's harmonic expectation."""


# ---------------------------------------------------------------------------
# Coefficient distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    """A coefficient fixed at one value (consumes no randomness)."""

    value: float

    def __post_init__(self):
        value = float(self.value)
        if not math.isfinite(value):
            raise ValidationError(f"constant coefficient must be finite, got {value}")
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class Uniform:
    """A coefficient drawn uniformly from the open interval (lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("uniform bounds must be finite")
        if not lo < hi:
            raise ValidationError(f"uniform needs lo < hi, got [{lo}, {hi}]")
        if not math.isfinite(hi - lo):
            raise ValidationError(f"uniform width hi - lo must be finite, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


CoefficientSpec = Union[Constant, Uniform]


def _check_seed(seed) -> int:
    seed = check_int(seed, "seed")
    if not 0 <= seed < _MAX_SEED:
        raise ValidationError(f"seed must fit in 64 bits, got {seed}")
    return seed


def _check_specs(specs, side: str) -> tuple:
    specs = tuple(specs)
    for k, spec in enumerate(specs):
        if not isinstance(spec, (Constant, Uniform)):
            raise ValidationError(
                f"{side}[{k}] must be a Constant or Uniform spec, got {spec!r}"
            )
    return specs


def _identically_zero(specs: tuple) -> bool:
    return all(isinstance(spec, Constant) and spec.value == 0.0 for spec in specs)


@dataclass(frozen=True)
class RandomTFModel:
    """A rational transfer function with per-coefficient distributions.

    ``num_specs[k]`` and ``den_specs[k]`` bind the degree-k numerator and
    denominator coefficients; every slot carries exactly one distribution.
    ``seed`` roots the sampling streams.
    """

    num_specs: tuple
    den_specs: tuple
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "num_specs", _check_specs(self.num_specs, "num"))
        object.__setattr__(self, "den_specs", _check_specs(self.den_specs, "den"))
        if not self.num_specs:
            raise ValidationError("numerator needs at least one coefficient slot")
        if not self.den_specs:
            raise ValidationError("denominator needs at least one coefficient slot")
        if _identically_zero(self.num_specs):
            raise ValidationError("numerator is identically zero: every node gain would vanish")
        if _identically_zero(self.den_specs):
            raise ValidationError("denominator is identically zero: no node gain is defined")
        object.__setattr__(self, "seed", _check_seed(self.seed))


def _random_slots(model: RandomTFModel) -> int:
    """The number of ``Uniform`` slots: the doubles one draw takes."""
    return sum(isinstance(spec, Uniform) for spec in (*model.num_specs, *model.den_specs))


def _coefficients(model: RandomTFModel, unit: np.ndarray) -> np.ndarray:
    """The ``(k, 2, w)`` coefficient table, numerator then denominator,
    zero-padded to ``w`` slots, of the ``k`` draws whose unit doubles are
    the rows of ``unit``, ``(k, _random_slots(model))``.

    This is the one rule from doubles to coefficients: a ``Constant`` slot
    is its value, and the ``j``-th ``Uniform`` slot, numerator slots
    first, maps column ``j`` as ``Generator.uniform(lo, hi)`` does.
    """
    sides = (model.num_specs, model.den_specs)
    table = np.zeros((len(unit), 2, max(map(len, sides))))
    drawn = []
    for side, specs in enumerate(sides):
        for k, spec in enumerate(specs):
            if isinstance(spec, Constant):
                table[:, side, k] = spec.value
            else:
                drawn.append((side, k, spec))
    if drawn:
        lo = np.array([spec.lo for _, _, spec in drawn])
        hi = np.array([spec.hi for _, _, spec in drawn])
        rows, cols = zip(*[(side, k) for side, k, _ in drawn])
        table[:, rows, cols] = lo + (hi - lo) * unit
    return table


def sample_nodes(
    model: RandomTFModel,
    n: int,
    seed: int | None = None,
    *,
    spawn_prefix: tuple = (),
) -> list[RationalTF]:
    """Draw ``n`` independent node dynamics from the model.

    Draw ``i`` uses the substream keyed by ``spawn_prefix + (i,)``, so the
    result is deterministic given ``(model, n, seed)`` and the first ``m``
    draws agree for every ``n >= m`` (prefix stability).  Each draw takes
    its numerator slots, then its denominator slots, from its substream.
    The substreams are derived in one bulk pass (``unit_table``), as the
    concentration experiment derives those of its trials.
    """
    n = check_int(n, "n")
    if n < 1:
        raise ValidationError(f"need n >= 1 draws, got {n}")
    root = model.seed if seed is None else _check_seed(seed)
    unit = unit_table(root, spawn_prefix, n, _random_slots(model))
    return _tfs_from_table(_coefficients(model, unit))


# ---------------------------------------------------------------------------
# Harmonic expectation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarlo:
    """Estimate the harmonic expectation by averaging 1/g over draws."""

    draws: int
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "draws", check_int(self.draws, "draws"))
        if self.draws < 1:
            raise ValidationError(f"need at least one draw, got {self.draws}")
        if self.seed is not None:
            object.__setattr__(self, "seed", _check_seed(self.seed))


class ExpectedDynamics:
    """Point-wise evaluator for the harmonic expectation ``(E[1/g])^{-1}``.

    ``tf`` holds the exact rational form when a closed form is known,
    otherwise ``None`` (Monte-Carlo estimator).
    """

    def __init__(self, evaluate_many: Callable[[np.ndarray], np.ndarray],
                 *, tf: RationalTF | None, method: str):
        self._evaluate_many = evaluate_many
        self.tf = tf
        self.method = method

    def evaluate_many(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=complex)
        return self._evaluate_many(points)

    def evaluate(self, s: complex) -> complex:
        return complex(self.evaluate_many(np.array([s]))[0])


def _is_gain_over_fixed_den(model: RandomTFModel) -> bool:
    """True for the registered family: random positive gain over a fixed
    denominator, ``g = k / den(s)`` with ``k ~ Unif(lo, hi)``, ``lo > 0``."""
    return (
        len(model.num_specs) == 1
        and isinstance(model.num_specs[0], Uniform)
        and model.num_specs[0].lo > 0
        and all(isinstance(spec, Constant) for spec in model.den_specs)
    )


def _closed_form_tf(model: RandomTFModel) -> RationalTF:
    if all(
        isinstance(spec, Constant)
        for spec in (*model.num_specs, *model.den_specs)
    ):
        return RationalTF(
            [spec.value for spec in model.num_specs],
            [spec.value for spec in model.den_specs],
        )
    if _is_gain_over_fixed_den(model):
        dist = model.num_specs[0]
        # E[1/k] for k ~ Unif(lo, hi) is (ln hi - ln lo)/(hi - lo).
        scale = (dist.hi - dist.lo) / (math.log(dist.hi) - math.log(dist.lo))
        return RationalTF([scale], [spec.value for spec in model.den_specs])
    raise NoClosedForm(
        "no closed-form harmonic expectation registered for this model; "
        "use the Monte-Carlo method"
    )


def expected_dynamics(
    model: RandomTFModel,
    method: MonteCarlo | str = "closed_form",
) -> ExpectedDynamics:
    """Build the evaluator for ``ghat(s) = (E[1/g(s)])^{-1}``.

    ``method="closed_form"`` uses the registry of exactly-solved families
    (all-constant models; random gain over a fixed denominator) and raises
    :class:`NoClosedForm` otherwise.  A :class:`MonteCarlo` method averages
    ``1/g(s)`` over fresh draws for each evaluation batch; batches are
    deterministic given the seed and call order.  Its draws follow the
    envelope rule at ``DEFAULT_TOL_ZERO``: a point where some draw's gain
    vanishes gives 0, a draw with a pole there adds 0 to the mean (a zero
    mean gives ``inf``), a draw that is 0/0 there raises
    ``IndeterminateAt`` and a draw whose ``1/g`` overflows raises
    ``InverseGainOverflow``.
    """
    if method == "closed_form":
        tf = _closed_form_tf(model)

        def evaluate_many(points: np.ndarray) -> np.ndarray:
            return np.array([_finite_eval(tf, s) for s in points])

        return ExpectedDynamics(evaluate_many, tf=tf, method="closed_form")
    if isinstance(method, MonteCarlo):
        root = model.seed if method.seed is None else method.seed
        batches = count()

        def evaluate_many(points: np.ndarray) -> np.ndarray:
            # One stream per batch; Uniform slot j takes row j of its block,
            # the doubles Generator.uniform(lo, hi, size=draws) would take.
            rng = substream(root, (next(batches),))
            table = _coefficients(model, rng.random((_random_slots(model), method.draws)).T)
            # The draws' values under the envelope rule: a vanished gain
            # makes the point 0, a draw with a pole adds 0 to the mean of 1/g.
            pts = _point_values(table[:, 0], table[:, 1], points, [0j] * len(points),
                                DEFAULT_TOL_ZERO)
            out = np.empty(len(points), dtype=complex)
            for p, pt in enumerate(pts):
                if pt.indeterminate:
                    raise IndeterminateAt(pt.s)
                _check_inverse(pt)
                mean = np.mean(pt.inv)
                out[p] = 0j if pt.vanished else 1.0 / mean if mean else complex(math.inf, 0.0)
            return out

        return ExpectedDynamics(evaluate_many, tf=None, method="monte_carlo")
    raise ValidationError(
        f"method must be 'closed_form' or a MonteCarlo spec, got {method!r}"
    )


def _finite_eval(g: RationalTF, s: complex) -> complex:
    value = tf_eval(g, s)
    if is_at_infinity(value):
        return complex(math.inf, 0.0)
    return complex(value)


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompleteFamily:
    """All-to-all coupling of one weight; connectivity grows like n.

    ``L = w(nI - 11^T)``: its ``lambda2`` is ``w n``, and the experiment's
    trials use that structure instead of the matrix.
    """

    weight: float = 1.0

    def __post_init__(self):
        if not self.weight > 0.0:
            raise NonPositiveWeight(f"weight {self.weight} must be positive")

    def build(self, n: int) -> LaplacianMatrix:
        return complete_graph(n, self.weight)


@dataclass(frozen=True)
class RingFamily:
    """Ring with each node coupled to ``ratio * n`` nearest neighbours."""

    ratio: float = 0.15
    weight: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValidationError(f"neighbour ratio must be in (0, 1), got {self.ratio}")

    def build(self, n: int) -> LaplacianMatrix:
        per_side = max(1, round(self.ratio * n / 2))
        return k_regular_ring(n, per_side, self.weight)


GraphFamily = Union[CompleteFamily, RingFamily]


# ---------------------------------------------------------------------------
# Concentration experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationRow:
    """Per-size summary over all trials.

    ``sup_gbar_dev`` is the trial mean of ``sup_s |gbar_n(s) - ghat(s)|``;
    the incoherence columns summarize ``sup_s |T_n(s) - ghat(s)/n 11^T|``
    (mean and worst trial); ``exceed_frac`` is the fraction of trials whose
    incoherence sup reached the threshold epsilon.
    """

    n: int
    lambda2: float
    sup_gbar_dev: float
    sup_incoherence_mean: float
    sup_incoherence_max: float
    trials: int
    exceed_frac: float


@dataclass(frozen=True)
class ConcentrationTable:
    """Rows sorted by network size, plus the inverse-gain envelope record.

    ``observed_max_inverse_gain`` is the largest ``|1/g_i(s)|`` seen over
    all draws and grid points; ``inverse_gain_envelope`` is its analytic
    bound when the model family provides one (the uniform-boundedness
    hypothesis the concentration theory rests on), else ``None``.
    """

    rows: tuple
    epsilon: float
    observed_max_inverse_gain: float
    inverse_gain_envelope: float | None

    def __post_init__(self):
        sizes = [row.n for row in self.rows]
        if sizes != sorted(sizes):
            raise ValidationError("rows must be sorted by network size")

    @property
    def envelope_ok(self) -> bool | None:
        if self.inverse_gain_envelope is None:
            return None
        return self.observed_max_inverse_gain <= self.inverse_gain_envelope * (1 + 1e-12)


def _inverse_gain_envelope(model: RandomTFModel, points: np.ndarray) -> float | None:
    """Analytic bound on |1/g(s)| over the grid, for the registered family.

    For ``g = k / den(s)`` with ``k >= lo > 0``:
    ``|1/g(s)| = |den(s)|/k <= max_grid |den(s)| / lo``.
    """
    if not _is_gain_over_fixed_den(model) or len(points) == 0:
        return None
    den = np.array([spec.value for spec in model.den_specs])
    sup_den = max(abs(np.polynomial.polynomial.polyval(s, den)) for s in points)
    return float(sup_den / model.num_specs[0].lo)


# Bytes of the Golub-Kahan bases of one chunk of (trial, grid point)
# records (at least one), counted at 16 n (2 _LANCZOS_MAX_STEPS + 1) a
# point, as if every step ran.  A chunk runs on across the trials of a size
# and, on the complete family, is normed as one batch: it holds many
# trials' points at small n and one point from n = 810 on.  The bases grow
# with the steps a batch takes, most often under ten, so a batch holds far
# less than its budget.  On 20 trials of 8 points at n = 20, 50 and 100
# (2-core x86 VM, BLAS on one thread) the trials took 0.095 s one after
# another, 0.044 s under an 8 MiB budget and 0.053 s under 2 MiB; repeated
# runs raised the peak RSS by 2.1 MiB under 8 MiB and by 0.4 MiB under
# 2 MiB.  Under 2 MiB a chunk holds one point at n = 810 to 3,240, where 8
# MiB holds several: an 8-point grid at n = 500 to 2,000 takes up to 1.9
# times as long as under 8 MiB.  The budget is per process: each forked
# worker of ``concentration_experiment`` holds a chunk of its own.
_KRYLOV_BYTES = 1 << 21
def _trial_blocks(trials: int, blocks: int, n: int, points: int) -> list[range]:
    """``range(trials)`` cut into up to ``blocks`` contiguous, nearly equal
    blocks of trials of ``points`` records at ``n`` nodes.  Each block
    starts after a whole number of chunks (``_chunk_records``), where
    ``_size_measurements`` on all the trials starts a chunk afresh, so the
    blocks measured one after another take its steps in its order."""
    span = _chunk_records(n)
    step = span // math.gcd(points, span)
    starts = sorted({trials * b // blocks // step * step for b in range(blocks)})
    return [range(a, b) for a, b in zip(starts, starts[1:] + [trials])]


def _chunk_records(n: int) -> int:
    """The records of one chunk at ``n`` nodes: ``_KRYLOV_BYTES`` of
    Golub-Kahan bases, at least one record."""
    return max(1, _KRYLOV_BYTES // (16 * n * (2 * _LANCZOS_MAX_STEPS + 1)))


def _draw_tables(
    model: RandomTFModel, n: int, seed: int, trials: range
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The node tables of each trial ``t`` in ``trials`` of size ``n``, in
    order: those of trial ``t`` are bit for bit ``_node_tables`` on
    ``simplify`` of each ``sample_nodes(model, n, seed, spawn_prefix=(n,
    t))`` draw, whatever other trials the range holds.

    The draws are ``sample_nodes``'s own: ``unit_tables`` derives the
    substreams ``(n, t, i)`` of a chunk's count of trials
    (``_chunk_records``) in one vectorized pass and ``_coefficients`` maps
    their doubles.  A pass's work arrays, some 20 words a node, stay a
    fraction of a chunk's bases, and each pass is dropped before the next
    is drawn.  A pass is normalized as one table by ``_normalized_table``,
    the rule ``sample_nodes`` builds its functions by.  Only a node whose
    numerator is not a nonzero constant and whose denominator is not
    constant can change under ``simplify``; only those nodes, and those
    ``RationalTF`` rejects, are built and simplified one by one, when
    their trial is taken, so a failing draw raises only then.
    """
    slots = _random_slots(model)
    per_pass = _chunk_records(n)
    for first in range(0, len(trials), per_pass):
        drawn = min(per_pass, len(trials) - first)
        unit = unit_tables(seed, [(n, t) for t in trials[first:first + drawn]], n, slots)
        raw = _coefficients(model, unit.reshape(drawn * n, slots))
        tables, degree, rejected = _normalized_table(raw)
        rebuilt = np.flatnonzero(rejected | ((degree[:, 0] != 0) & (degree[:, 1] >= 1)))
        # Only the rows rebuilt below stay alive while the trials are measured.
        del unit
        raw = raw[rebuilt]
        ends = np.searchsorted(rebuilt, n * np.arange(drawn + 1))
        for k in range(drawn):
            for j in range(ends[k], ends[k + 1]):
                i = rebuilt[j]
                g = simplify(RationalTF(*raw[j]))
                tables[i] = 0.0
                tables[i, 0, : g.num.coeffs.size] = g.num.coeffs
                tables[i, 1, : g.den.coeffs.size] = g.den.coeffs
                degree[i] = g.num.coeffs.size - 1, g.den.coeffs.size - 1
            rows = slice(k * n, (k + 1) * n)
            used = max(int(degree[rows].max()), 0) + 1
            yield tables[rows, 0, :used], tables[rows, 1, :used]


def _complete_incoherence(
    pts: Sequence, ghat_vals: np.ndarray, family: CompleteFamily
) -> tuple[np.ndarray, np.ndarray]:
    """``sigma_max(T_k - ghat_k/n 11^T)`` at each record on the complete
    graph of ``family``, and the condition estimates ``|A|_1 |T|_1``, in
    O(n) work per point and with no n x n matrix.

    With ``L = w(nI - 11^T)``, ``A = diag(1/g_i) + f L`` is the diagonal
    ``1/g_i + f w n`` minus ``f w 11^T``, so (Sherman & Morrison 1950)
    ``T = diag(d) + beta d d^T`` with ``d_i = 1/(1/g_i + f w n)`` and
    ``beta = f w / (1 - f w sum_i d_i)``.  A node whose gain vanishes is
    grounded as ``_transfer`` grounds it, ``d_i = 0``.  Since
    ``1 - f w n d_i = d_i/g_i``, the denominator equals
    ``((n - n_kept) + sum_kept d_i/g_i)/n``, which does not cancel under
    strong coupling as ``1 - f w sum_i d_i`` does; where it is zero the
    system is singular.  ``T - ghat/n 11^T`` is a diagonal plus rank two,
    so its products take O(n), and one batched Golub-Kahan run norms the
    regular points; a point left without a certificate takes the SVD of the
    formed matrix.  Then the records are taken in grid order, as the dense
    path takes them: a point where some ``1/g_i + f w n`` is exactly zero is
    solved by ``_transfer`` on the family's Laplacian, each ill-conditioned
    point warns, and the first failing point raises, as ``_transfer`` would
    raise there.
    """
    n = pts[0].inv.size
    indeterminate = np.array([pt.indeterminate for pt in pts])
    pole = np.array([is_at_infinity(pt.f) for pt in pts])
    fw = family.weight * np.array([0j if p else pt.f for pt, p in zip(pts, pole)])
    inv = np.array([pt.inv for pt in pts])
    overflow = ~np.isfinite(inv).all(axis=1)
    inv[overflow] = 0.0  # the point raises below; its values take no part
    kept = np.ones(inv.shape, dtype=bool)
    for k, pt in enumerate(pts):
        kept[k, list(pt.vanished)] = False
    diag = inv + (fw * n)[:, None]
    zero_pivot = np.any(kept & (diag == 0), axis=1)
    d = np.zeros_like(inv)
    np.divide(1.0, diag, out=d, where=kept & (diag != 0))
    denom = (n - kept.sum(axis=1) + (d * inv).sum(axis=1)) / n

    irregular = indeterminate | overflow | pole | zero_pivot | (denom == 0)
    norms, cond = np.empty(len(pts)), np.ones(len(pts))
    reg = np.flatnonzero(~irregular)
    d, inv, kept, fw = d[reg], inv[reg], kept[reg], fw[reg]
    beta = fw / denom[reg]
    c = ghat_vals[reg] / n

    def apply(idx, v):
        dk = d[idx]
        along_d = beta[idx] * (dk * v).sum(axis=1)
        return dk * v + along_d[:, None] * dk - (c[idx] * v.sum(axis=1))[:, None]

    sigma = _golub_kahan_norms(apply, lambda idx, u: apply(idx, u.conj()).conj(), reg.size, n)
    for j in np.flatnonzero(np.isnan(sigma)):
        sigma[j] = _svd_norm(np.diag(d[j]) + beta[j] * np.outer(d[j], d[j]), ghat_vals[reg[j]])
    norms[reg] = sigma

    # A kept column of A holds 1/g_j + f w (n - 1) and -f w in each other
    # kept row; a column of T holds d_j (1 + beta d_j) and beta d_i d_j.
    m = kept.sum(axis=1)
    a_norm = np.max(np.abs(inv + (fw * (n - 1))[:, None]), axis=1, where=kept, initial=0.0)
    a_norm += (m - 1) * np.abs(fw)
    abs_d = np.abs(d)
    off_diag = np.abs(beta)[:, None] * (abs_d.sum(axis=1)[:, None] - abs_d)
    t_norm = np.max(abs_d * (np.abs(1 + beta[:, None] * d) + off_diag), axis=1)
    cond[reg] = np.where(m > 0, a_norm * t_norm, 1.0)

    lap = None
    for k, pt in enumerate(pts):
        if irregular[k]:
            if indeterminate[k]:
                raise IndeterminateAt(pt.s)
            if overflow[k]:
                _check_inverse(pt)
            if pole[k]:
                raise PoleOfCoupling(pt.s)
            if not zero_pivot[k]:
                raise SingularSystem(pt.s)
            if lap is None:
                lap = family.build(n).matrix
            t, cond[k] = _transfer(pt, lap)
            norms[k] = _spectral_norm(t, ghat_vals[k])
        _warn_ill_conditioned(pt, cond[k])
    return norms, cond


def _size_measurements(
    model: RandomTFModel,
    n: int,
    graph: CompleteFamily | LaplacianMatrix,
    points: np.ndarray,
    f_vals: list,
    ghat_vals: np.ndarray,
    seed: int,
    trials: range,
) -> tuple[list, list, list]:
    """The trials ``trials`` of size ``n``: the lists, one entry per trial,
    of ``sup |gbar - ghat|``, ``sup |T - ghat/n 11^T|`` and ``max |1/g_i|``.

    ``f_vals`` holds the coupling filter's value at each grid point.  The
    records are taken trial by trial and in grid order within a trial, in
    chunks of ``_KRYLOV_BYTES`` of Golub-Kahan bases (at least one record)
    that run on across trials; a trial's nodes are evaluated at up to a
    chunk of points in one pass.  Every ill-conditioned point warns and
    the first point that fails raises, in that order, so the events are
    those of one trial after another whatever the chunks hold; a trial
    whose draw fails raises after the points of the trials before it.  On
    a Laplacian each point is solved by ``_transfer`` and normed by
    ``_spectral_norm`` in turn.  On a ``CompleteFamily`` a chunk is normed
    as one batch by ``_complete_incoherence``, which keeps the same order.
    """
    span = _chunk_records(n)
    sup_gbar, sup_inc, max_inv = ([0.0] * len(trials) for _ in range(3))

    def measure(chunk):
        if not chunk:
            return
        owners, index, pts = zip(*chunk)
        ghats = ghat_vals[list(index)]
        if isinstance(graph, CompleteFamily):
            norms = _complete_incoherence(pts, ghats, graph)[0]
        else:
            norms = np.empty(len(pts))
            for k, (pt, shift) in enumerate(zip(pts, ghats / n)):
                x, cond = _transfer(pt, graph.matrix)
                _warn_ill_conditioned(pt, cond)
                x -= shift
                norms[k] = _spectral_norm(x)
        for t, pt, ghat, norm in zip(owners, pts, ghats, norms):
            gbar_dev = math.inf if is_at_infinity(pt.gbar) else abs(pt.gbar - ghat)
            sup_gbar[t] = max(sup_gbar[t], gbar_dev)
            sup_inc[t] = max(sup_inc[t], float(norm))
            max_inv[t] = max(max_inv[t], pt.inv_max)

    tables = _draw_tables(model, n, seed, trials)
    chunk = []
    for t in range(len(trials)):
        try:
            num, den = next(tables)
        except Exception:
            measure(chunk)  # the points of the trials before it come first
            raise
        for start in range(0, len(points), span):
            grid = slice(start, start + span)
            chunk += zip(repeat(t), count(start),
                         _point_values(num, den, points[grid], f_vals[grid], DEFAULT_TOL_ZERO))
            while len(chunk) >= span:
                measure(chunk[:span])
                del chunk[:span]
        del num, den  # freed before the next trial is drawn
    measure(chunk)
    return sup_gbar, sup_inc, max_inv


def concentration_experiment(
    model: RandomTFModel,
    graph_family: GraphFamily,
    sizes: Sequence[int],
    grid: FrequencyGrid,
    trials: int,
    epsilon: float,
    seed: int | None = None,
    *,
    coupling: RationalTF | None = None,
    expected: ExpectedDynamics | None = None,
    tol_pole: float = 1e-6,
) -> ConcentrationTable:
    """Monte-Carlo concentration experiment across network sizes.

    For each size ``n`` and each trial, samples node dynamics and
    measures over the grid both the coherent deviation
    ``sup |gbar_n - ghat|`` and the matrix deviation
    ``sup |T_n - (1/n) ghat 11^T|`` (spectral norm).  Rows report
    ``lambda2``, the trial mean of the former, mean/max of the latter, and
    the fraction of trials whose matrix deviation reached ``epsilon``.
    A ``CompleteFamily``'s Laplacian is not built: its ``lambda2`` is
    ``w n`` and its trials use the structure of ``L = w(nI - 11^T)``
    (see ``_complete_incoherence`` for the one exception).  Other families
    build their Laplacian once per block of trials, and one process holds
    one at a time.

    Trials are independent; each derives its random substream from
    ``(seed, n, trial)``, so the table is reproducible.  The trials of a
    size are measured in contiguous blocks (``_size_measurements``): their
    substreams in one pass and, on a ``CompleteFamily``, their points
    normed in batches that span trials, with the values, warnings and
    errors of running them one after another.  Where
    ``_parallel.blas_workers`` gives more than one worker for the work of
    all records (``_parallel.point_work`` each, dense on a Laplacian),
    each size takes up to that many blocks, at most ``trials``
    (``_trial_blocks``), which ``_parallel.forked_in_order`` deals to
    forked workers.  A block starts where one block of all trials would
    start a chunk afresh, and the helper measures again in this process,
    in order, a block that warns or fails in a worker; so every warning,
    the frame it points at and the first error are those of one block of
    all trials.  Otherwise one process measures each size as one block.
    Static unit coupling is the default.
    """
    sizes = [check_int(n, "network size") for n in sizes]
    if not sizes:
        raise ValidationError("need at least one network size")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError(f"sizes must be strictly increasing, got {sizes}")
    if sizes[0] < 2:
        raise ValidationError("network sizes must be at least 2")
    trials = check_int(trials, "trials")
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    if not epsilon > 0:
        raise ValidationError(f"threshold epsilon must be positive, got {epsilon}")
    root = model.seed if seed is None else _check_seed(seed)
    complete = isinstance(graph_family, CompleteFamily)
    work = trials * grid.omegas.size * sum(point_work(n, dense=not complete) for n in sizes)
    blocks = min(blas_workers(work), trials)
    if coupling is None:
        coupling = RationalTF([1.0], [1.0])
    if expected is None:
        expected = expected_dynamics(model, "closed_form")

    points = grid.points
    if expected.tf is not None and len(points):
        for pole in poles(expected.tf):
            gap = np.min(np.abs(points - pole))
            if gap <= tol_pole:
                raise ValidationError(
                    f"grid point within {gap:.2e} of expected-dynamics pole {pole}"
                )
    ghat_vals = expected.evaluate_many(points)
    coupling = simplify(coupling)
    f_vals = [tf_eval(coupling, s, tol_zero=DEFAULT_TOL_ZERO) for s in points]

    units = [(n, block) for n in sizes for block in _trial_blocks(trials, blocks, n, len(points))]
    lam2s: dict = {}
    columns = {n: ([], [], []) for n in sizes}

    def measure(unit) -> tuple[float | None, tuple[list, list, list]]:
        """A block's three columns and, where it starts at trial 0, its
        size's lambda2, found before the events of its trials."""
        n, block = unit
        graph = graph_family if complete else graph_family.build(n)
        lam2 = None
        if block.start == 0:
            if complete:
                lam2 = float(graph_family.weight * n)
                if not math.isfinite(lam2):  # as complete_graph refuses it
                    raise ValidationError("Laplacian entries must be finite")
            else:
                lam2 = algebraic_connectivity(graph)
        return lam2, _size_measurements(model, n, graph, points, f_vals, ghat_vals, root, block)

    def take(unit, measured) -> None:
        n, block = unit
        lam2, values = measured
        if block.start == 0:
            lam2s[n] = lam2
        for column, taken in zip(columns[n], values):
            column.extend(taken)

    forked_in_order(units, blocks, measure, take)
    rows = []
    for n, (gbar_devs, inc_sups, max_invs) in columns.items():
        rows.append(
            ConcentrationRow(
                n=n,
                lambda2=lam2s[n],
                sup_gbar_dev=float(np.mean(gbar_devs)),
                sup_incoherence_mean=float(np.mean(inc_sups)),
                sup_incoherence_max=float(np.max(inc_sups)),
                trials=trials,
                exceed_frac=float(np.mean([v >= epsilon for v in inc_sups])),
            )
        )
    observed_max_inv = max(0.0, *(v for _, _, max_invs in columns.values() for v in max_invs))
    return ConcentrationTable(
        rows=tuple(rows),
        epsilon=float(epsilon),
        observed_max_inverse_gain=observed_max_inv,
        inverse_gain_envelope=_inverse_gain_envelope(model, points),
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def concentration_csv_header() -> str:
    return "n,lambda2,sup_gbar_dev,sup_incoherence_mean,sup_incoherence_max,trials,exceed_frac"


def concentration_csv_lines(table: ConcentrationTable) -> list[str]:
    lines = [concentration_csv_header()]
    for row in table.rows:
        lines.append(
            ",".join(
                [
                    str(row.n),
                    _fmt(row.lambda2),
                    _fmt(row.sup_gbar_dev),
                    _fmt(row.sup_incoherence_mean),
                    _fmt(row.sup_incoherence_max),
                    str(row.trials),
                    _fmt(row.exceed_frac),
                ]
            )
        )
    return lines


def write_concentration_csv(table: ConcentrationTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(concentration_csv_lines(table)) + "\n")
