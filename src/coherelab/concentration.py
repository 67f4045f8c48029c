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
substream key, so results are independent of evaluation order.  Trials
run one after another; ``COHERELAB_THREADS`` does not apply to them.  A
trial draws its nodes straight into padded coefficient tables (the same
numbers ``sample_nodes`` gives), evaluates every node at a chunk of grid
points in one pass, and solves and norms the chunk's closed-loop systems
as one stack; chunks are sized by a fixed memory budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ValidationError
from .coherence import (
    FrequencyGrid, _fmt, _point_values, _spectral_norm, _transfer_stack, _warn_ill_conditioned,
)
from .network import (
    LaplacianMatrix,
    algebraic_connectivity,
    complete_graph,
    k_regular_ring,
)
from .rational import (
    DEFAULT_TOL_ZERO,
    MAX_DEGREE,
    RationalTF,
    _trim_rows,
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

    def draw(self, rng: np.random.Generator) -> float:
        return self.value

    def draw_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)


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

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.lo, self.hi))

    def draw_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=size)


CoefficientSpec = Union[Constant, Uniform]


def _check_seed(seed) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
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
        _check_seed(self.seed)


def _draw_tf(model: RandomTFModel, rng: np.random.Generator) -> RationalTF:
    num = [spec.draw(rng) for spec in model.num_specs]
    den = [spec.draw(rng) for spec in model.den_specs]
    return RationalTF(num, den)


def _substream(seed: int, key: tuple) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


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
    The concentration experiment reads the same coefficients from that
    substream without building a ``RationalTF`` per draw.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1 draws, got {n}")
    root = model.seed if seed is None else _check_seed(seed)
    return [
        _draw_tf(model, _substream(root, (*spawn_prefix, i))) for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Harmonic expectation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarlo:
    """Estimate the harmonic expectation by averaging 1/g over draws."""

    draws: int
    seed: int | None = None

    def __post_init__(self):
        if self.draws < 1:
            raise ValidationError(f"need at least one draw, got {self.draws}")
        if self.seed is not None:
            _check_seed(self.seed)


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
    deterministic given the seed and call order.
    """
    if method == "closed_form":
        tf = _closed_form_tf(model)

        def evaluate_many(points: np.ndarray) -> np.ndarray:
            return np.array([_finite_eval(tf, s) for s in points])

        return ExpectedDynamics(evaluate_many, tf=tf, method="closed_form")
    if isinstance(method, MonteCarlo):
        root = model.seed if method.seed is None else method.seed
        batches = count()

        def draw_columns(rng: np.random.Generator, specs) -> np.ndarray:
            return np.stack(
                [
                    spec.draw_many(rng, method.draws)
                    for spec in specs
                ]
            )

        def evaluate_many(points: np.ndarray) -> np.ndarray:
            batch = next(batches)
            rng = _substream(root, (batch,))
            num_coeffs = draw_columns(rng, model.num_specs)
            den_coeffs = draw_columns(rng, model.den_specs)
            out = np.empty(len(points), dtype=complex)
            polyval = np.polynomial.polynomial.polyval
            for p, s in enumerate(points):
                inv_vals = polyval(s, den_coeffs) / polyval(s, num_coeffs)
                out[p] = 1.0 / np.mean(inv_vals)
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
    """All-to-all unit-weight coupling; connectivity grows like n."""

    weight: float = 1.0

    def build(self, n: int) -> LaplacianMatrix:
        return complete_graph(n, self.weight)

    def label(self) -> str:
        return "complete"


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

    def label(self) -> str:
        return f"ring:{self.ratio}"


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


# Bytes of one (K, n, n) complex stack: a trial solves and norms its grid
# points in chunks of at most this size (one point where a single n x n
# system is larger).  A few stacks are alive at once, so a small budget
# keeps the peak memory near that of one point at a time; past n ~ 100 the
# LAPACK work outweighs the per-chunk overhead anyway.
_STACK_BYTES = 1 << 18


def _draw_tables(
    model: RandomTFModel, n: int, seed: int, spawn_prefix: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Node tables of ``n`` draws, bit for bit those of ``_node_tables`` on
    ``simplify`` of each ``sample_nodes(model, n, seed, spawn_prefix=...)`` draw.

    Node ``i`` takes substream ``spawn_prefix + (i,)``'s draws in slot
    order (numerator, then denominator) and is normalized as
    ``RationalTF`` normalizes it: trimmed, divided by the leading
    denominator coefficient, trimmed again.  Only a node whose numerator
    is not a nonzero constant and whose denominator is not constant can
    change under ``simplify``; only those nodes, and those ``RationalTF``
    rejects, are built and simplified one by one.
    """
    sides = (model.num_specs, model.den_specs)
    raw = np.zeros((n, 2, max(map(len, sides))))
    drawn = []
    for side, specs in enumerate(sides):
        for k, spec in enumerate(specs):
            if isinstance(spec, Constant):
                raw[:, side, k] = spec.value
            else:
                drawn.append((side, k, spec))
    if drawn:
        # Generator.uniform(lo, hi) computes lo + (hi - lo) * random().
        unit = np.array([_substream(seed, (*spawn_prefix, i)).random(len(drawn)) for i in range(n)])
        lo = np.array([spec.lo for _, _, spec in drawn])
        hi = np.array([spec.hi for _, _, spec in drawn])
        rows, cols = zip(*[(side, k) for side, k, _ in drawn])
        raw[:, rows, cols] = lo + (hi - lo) * unit

    tables, degree = _trim_rows(raw)
    lead = np.where(degree[:, 1] < 0, 1.0, tables[np.arange(n), 1, degree[:, 1]])
    with np.errstate(over="ignore"):  # RationalTF rejects those rows below
        scaled = tables / lead[:, None, None]
    rejected = (
        (degree[:, 1] < 0)
        | (degree.max(axis=1) > MAX_DEGREE)
        | ~np.isfinite(scaled).all(axis=(1, 2))
    )
    tables, degree = _trim_rows(scaled)
    for i in np.flatnonzero(rejected | ((degree[:, 0] != 0) & (degree[:, 1] >= 1))):
        g = simplify(RationalTF(*raw[i]))
        tables[i] = 0.0
        tables[i, 0, : g.num.coeffs.size] = g.num.coeffs
        tables[i, 1, : g.den.coeffs.size] = g.den.coeffs
        degree[i] = g.num.coeffs.size - 1, g.den.coeffs.size - 1
    used = max(int(degree.max()), 0) + 1
    return tables[:, 0, :used], tables[:, 1, :used]


def _trial_measurements(
    model: RandomTFModel,
    n: int,
    lap: LaplacianMatrix,
    points: np.ndarray,
    f_vals: list,
    ghat_vals: np.ndarray,
    seed: int,
    trial: int,
) -> tuple[float, float, float]:
    """One trial: (sup |gbar-ghat|, sup |T - ghat/n 11^T|, max |1/g_i|).

    ``f_vals`` holds the coupling filter's value at each grid point.  The
    grid is taken in chunks: each chunk's points are evaluated in one pass,
    solved as one stack and normed by ``_spectral_norm``.
    """
    num, den = _draw_tables(model, n, seed, (n, trial))
    sup_gbar = 0.0
    sup_inc = 0.0
    max_inv = 0.0
    step = max(1, _STACK_BYTES // (16 * n * n))
    for start in range(0, len(points), step):
        chunk = slice(start, start + step)
        pts = _point_values(num, den, points[chunk], f_vals[chunk], DEFAULT_TOL_ZERO)
        for pt, ghat in zip(pts, ghat_vals[chunk]):
            max_inv = max(max_inv, pt.inv_max)
            gbar_dev = math.inf if is_at_infinity(pt.gbar) else abs(pt.gbar - ghat)
            sup_gbar = max(sup_gbar, gbar_dev)
        t, cond = _transfer_stack(pts, lap.matrix)
        _warn_ill_conditioned(pts, cond)
        t -= (ghat_vals[chunk] / n)[:, None, None]
        sup_inc = max(sup_inc, float(_spectral_norm(t).max()))
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

    For each size ``n`` and each trial, samples node dynamics, builds the
    graph-family Laplacian, and measures over the grid both the coherent
    deviation ``sup |gbar_n - ghat|`` and the matrix deviation
    ``sup |T_n - (1/n) ghat 11^T|`` (spectral norm).  Rows report the
    trial mean of the former, mean/max of the latter, and the fraction of
    trials whose matrix deviation reached ``epsilon``.

    Trials are independent; each derives its random substream from
    ``(seed, n, trial)``, so the table is reproducible.  Static unit
    coupling is the default.
    """
    sizes = [int(n) for n in sizes]
    if not sizes:
        raise ValidationError("need at least one network size")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError(f"sizes must be strictly increasing, got {sizes}")
    if sizes[0] < 2:
        raise ValidationError("network sizes must be at least 2")
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    if not epsilon > 0:
        raise ValidationError(f"threshold epsilon must be positive, got {epsilon}")
    root = model.seed if seed is None else _check_seed(seed)
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

    rows = []
    observed_max_inv = 0.0
    for n in sizes:
        lap = graph_family.build(n)
        lam2 = algebraic_connectivity(lap)
        results = [
            _trial_measurements(model, n, lap, points, f_vals, ghat_vals, root, t)
            for t in range(trials)
        ]
        gbar_devs = [r[0] for r in results]
        inc_sups = [r[1] for r in results]
        observed_max_inv = max(observed_max_inv, *(r[2] for r in results))
        rows.append(
            ConcentrationRow(
                n=n,
                lambda2=lam2,
                sup_gbar_dev=float(np.mean(gbar_devs)),
                sup_incoherence_mean=float(np.mean(inc_sups)),
                sup_incoherence_max=float(np.max(inc_sups)),
                trials=trials,
                exceed_frac=float(np.mean([v >= epsilon for v in inc_sups])),
            )
        )
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
