"""Coherent aggregation of generator networks.

A coherent group of generators responds to the summed input like the
single aggregate machine ``g_aggr = (sum_i 1/g_i)^{-1}``.  For swing
dynamics ``1/(m s + d)`` the aggregate is again a swing model with
summed inertia and damping; adding turbine droop keeps a closed form
only when the turbine time constants agree — heterogeneous time
constants produce an aggregate of order n+1, which is the structural
obstruction to representing such a group by one effective machine.
Simulation-based comparison quantifies how far the true network output
is from its aggregate prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .coherence import NetworkModel
from .rational import (
    RationalTF,
    harmonic_mean,
    simplify,
    tf_approx_equal,
    tf_from_text,
    tf_scale,
    tf_to_text,
)
from .timedomain import (
    InputSignal,
    _reference_response,
    closed_loop,
    default_step,
    realize,
    simulate,
)

__all__ = [
    "DroopPresent",
    "MissingDroop",
    "SwingParams",
    "AggregateModel",
    "aggregate_dynamics",
    "swing_aggregate",
    "swing_turbine_aggregate",
    "aggregation_error",
    "aggregate_to_text",
    "aggregate_from_text",
    "TAU_EQUALITY_TOL",
    "PROVENANCE_SWING",
    "PROVENANCE_SWING_TURBINE",
    "PROVENANCE_GENERIC",
]

# Absolute tolerance for treating turbine time constants as identical.
TAU_EQUALITY_TOL = 1e-12

PROVENANCE_SWING = "swing_closed_form"
PROVENANCE_SWING_TURBINE = "swing_turbine_closed_form"
PROVENANCE_GENERIC = "generic_harmonic"
_PROVENANCES = (PROVENANCE_SWING, PROVENANCE_SWING_TURBINE, PROVENANCE_GENERIC)


class DroopPresent(ValidationError):
    """The pure-swing closed form does not cover droop terms."""


class MissingDroop(ValidationError):
    """The swing-with-turbine closed form needs droop on every unit."""


@dataclass(frozen=True)
class SwingParams:
    """One generator: inertia, damping, and optional turbine droop."""

    m: float
    d: float
    r_inv: float | None = None
    tau: float | None = None

    def __post_init__(self):
        if not self.m > 0:
            raise ValidationError(f"inertia must be positive, got {self.m}")
        if not self.d > 0:
            raise ValidationError(f"damping must be positive, got {self.d}")
        if (self.r_inv is None) != (self.tau is None):
            raise ValidationError("droop needs both an inverse droop gain and a time constant")
        if self.r_inv is not None:
            if self.r_inv < 0:
                raise ValidationError(f"inverse droop gain must be >= 0, got {self.r_inv}")
            if not self.tau > 0:
                raise ValidationError(f"turbine time constant must be positive, got {self.tau}")

    @property
    def has_droop(self) -> bool:
        return self.r_inv is not None

    def transfer(self) -> RationalTF:
        """Frequency dynamics of the unit.

        Without droop: 1 / (m s + d).  With droop the turbine loop adds
        ``r_inv / (tau s + 1)`` to the mechanical impedance, giving
        ``(tau s + 1) / (m tau s^2 + (m + d tau) s + d + r_inv)``.
        """
        if not self.has_droop:
            return RationalTF([1.0], [self.d, self.m])
        tau = float(self.tau)
        return RationalTF(
            [1.0, tau],
            [self.d + float(self.r_inv), self.m + self.d * tau, self.m * tau],
        )


@dataclass(frozen=True)
class AggregateModel:
    """The aggregate dynamics and how they were obtained."""

    g_aggr: RationalTF
    provenance: str

    def __post_init__(self):
        if self.provenance not in _PROVENANCES:
            raise ValidationError(f"unknown provenance {self.provenance!r}")

    @property
    def order(self) -> int:
        return self.g_aggr.den.degree


def aggregate_dynamics(gs: Sequence[RationalTF]) -> AggregateModel:
    """Aggregate ``(sum_i 1/g_i)^{-1}`` by exact rational arithmetic."""
    if not gs:
        raise ValidationError("need at least one unit to aggregate")
    return _aggregate_of_mean(harmonic_mean(gs), len(gs))


def _aggregate_of_mean(mean: RationalTF, n: int) -> AggregateModel:
    """The aggregate of ``n`` units with harmonic mean ``mean``."""
    return AggregateModel(simplify(tf_scale(mean, 1.0 / n)), PROVENANCE_GENERIC)


def swing_aggregate(params: Sequence[SwingParams]) -> AggregateModel:
    """Closed-form aggregate of pure swing units: summed inertia/damping."""
    if not params:
        raise ValidationError("need at least one unit to aggregate")
    with_droop = [i for i, p in enumerate(params) if p.has_droop]
    if with_droop:
        raise DroopPresent(
            f"unit {with_droop[0]} carries droop; use the swing-with-turbine form"
        )
    m_sum = sum(p.m for p in params)
    d_sum = sum(p.d for p in params)
    return AggregateModel(RationalTF([1.0], [d_sum, m_sum]), PROVENANCE_SWING)


def swing_turbine_aggregate(params: Sequence[SwingParams]) -> AggregateModel:
    """Aggregate of swing units with turbine droop.

    When every turbine shares one time constant the group collapses to a
    single effective machine (order 2) with summed inertia, damping, and
    inverse droop gains.  Heterogeneous time constants admit no such
    collapse: the exact aggregate has order n+1.
    """
    if not params:
        raise ValidationError("need at least one unit to aggregate")
    missing = [i for i, p in enumerate(params) if not p.has_droop]
    if missing:
        raise MissingDroop(f"unit {missing[0]} has no droop; use the pure swing form")
    taus = [float(p.tau) for p in params]
    if all(abs(t - taus[0]) <= TAU_EQUALITY_TOL for t in taus):
        effective = SwingParams(
            m=sum(p.m for p in params),
            d=sum(p.d for p in params),
            r_inv=sum(float(p.r_inv) for p in params),
            tau=taus[0],
        )
        return AggregateModel(effective.transfer(), PROVENANCE_SWING_TURBINE)
    generic = aggregate_dynamics([p.transfer() for p in params])
    return AggregateModel(generic.g_aggr, PROVENANCE_SWING_TURBINE)


def aggregation_error(
    net: NetworkModel,
    signal: InputSignal,
    t_end: float,
    dt: float | None = None,
    *,
    window_start_fraction: float = 0.1,
) -> float:
    """Worst node-vs-aggregate output deviation over the settled window.

    Simulates the full closed loop and the aggregate reference (the
    coherent mean driven by the summed input) on a shared time grid and
    returns ``max_{i, t >= window_start_fraction * t_end} |y_i(t) - y_ref(t)|``.
    The initial window is excluded because impulse responses start from
    a discontinuity that no aggregate of different order can track.
    Requires integrating coupling ``f = 1/s`` (the power-network
    interconnection this comparison is defined for).
    """
    return _aggregation_error(net, signal, t_end, dt, None, window_start_fraction)


def _aggregation_error(net: NetworkModel, signal: InputSignal, t_end: float, dt: float | None,
                       mean: RationalTF | None, window_start_fraction: float = 0.1) -> float:
    """``aggregation_error`` against the nodes' harmonic mean ``mean``
    (built here when ``None``)."""
    if not tf_approx_equal(net.coupling, RationalTF([1.0], [0.0, 1.0])):
        raise ValidationError("aggregate comparison requires integrating coupling 1/s")
    if not 0.0 <= window_start_fraction < 1.0:
        raise ValidationError("window_start_fraction must be in [0, 1)")
    if mean is None:
        mean = harmonic_mean(net.nodes)
    cl = closed_loop(net)
    ref_ss = realize(tf_scale(mean, 1.0 / net.n))
    if dt is None:
        dt = min(default_step(cl), default_step(ref_ss))
    full = simulate(cl, signal, t_end, dt)
    ref = _reference_response(ref_ss, net.n, signal, t_end, dt)
    window = full.times >= window_start_fraction * t_end
    return float(np.max(np.abs(full.outputs[:, window] - ref.outputs[0, window])))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def aggregate_to_text(model: AggregateModel) -> str:
    return f"{tf_to_text(model.g_aggr)}\nprovenance: {model.provenance}"


def aggregate_from_text(text: str) -> AggregateModel:
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if len(lines) != 2:
        raise ValidationError("expected a transfer-function line and a provenance line")
    if not lines[1].startswith("provenance:"):
        raise ValidationError("second line must start with 'provenance:'")
    provenance = lines[1].split(":", 1)[1].strip()
    return AggregateModel(tf_from_text(lines[0]), provenance)
