"""Independent numpy references for the workload outputs.

Nothing here calls coherelab's evaluation code.  The references rebuild
every quantity from the generator's own parameters with dense numpy
linear algebra; the only coherelab function used is ``sample_nodes``,
which supplies the concentration experiment's random draws.

One checked operation is one output row.  A row fails when it is
missing, malformed, or off the reference by more than the tolerances
below; rows beyond the expected count fail too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RTOL = 1e-9
_POLYVAL = np.polynomial.polynomial.polyval


@dataclass
class CheckResult:
    rows: int
    failed: int = 0
    worst: float = 0.0  # largest relative deviation seen in a parsed row
    notes: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, row: int, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(f"row {row}: {why}")

    def deviation(self, got: float, want: float, scale: float | None = None) -> float:
        dev = abs(got - want) / max(abs(want) if scale is None else scale, 1e-300)
        self.worst = max(self.worst, dev)
        return dev


def all_failed(rows: int, why: str) -> CheckResult:
    """A run whose command exited non-zero: every expected row failed."""
    result = CheckResult(rows, failed=rows)
    result.notes.append(why)
    return result


def laplacian(n: int, edges) -> np.ndarray:
    lap = np.zeros((n, n))
    for i, j, w in edges:
        lap[i, j] -= w
        lap[j, i] -= w
        lap[i, i] += w
        lap[j, j] += w
    return lap


def _inverse_gains(nodes, s: np.ndarray) -> np.ndarray:
    """``1/g_i(s)`` for every node (rows) and point (columns)."""
    return np.array([_POLYVAL(s, den) / _POLYVAL(s, num) for num, den in nodes])


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _transfer_stack(inv: np.ndarray, f: np.ndarray, lap: np.ndarray) -> np.ndarray:
    """``T = (diag(inv[:, p]) + f[p] L)^-1`` for every point ``p``."""
    n = lap.shape[0]
    a = f[:, None, None] * lap[None, :, :].astype(complex)
    idx = np.arange(n)
    a[:, idx, idx] += inv.T
    return np.linalg.solve(a, np.broadcast_to(np.eye(n, dtype=complex), a.shape))


def _split_rows(text: str, header: str, rows: int, result: CheckResult) -> list[str] | None:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        result.failed = rows
        result.notes.append("header mismatch")
        return None
    body = lines[1:]
    for k in range(rows, len(body)):
        result.fail(k, "unexpected extra row")
    for k in range(len(body), rows):
        result.fail(k, "missing row")
    return body[:rows]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class SweepReference:
    """Dense solve plus SVD at every grid point, and the Lemma 4 bound."""

    header = "sigma,omega,incoherence,bound,eff_conn,norm_T,multiplicity,status"

    def __init__(self, inputs, chunk: int = 20):
        spec = inputs.spec
        self.rows = spec.points
        self.s = spec.sigma + 1j * np.geomspace(spec.omega_min, spec.omega_max, spec.points)
        lap = laplacian(inputs.n, inputs.edges)
        lam2 = float(np.linalg.eigvalsh(lap)[1])
        inv = _inverse_gains(inputs.nodes, self.s)
        cnum, cden = inputs.coupling
        f = _POLYVAL(self.s, cnum) / _POLYVAL(self.s, cden)
        gbar = inputs.n / inv.sum(axis=0)
        self.norm_t = np.empty(self.rows)
        self.incoherence = np.empty(self.rows)
        for lo in range(0, self.rows, chunk):
            sl = slice(lo, lo + chunk)
            t = _transfer_stack(inv[:, sl], f[sl], lap)
            self.norm_t[sl] = _spectral_norms(t)
            self.incoherence[sl] = _spectral_norms(t - (gbar[sl] / inputs.n)[:, None, None])
        self.eff_conn = np.abs(f) * lam2
        m1 = spec.margin * float(np.max(np.abs(gbar)))
        m2 = spec.margin * float(np.max(np.abs(inv)))
        self.bound_denom = self.eff_conn - m2 - m1 * m2 * m2
        self.bound = (m1 * m2 + 1.0) ** 2 / self.bound_denom

    def check(self, text: str) -> CheckResult:
        result = CheckResult(self.rows)
        body = _split_rows(text, self.header, self.rows, result)
        for k, line in enumerate(body or []):
            why = self._check_row(k, line, result)
            if why:
                result.fail(k, why)
        return result

    def _check_row(self, k: int, line: str, result: CheckResult) -> str | None:
        cells = line.split(",")
        if len(cells) != 8:
            return f"expected 8 cells, got {len(cells)}"
        if cells[6] != "0" or cells[7] != "ok":
            return f"multiplicity/status {cells[6]}/{cells[7]}, expected 0/ok"
        try:
            sigma, omega, inc, eff, norm_t = (float(cells[i]) for i in (0, 1, 2, 4, 5))
            bound = float(cells[3]) if cells[3] else None
        except ValueError as exc:
            return f"unparsable cell: {exc}"
        s = self.s[k]
        if result.deviation(sigma, s.real) > 1e-12 or result.deviation(omega, s.imag) > 1e-12:
            return f"grid point {sigma}+{omega}j, expected {s}"
        for got, want, what in (
            (inc, self.incoherence[k], "incoherence"),
            (eff, self.eff_conn[k], "eff_conn"),
            (norm_t, self.norm_t[k], "norm_T"),
        ):
            if not result.deviation(got, want) <= RTOL:
                return f"{what} {got!r}, reference {want!r}"
        denom = self.bound_denom[k]
        if bound is not None and not bound >= inc * (1.0 - 1e-12):
            return f"bound {bound!r} below incoherence {inc!r}"
        if abs(denom) <= RTOL * self.eff_conn[k]:
            return None  # applicability is a rounding decision here
        if (bound is not None) != (denom > 0):
            return f"bound {'present' if bound is not None else 'absent'}, reference denominator {denom!r}"
        if bound is not None:
            # The bound's relative sensitivity grows as its denominator shrinks.
            slack = RTOL * self.eff_conn[k] / denom
            if not result.deviation(bound, self.bound[k]) <= slack:
                return f"bound {bound!r}, reference {self.bound[k]!r}"
        return None


# ---------------------------------------------------------------------------
# concentrate
# ---------------------------------------------------------------------------


class ConcentrateReference:
    """Every (size, trial) recomputed from the same ``sample_nodes`` draws."""

    header = "n,lambda2,sup_gbar_dev,sup_incoherence_mean,sup_incoherence_max,trials,exceed_frac"

    def __init__(self, inputs):
        from coherelab.concentration import Constant, RandomTFModel, Uniform, sample_nodes

        spec = inputs.spec
        lo, hi = spec.gain
        model = RandomTFModel((Uniform(lo, hi),), (Constant(0.0), Constant(1.0)), seed=inputs.seed)
        s = spec.sigma + 1j * np.linspace(spec.omega_min, spec.omega_max, spec.points)
        # Harmonic expectation of k/s with k ~ U(lo, hi): E[1/k]^-1 / s.
        ghat = (hi - lo) / (math.log(hi) - math.log(lo)) / s
        self.rows = len(spec.sizes)
        self.expected = []
        for n in spec.sizes:
            lap = n * np.eye(n) - np.ones((n, n))
            gbar_devs, inc_sups = [], []
            for trial in range(spec.trials):
                gs = sample_nodes(model, n, seed=inputs.seed, spawn_prefix=(n, trial))
                inv = _inverse_gains([(g.num.coeffs, g.den.coeffs) for g in gs], s)
                gbar = n / inv.sum(axis=0)
                gbar_devs.append(float(np.max(np.abs(gbar - ghat))))
                t = _transfer_stack(inv, np.ones(len(s), dtype=complex), lap)
                inc_sups.append(float(np.max(_spectral_norms(t - (ghat / n)[:, None, None]))))
            inc = np.array(inc_sups)
            # Trials within RTOL of epsilon may land on either side of it.
            near = np.abs(inc - spec.epsilon) <= RTOL * spec.epsilon
            exceed = (float(np.mean((inc >= spec.epsilon) & ~near)),
                      float(np.mean((inc >= spec.epsilon) | near)))
            self.expected.append((
                n, float(np.linalg.eigvalsh(lap)[1]), float(np.mean(gbar_devs)),
                float(np.mean(inc)), float(np.max(inc)), spec.trials, exceed,
            ))

    def check(self, text: str) -> CheckResult:
        result = CheckResult(self.rows)
        body = _split_rows(text, self.header, self.rows, result)
        for k, line in enumerate(body or []):
            why = self._check_row(line, self.expected[k], result)
            if why:
                result.fail(k, why)
        return result

    @staticmethod
    def _check_row(line: str, want, result: CheckResult) -> str | None:
        cells = line.split(",")
        if len(cells) != 7:
            return f"expected 7 cells, got {len(cells)}"
        try:
            n, trials = int(cells[0]), int(cells[5])
            values = [float(c) for c in cells[1:5]]
            exceed = float(cells[6])
        except ValueError as exc:
            return f"unparsable cell: {exc}"
        if (n, trials) != (want[0], want[5]):
            return f"n/trials {n}/{trials}, expected {want[0]}/{want[5]}"
        names = ("lambda2", "sup_gbar_dev", "sup_incoherence_mean", "sup_incoherence_max")
        for got, ref, what in zip(values, want[1:5], names):
            if not result.deviation(got, ref) <= RTOL:
                return f"{what} {got!r}, reference {ref!r}"
        lo, hi = want[6]
        if not lo - 1e-12 <= exceed <= hi + 1e-12:
            return f"exceed_frac {exceed!r}, reference range [{lo!r}, {hi!r}]"
        return None


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class SimulateReference:
    """Modal solutions of the impulse response of ``k_i/s`` nodes.

    With ``y = K x``, ``dx/dt = u - L y`` and ``x(0) = 1``, the exact
    output is ``y(t) = K^1/2 V exp(-Lambda t) V^T K^1/2 1`` where
    ``K^1/2 L K^1/2 = V Lambda V^T``.  A fixed-step integrator with the
    requested ``dt`` instead follows its own flow: classical RK4 replaces
    ``exp(-lambda t_k)`` by ``R(-lambda dt)^k`` with
    ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``.  A row passes when it
    matches either flow; ``info["exact_flow_dev"]`` keeps the distance to
    the exact one, which is the integrator's truncation error.
    """

    def __init__(self, inputs):
        spec = inputs.spec
        gains = np.array([num[0] / den[1] for num, den in inputs.nodes])
        root = np.sqrt(gains)
        lap = laplacian(inputs.n, inputs.edges)
        lam, vecs = np.linalg.eigh(root[:, None] * lap * root[None, :])
        self.rows = spec.rows
        self.n = inputs.n
        self.times = np.arange(self.rows) * spec.dt
        weights = vecs.T @ root
        z = -lam * spec.dt
        rk4 = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
        self.flows = [
            ((np.exp(-np.outer(self.times, lam)) * weights) @ vecs.T) * root,
            ((np.power(rk4[None, :], np.arange(self.rows)[:, None]) * weights) @ vecs.T) * root,
        ]
        self.scale = float(np.max(np.abs(self.flows[0])))
        self.header = "t," + ",".join(f"y_{i}" for i in range(inputs.n))

    def check(self, text: str) -> CheckResult:
        result = CheckResult(self.rows, info={"exact_flow_dev": 0.0})
        body = _split_rows(text, self.header, self.rows, result)
        for k, line in enumerate(body or []):
            try:
                row = np.array([float(c) for c in line.split(",")])
            except ValueError as exc:
                result.fail(k, f"unparsable cell: {exc}")
                continue
            if row.shape != (self.n + 1,):
                result.fail(k, f"expected {self.n + 1} cells, got {row.size}")
                continue
            self._check_row(k, row, result)
        return result

    def _check_row(self, k: int, row: np.ndarray, result: CheckResult) -> None:
        if result.deviation(row[0], self.times[k], max(self.times[-1], 1.0)) > 1e-12:
            result.fail(k, f"t = {row[0]!r}, expected {self.times[k]!r}")
            return
        exact, rk4 = (float(np.max(np.abs(row[1:] - flow[k]))) / self.scale for flow in self.flows)
        info = result.info
        info["exact_flow_dev"] = max(info["exact_flow_dev"], exact)
        if not result.deviation(min(exact, rk4), 0.0, 1.0) <= RTOL:
            result.fail(k, f"max |y - y_ref| / max |y_ref| = {exact:.3e} (exact), "
                           f"{rk4:.3e} (RK4) exceeds {RTOL:g}")


def reference_for(inputs):
    kind = {
        "SweepSpec": SweepReference,
        "ConcentrateSpec": ConcentrateReference,
        "SimulateSpec": SimulateReference,
    }[type(inputs.spec).__name__]
    return kind(inputs)


def check_file(reference, path: Path) -> CheckResult:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return all_failed(reference.rows, f"cannot read output: {exc}")
    return reference.check(text)


def check_calls(calls: list[dict], reference, workdir: Path) -> list[CheckResult]:
    """One check result per call; identical outputs are checked once."""
    by_output: dict[str, CheckResult] = {}
    results = []
    for call in calls:
        if call["rc"] != 0:
            results.append(all_failed(reference.rows, f"exit code {call['rc']}"))
        elif "output" not in call:
            results.append(all_failed(reference.rows, "no output file"))
        else:
            name = call["output"]
            if name not in by_output:
                by_output[name] = check_file(reference, workdir / name)
            results.append(by_output[name])
    return results
