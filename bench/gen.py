"""Workload definitions and their seeded input files.

Every input is drawn from the benchmark's own numpy generator, keyed by
``(seed, workload)``, and written in coherelab's plain-text formats.  The
program under test only ever sees the files; the reference check reads
the same parameters from the returned :class:`Inputs`, never from the
program's parsers.  Each spec also builds the workload's CLI arguments,
and a smaller copy of it (``dataclasses.replace``) serves the self-tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SweepSpec:
    """``coherelab sweep`` on a weighted ring with integrator coupling ``1/s``."""

    name: str = "sweep-ring300"
    n: int = 300
    per_side: int = 22
    weight: float = 20.0
    sigma: float = 0.2
    omega_min: float = 0.05
    omega_max: float = 20.0
    points: int = 20
    margin: float = 1.05

    @property
    def rows(self) -> int:
        return self.points

    def argv(self, inputs: "Inputs", out: Path) -> list[str]:
        return [
            "sweep", "--net", str(inputs.files["net"]), "--out", str(out),
            "--sigma", repr(self.sigma), "--omega-min", repr(self.omega_min),
            "--omega-max", repr(self.omega_max), "--points", str(self.points),
            "--spacing", "log", "--margin", repr(self.margin),
        ]


@dataclass(frozen=True)
class ConcentrateSpec:
    """``coherelab concentrate`` on ``k/s`` populations over complete graphs."""

    name: str = "concentrate-complete"
    gain: tuple[float, float] = (1.0, 5.0)
    sizes: tuple[int, ...] = (20, 50, 100)
    trials: int = 20
    epsilon: float = 0.1
    sigma: float = 0.5
    omega_min: float = 0.1
    omega_max: float = 2.0
    points: int = 8

    @property
    def rows(self) -> int:
        return len(self.sizes)

    def argv(self, inputs: "Inputs", out: Path) -> list[str]:
        return [
            "concentrate", "--model", str(inputs.files["model"]), "--out", str(out),
            "--family", "complete", "--sizes", ",".join(map(str, self.sizes)),
            "--trials", str(self.trials), "--epsilon", repr(self.epsilon),
            "--seed", str(inputs.seed), "--sigma", repr(self.sigma),
            "--omega-min", repr(self.omega_min), "--omega-max", repr(self.omega_max),
            "--points", str(self.points), "--spacing", "lin",
        ]


@dataclass(frozen=True)
class SimulateSpec:
    """``coherelab simulate``: random-gain integrators on a unit-weight ring."""

    name: str = "simulate-ring500"
    n: int = 500
    per_side: int = 37
    gain: tuple[float, float] = (1.0, 5.0)
    t_end: float = 1.0
    dt: float = 0.001

    @property
    def rows(self) -> int:
        return int(round(self.t_end / self.dt)) + 1

    def argv(self, inputs: "Inputs", out: Path) -> list[str]:
        return [
            "simulate", "--net", str(inputs.files["net"]), "--out", str(out),
            "--input", "impulse", "--t-end", repr(self.t_end), "--dt", repr(self.dt),
        ]


SPECS = {spec.name: spec for spec in (SweepSpec(), ConcentrateSpec(), SimulateSpec())}


@dataclass
class Inputs:
    """Generated files plus the exact parameters written into them.

    ``nodes`` holds each node's ascending numerator and denominator
    coefficients, ``edges`` the undirected ``(i, j, weight)`` list and
    ``coupling`` the coupling filter's coefficients (network workloads).
    """

    spec: object
    seed: int
    files: dict[str, Path]
    n: int = 0
    edges: list[tuple[int, int, float]] = field(default_factory=list)
    nodes: list[tuple[list[float], list[float]]] = field(default_factory=list)
    coupling: tuple[list[float], list[float]] = ([1.0], [1.0])

    def sha256(self) -> dict[str, str]:
        return {name: sha256_file(path) for name, path in sorted(self.files.items())}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def ring_edges(n: int, per_side: int, weight: float) -> list[tuple[int, int, float]]:
    return [(i, (i + d) % n, weight) for i in range(n) for d in range(1, per_side + 1)]


def _coeffs(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def network_text(inputs: Inputs) -> str:
    lines = [f"nodes {inputs.n}"]
    lines += [f"edge {i} {j} {w!r}" for i, j, w in inputs.edges]
    lines += [
        f"node {i} num {_coeffs(num)} / den {_coeffs(den)}"
        for i, (num, den) in enumerate(inputs.nodes)
    ]
    num, den = inputs.coupling
    lines.append(f"coupling num {_coeffs(num)} / den {_coeffs(den)}")
    return "\n".join(lines) + "\n"


def _sweep_nodes(rng: np.random.Generator, n: int) -> list[tuple[list[float], list[float]]]:
    """Alternating biproper first- and second-order nodes.

    First order ``k (s + z) / (s + p)`` and second order
    ``k (s^2 + a1 s + a0) / (s^2 + b1 s + b0)`` with
    ``a1 b1 >= 0.64 > (sqrt(a0) - sqrt(b0))^2``, so every node is
    positive real: the harmonic mean has no pole on the grid line and
    every sweep row is a clean ``ok`` point.
    """
    nodes = []
    for i in range(n):
        k = float(rng.uniform(0.5, 2.0))
        if i % 2 == 0:
            z, p = rng.uniform(0.2, 2.0, size=2)
            nodes.append(([k * z, k], [float(p), 1.0]))
        else:
            a0, b0 = rng.uniform(0.5, 2.0, size=2)
            a1, b1 = rng.uniform(0.8, 2.0, size=2)
            nodes.append(([k * a0, k * a1, k], [float(b0), float(b1), 1.0]))
    return nodes


def generate(spec, seed: int, directory: Path) -> Inputs:
    """Write the input files of workload ``spec`` for ``seed`` into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(SPECS).index(spec.name)])

    if isinstance(spec, ConcentrateSpec):
        lo, hi = spec.gain
        path = directory / "population.model"
        path.write_text(f"num U({lo!r},{hi!r})\nden 0 1\nseed {seed}\n", encoding="utf-8")
        return Inputs(spec, seed, {"model": path})

    if isinstance(spec, SweepSpec):
        inputs = Inputs(
            spec, seed, {}, n=spec.n,
            edges=ring_edges(spec.n, spec.per_side, spec.weight),
            nodes=_sweep_nodes(rng, spec.n),
            coupling=([1.0], [0.0, 1.0]),
        )
    else:
        gains = rng.uniform(*spec.gain, size=spec.n)
        inputs = Inputs(
            spec, seed, {}, n=spec.n,
            edges=ring_edges(spec.n, spec.per_side, 1.0),
            nodes=[([float(k)], [0.0, 1.0]) for k in gains],
            coupling=([1.0], [1.0]),
        )
    path = directory / "network.net"
    path.write_text(network_text(inputs), encoding="utf-8")
    inputs.files["net"] = path
    return inputs
