"""Shared generators for randomized tests.

Everything here is deterministic given the numpy Generator passed in, so
seeded tests reproduce bit-for-bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from coherelab.network import LaplacianMatrix, laplacian_from_edges
from coherelab.rational import RationalTF

# The example budget of the property tests that do not pin their own, those
# of test_rational.py; ``--hypothesis-profile=deep`` runs ten times as many.
settings.register_profile("default", max_examples=150, deadline=None)
settings.register_profile("deep", max_examples=1500, deadline=None)


def random_connected_laplacian(rng: np.random.Generator, n: int,
                               extra_edges: int | None = None,
                               weight_range: tuple[float, float] = (0.5, 2.0)) -> LaplacianMatrix:
    """Random spanning tree plus extra chords; always connected."""
    lo, hi = weight_range
    edges = []
    order = rng.permutation(n)
    for idx in range(1, n):
        attach = order[rng.integers(0, idx)]
        edges.append((int(order[idx]), int(attach), float(rng.uniform(lo, hi))))
    if extra_edges is None:
        extra_edges = n // 2
    tries = 0
    present = {(min(i, j), max(i, j)) for i, j, _ in edges}
    while extra_edges > 0 and tries < 50 * n:
        tries += 1
        i, j = rng.integers(0, n, size=2)
        key = (min(int(i), int(j)), max(int(i), int(j)))
        if i == j or key in present:
            continue
        present.add(key)
        edges.append((key[0], key[1], float(rng.uniform(lo, hi))))
        extra_edges -= 1
    return laplacian_from_edges(n, edges)


def random_first_order_tf(rng: np.random.Generator,
                          biproper_fraction: float = 0.5) -> RationalTF:
    """Stable first-order transfer function with moderate coefficients."""
    pole = float(rng.uniform(0.5, 3.0))
    gain = float(rng.uniform(0.5, 2.0))
    if rng.uniform() < biproper_fraction:
        zero = float(rng.uniform(0.5, 3.0))
        return RationalTF([gain * zero, gain], [pole, 1.0])
    return RationalTF([gain], [pole, 1.0])


def random_second_order_tf(rng: np.random.Generator) -> RationalTF:
    """Stable second-order transfer function with distinct real poles."""
    p1 = float(rng.uniform(0.5, 2.0))
    p2 = float(rng.uniform(2.5, 4.0))
    zero = float(rng.uniform(0.5, 3.0))
    gain = float(rng.uniform(0.5, 2.0))
    return RationalTF([gain * zero, gain], [p1 * p2, p1 + p2, 1.0])


def generic_probe_point(rng: np.random.Generator) -> complex:
    """Point in the right half-plane away from the test families' poles."""
    return complex(float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.3, 2.5)))


def positive_real_ring_text(rng: np.random.Generator, n: int, per_side: int,
                            weight_range: tuple[float, float]) -> str:
    """Network-file text of a ring with ``per_side`` neighbours a side and
    edge weights U(weight_range), coupling ``1/s``.

    Even nodes are first order ``k (s + z)/(s + p)``, odd nodes second
    order ``k (s^2 + a1 s + a0)/(s^2 + b1 s + b0)`` with
    ``a1 b1 >= 0.64 > (sqrt(a0) - sqrt(b0))^2``: every node is positive
    real, so a grid line in the right half-plane meets no pole of the
    coherent mean.
    """
    def coeffs(values) -> str:
        return " ".join(repr(float(v)) for v in values)

    lines = [f"nodes {n}"]
    lines += [f"edge {i} {(i + d) % n} {float(rng.uniform(*weight_range))!r}"
              for i in range(n) for d in range(1, per_side + 1)]
    for i in range(n):
        k = rng.uniform(0.5, 2.0)
        if i % 2 == 0:
            z, p = rng.uniform(0.2, 2.0, size=2)
            num, den = [k * z, k], [p, 1.0]
        else:
            a0, b0 = rng.uniform(0.5, 2.0, size=2)
            a1, b1 = rng.uniform(0.8, 2.0, size=2)
            num, den = [k * a0, k * a1, k], [b0, b1, 1.0]
        lines.append(f"node {i} num {coeffs(num)} / den {coeffs(den)}")
    lines.append("coupling num 1.0 / den 0.0 1.0")
    return "\n".join(lines) + "\n"


# A point where the expanded harmonic mean of ``biproper_mean_case`` has a
# pole (one of 31, against a true degree of 50) and the true mean is finite.
SPURIOUS_SYMBOLIC_POLE = 2.132304219262843 - 6.130839606490899j


def biproper_mean_case() -> tuple[list[RationalTF], float]:
    """50 heterogeneous biproper nodes ``(s + z_i)/(s + p_i)`` with z and p
    ~ U(0.5, 2), and the rightmost pole of their coherent mean (near -0.52).

    The nodes come from a ``default_rng(0)`` stream that first drew the
    networks of 10, 20 and 30 nodes, z then p for each size.  Since
    ``1/g_i = 1 + (p_i - z_i)/(s + z_i)``, the poles of the mean are the
    eigenvalues of ``diag(-z) - 1 ((p - z)/n)^T``; Newton steps on
    ``mean_i 1/g_i`` polish the rightmost one to full precision.
    """
    rng = np.random.default_rng(0)
    for n in (10, 20, 30, 50):
        z = rng.uniform(0.5, 2.0, n)
        p = rng.uniform(0.5, 2.0, n)
    eigs = np.linalg.eigvals(np.diag(-z) - np.outer(np.ones(n), (p - z) / n))
    pole = float(eigs[np.argmax(eigs.real)].real)
    for _ in range(3):
        r = (p - z) / (pole + z)
        pole += (1.0 + r.mean()) / (r / (pole + z)).mean()
    nodes = [RationalTF([float(zi), 1.0], [float(pi), 1.0]) for zi, pi in zip(z, p)]
    return nodes, float(pole)
