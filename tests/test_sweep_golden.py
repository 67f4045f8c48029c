"""Golden-output tests for ``sweep``, ``eval`` and ``converge`` at a size
where spectral norms come from the Golub-Kahan iteration.

The network is a seeded 150-node weighted ring with alternating first-
and second-order nodes.  The tables in ``tests/golden/`` were written by
the implementation that took every spectral norm from a full SVD, so
every column must match them byte for byte except the two spectral norms
(``norm_T`` and ``incoherence`` in sweep and eval tables, ``value`` in
the convergence table), which must match to 1e-12 relative.

At this size LAPACK's results depend on the number of BLAS threads (the
Laplacian eigenvalues behind ``eff_conn`` and ``bound`` among them), so
the tables are written, and compared against, with BLAS on one thread:
the tests run the commands in a child process with the thread variables
below set to 1.  Regenerate deliberately, from the source tree whose
output is to become the reference:
``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
PYTHONPATH=src python tests/test_sweep_golden.py``.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import coherelab
from coherelab.cli import main

from conftest import positive_real_ring_text

GOLDEN = Path(__file__).parent / "golden"
N = 150
RTOL = 1e-12
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CASES = {
    "sweep": ["sweep", "--sigma", "0.2", "--omega-min", "0.05", "--omega-max", "10.0",
              "--points", "12", "--spacing", "log"],
    "eval": ["eval", "--sigma", "0.2", "--omega", "0.3"],
    "converge": ["converge", "--sigma", "0.2", "--omega", "0.3", "--alphas", "0.25,1,4,16"],
}
# Columns holding a spectral norm, per table.
NORM_COLUMNS = {"sweep": {"incoherence", "norm_T"}, "eval": {"incoherence", "norm_T"},
                "converge": {"value"}}


def ring_network_text() -> str:
    """Twelve neighbours a side, edge weights U(10, 30)."""
    return positive_real_ring_text(np.random.default_rng(150), N, 12, (10.0, 30.0))


def _run(net: Path, name: str) -> str:
    argv = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([argv[0], "--net", str(net), *argv[1:]])
    if (code, err.getvalue()) != (0, ""):
        raise RuntimeError(f"{name}: exit {code}: {err.getvalue()}")
    return out.getvalue()


def _write_tables(directory: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        net = Path(tmp) / "ring150.net"
        net.write_text(ring_network_text(), encoding="utf-8")
        for name in sorted(CASES):
            (directory / f"{name}_ring150.csv").write_text(_run(net, name), encoding="utf-8")


@pytest.fixture(scope="module")
def tables(tmp_path_factory) -> Path:
    """The three tables, written by a child process with BLAS on one thread."""
    out = tmp_path_factory.mktemp("ring150")
    src = str(Path(coherelab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": path}
    subprocess.run([sys.executable, __file__, str(out)], env=env, check=True)
    return out


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = text.splitlines()
    return header.split(","), [row.split(",") for row in rows]


def test_network_is_above_the_svd_crossover():
    from coherelab.coherence import _LANCZOS_MIN_N

    assert N >= _LANCZOS_MIN_N


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(tables, name):
    header, rows = _table((tables / f"{name}_ring150.csv").read_text(encoding="utf-8"))
    want_header, want_rows = _table((GOLDEN / f"{name}_ring150.csv").read_text(encoding="utf-8"))
    assert header == want_header
    assert len(rows) == len(want_rows)
    norm_cols = [header.index(c) for c in NORM_COLUMNS[name]]
    checked = 0
    for row, want in zip(rows, want_rows):
        assert [c for j, c in enumerate(row) if j not in norm_cols] == \
            [c for j, c in enumerate(want) if j not in norm_cols]
        for j in norm_cols:
            assert (row[j] == "") == (want[j] == "")
            if want[j]:
                assert float(row[j]) == pytest.approx(float(want[j]), rel=RTOL, abs=0.0)
                checked += 1
    assert checked >= len(rows)


if __name__ == "__main__":
    if any(os.environ.get(var) != "1" for var in BLAS_THREADS):
        sys.exit(f"set {', '.join(BLAS_THREADS)} to 1")
    _write_tables(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
