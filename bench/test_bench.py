"""Self-tests of the benchmark at tiny sizes: ``python3 -m pytest bench``."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import refcheck  # noqa: E402
import worker  # noqa: E402
from coherelab import cli  # noqa: E402

TINY = {
    "sweep-ring300": dataclasses.replace(gen.SPECS["sweep-ring300"], n=8, per_side=2, points=6),
    "concentrate-complete": dataclasses.replace(
        gen.SPECS["concentrate-complete"], sizes=(4, 6), trials=3, points=3),
    "simulate-ring500": dataclasses.replace(
        gen.SPECS["simulate-ring500"], n=6, per_side=2, t_end=0.05),
}


def _run(name: str, tmp_path: Path, seed: int = 3):
    inputs = gen.generate(TINY[name], seed, tmp_path / "inputs")
    out = tmp_path / "out.csv"
    code = cli.main(TINY[name].argv(inputs, out))
    return inputs, out, code


@pytest.mark.parametrize("name", TINY)
def test_generator_is_deterministic_for_a_fixed_seed(name, tmp_path):
    first = gen.generate(TINY[name], 5, tmp_path / "a").sha256()
    again = gen.generate(TINY[name], 5, tmp_path / "b").sha256()
    other = gen.generate(TINY[name], 6, tmp_path / "c").sha256()
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", TINY)
def test_clean_output_passes_and_one_corrupted_row_is_one_failure(name, tmp_path):
    inputs, out, code = _run(name, tmp_path)
    assert code == 0
    reference = refcheck.reference_for(inputs)
    clean = refcheck.check_file(reference, out)
    assert (clean.rows, clean.failed) == (TINY[name].rows, 0)

    lines = out.read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6) + 1e-6)
    lines[2] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    corrupted = refcheck.check_file(reference, out)
    assert (corrupted.rows, corrupted.failed) == (TINY[name].rows, 1)


def test_truncated_output_fails_the_missing_rows(tmp_path):
    inputs, out, _ = _run("simulate-ring500", tmp_path)
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[:-4]) + "\n")
    result = refcheck.check_file(refcheck.reference_for(inputs), out)
    assert result.failed == 4


def test_nonzero_exit_counts_every_row_as_failed(tmp_path):
    inputs = gen.generate(TINY["sweep-ring300"], 3, tmp_path / "inputs")
    inputs.files["net"].write_text("nodes 2\nedge 0 1 -1.0\n")  # rejected: exit code 1
    out = tmp_path / "out.csv"
    code = cli.main(TINY["sweep-ring300"].argv(inputs, out))
    assert code == 1
    reference = refcheck.reference_for(inputs)
    results = refcheck.check_calls([{"rc": code}, {"rc": 0}], reference, tmp_path)
    assert [r.failed for r in results] == [reference.rows, reference.rows]


@pytest.mark.parametrize("name", TINY)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    inputs = gen.generate(TINY[name], 3, tmp_path / "inputs")
    out = tmp_path / "out.csv"
    job = {"argv": TINY[name].argv(inputs, out), "out": str(out),
           "n": inputs.n, "edges": inputs.edges}
    record = worker.traced(job)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(record["layers"]) == {metric["name"] for metric in declared}
    reference = refcheck.reference_for(inputs)
    results = refcheck.check_calls(record["calls"], reference, tmp_path)
    assert len(results) == 3 and all(r.failed == 0 for r in results)
    spans = record["spans"]
    assert all(s["end"] >= s["start"] for s in spans)
    assert {s["parent"] for s in spans} - {None} <= {s["id"] for s in spans}
