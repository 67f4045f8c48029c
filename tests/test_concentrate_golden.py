"""Golden-output tests for the concentration experiment.

Each case runs ``coherelab concentrate`` (or, for Monte-Carlo expectations,
which the CLI does not offer, ``concentration_experiment`` formatted by
``concentration_csv_lines``) and compares the bytes with a table in
``tests/golden/``.  The tables were written by the implementation that
ran every trial one draw and one grid point at a time, so they pin the
batched trial path to the same digits.

Regenerate deliberately, from the source tree whose output is to become
the reference: ``PYTHONPATH=src python tests/test_concentrate_golden.py``.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from coherelab import RationalTF
from coherelab.cli import main
from coherelab.coherence import FrequencyGrid
from coherelab.concentration import (
    CompleteFamily,
    Constant,
    MonteCarlo,
    RandomTFModel,
    RingFamily,
    Uniform,
    concentration_csv_lines,
    concentration_experiment,
    expected_dynamics,
)

GOLDEN = Path(__file__).parent / "golden"

KS_MODEL = "num U(1,5)\nden 0 1\nseed 7\n"

# name -> (model file text, concentrate arguments after --model)
CLI_CASES = {
    "complete_ks": (KS_MODEL, [
        "--family", "complete", "--sizes", "4,8,16", "--trials", "4",
        "--epsilon", "0.2", "--seed", "3", "--points", "5",
    ]),
    "ring_ks": (KS_MODEL, [
        "--family", "ring:0.3", "--sizes", "8,16", "--trials", "3", "--seed", "1",
        "--sigma", "0.3", "--omega-min", "0.1", "--omega-max", "4.0",
        "--points", "4", "--spacing", "log",
    ]),
    # A static random gain k/2 is biproper (degree 0 over degree 0).
    "complete_static_gain": ("num U(1,5)\nden 2\nseed 4\n", [
        "--family", "complete", "--sizes", "5,10", "--trials", "3", "--points", "3",
    ]),
    # The benchmark's population and grid, with fewer trials.
    "complete_bench": ("num U(1.0,5.0)\nden 0 1\nseed 1\n", [
        "--family", "complete", "--sizes", "20,50,100", "--trials", "3",
        "--epsilon", "0.1", "--seed", "1", "--sigma", "0.5", "--omega-min", "0.1",
        "--omega-max", "2.0", "--points", "8", "--spacing", "lin",
    ]),
}


def _biproper_experiment():
    model = RandomTFModel(
        (Uniform(0.5, 2.0), Constant(1.0)), (Uniform(0.5, 2.0), Constant(1.0)), seed=4
    )
    return concentration_experiment(
        model, CompleteFamily(), [6, 12], FrequencyGrid.linear(0.3, 0.2, 3.0, 6), 3, 0.1, 5,
        coupling=RationalTF([3.0], [1.0, 1.0]),
        expected=expected_dynamics(model, MonteCarlo(200, seed=9)),
    )


def _cancelling_experiment():
    # k s / s: every draw carries a factor that simplification cancels.
    model = RandomTFModel(
        (Constant(0.0), Uniform(1.0, 2.0)), (Constant(0.0), Constant(1.0)), seed=2
    )
    return concentration_experiment(
        model, RingFamily(0.4), [5, 10], FrequencyGrid.logarithmic(0.2, 0.1, 5.0, 5), 3, 0.1,
        expected=expected_dynamics(model, MonteCarlo(100, seed=2)),
    )


LIBRARY_CASES = {
    "montecarlo_biproper": _biproper_experiment,
    "montecarlo_cancelling_ring": _cancelling_experiment,
}


def _cli_output(tmp_path: Path, name: str) -> tuple[int, str, str]:
    text, args = CLI_CASES[name]
    model = tmp_path / f"{name}.model"
    model.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["concentrate", "--model", str(model), *args])
    return code, out.getvalue(), err.getvalue()


def _library_output(name: str) -> str:
    return "\n".join(concentration_csv_lines(LIBRARY_CASES[name]())) + "\n"


def _expected(name: str) -> str:
    return (GOLDEN / f"concentrate_{name}.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_matches_golden(tmp_path, name):
    code, out, err = _cli_output(tmp_path, name)
    assert (code, err) == (0, "")
    assert out == _expected(name)


def test_cli_out_file_matches_golden(tmp_path):
    text, args = CLI_CASES["complete_ks"]
    model = tmp_path / "ks.model"
    model.write_text(text, encoding="utf-8")
    target = tmp_path / "table.csv"
    assert main(["concentrate", "--model", str(model), "--out", str(target), *args]) == 0
    assert target.read_bytes() == (GOLDEN / "concentrate_complete_ks.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_table_matches_golden(name):
    assert _library_output(name) == _expected(name)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CLI_CASES):
            code, out, err = _cli_output(Path(tmp), case)
            if code != 0 or err:
                sys.exit(f"{case}: exit {code}: {err}")
            (GOLDEN / f"concentrate_{case}.csv").write_text(out, encoding="utf-8")
    for case in sorted(LIBRARY_CASES):
        (GOLDEN / f"concentrate_{case}.csv").write_text(_library_output(case), encoding="utf-8")
