"""Golden-output tests for the concentration experiment.

Each case runs ``coherelab concentrate`` (or, for Monte-Carlo expectations,
which the CLI does not offer, ``concentration_experiment`` formatted by
``concentration_csv_lines``) and compares it with a table in
``tests/golden/``.  The tables were written by the implementation that
ran every trial one draw and one grid point at a time, inverting and
SVD-ing each dense T.  Ring-family tables must match byte for byte.
Complete-family trials now use the graph's diagonal-plus-rank-one
structure, so there ``lambda2`` (now exactly ``w n``) and the two
incoherence columns must match to 1e-12 relative, and every other column
byte for byte.

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
RTOL = 1e-12
# Cases on the complete family, and the columns that its structured trials
# compute differently.
STRUCTURED_CASES = {"complete_ks", "complete_static_gain", "complete_bench", "montecarlo_biproper"}
STRUCTURED_COLUMNS = {"lambda2", "sup_incoherence_mean", "sup_incoherence_max"}

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


def _assert_matches(out: str, name: str) -> None:
    want = _expected(name)
    if name not in STRUCTURED_CASES:
        assert out == want
        return
    assert out.endswith("\n")
    header, *rows = [line.split(",") for line in out.splitlines()]
    want_header, *want_rows = [line.split(",") for line in want.splitlines()]
    assert header == want_header
    assert len(rows) == len(want_rows)
    loose = [header.index(c) for c in STRUCTURED_COLUMNS]
    for row, want_row in zip(rows, want_rows):
        assert [c for j, c in enumerate(row) if j not in loose] == \
            [c for j, c in enumerate(want_row) if j not in loose]
        for j in loose:
            assert float(row[j]) == pytest.approx(float(want_row[j]), rel=RTOL, abs=0.0)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_matches_golden(tmp_path, name):
    code, out, err = _cli_output(tmp_path, name)
    assert (code, err) == (0, "")
    _assert_matches(out, name)


def test_cli_out_file_matches_golden(tmp_path):
    text, args = CLI_CASES["complete_ks"]
    model = tmp_path / "ks.model"
    model.write_text(text, encoding="utf-8")
    target = tmp_path / "table.csv"
    assert main(["concentrate", "--model", str(model), "--out", str(target), *args]) == 0
    _assert_matches(target.read_text(encoding="utf-8"), "complete_ks")


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_table_matches_golden(name):
    _assert_matches(_library_output(name), name)


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
