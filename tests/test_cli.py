"""End-to-end tests of the command-line interface."""

import collections
import os
import subprocess
import sys

import numpy as np
import pytest

import coherelab
from coherelab import NetworkModel, NumericalError, RationalTF, complete_graph
from coherelab import _parallel, aggregate, cli, coherence, concentration, rational, timedomain
from coherelab.cli import main
from coherelab.netfile import network_file_text

from conftest import SPURIOUS_SYMBOLIC_POLE, biproper_mean_case, positive_real_ring_text

CONSENSUS_K4 = """\
nodes 4
edge 0 1 1.0
edge 0 2 1.0
edge 0 3 1.0
edge 1 2 1.0
edge 1 3 1.0
edge 2 3 1.0
node 0 num 1.0 / den 0.0 1.0
node 1 num 2.0 / den 0.0 1.0
node 2 num 3.0 / den 0.0 1.0
node 3 num 4.0 / den 0.0 1.0
coupling num 1.0 / den 1.0
"""

# Static heterogeneous gains with integrating coupling: the classic
# setting where low frequencies are the most coherent.
GAINS_K4 = """\
nodes 4
edge 0 1 1.0
edge 0 2 1.0
edge 0 3 1.0
edge 1 2 1.0
edge 1 3 1.0
edge 2 3 1.0
node 0 num 1.0 / den 1.0
node 1 num 2.0 / den 1.0
node 2 num 3.0 / den 1.0
node 3 num 4.0 / den 1.0
coupling num 1.0 / den 0.0 1.0
"""

SWING_LINE = """\
nodes 3
edge 0 1 2.0
edge 1 2 2.0
edge 0 2 2.0
node 0 num 1.0 / den 1.0 1.0
node 1 num 1.0 / den 1.5 2.0
node 2 num 1.0 / den 0.5 1.5
coupling num 1.0 / den 0.0 1.0
"""

# Two integrators with static unit coupling: closed-loop poles at 0 and -2.
CONSENSUS_PAIR = """\
nodes 2
edge 0 1 1.0
node 0 num 1.0 / den 0.0 1.0
node 1 num 1.0 / den 0.0 1.0
coupling num 1.0 / den 1.0
"""

SINGLE_NODE = """\
nodes 1
node 0 num 1.0 / den 1.0 1.0
coupling num 1.0 / den 1.0
"""

# Feedthrough 1 at both nodes against coupling -1: I + D_G d_f L is singular.
ALGEBRAIC_LOOP = """\
nodes 2
edge 0 1 0.5
node 0 num 2.0 1.0 / den 1.0 1.0
node 1 num 2.0 1.0 / den 1.0 1.0
coupling num -1.0 / den 1.0
"""

KS_MODEL = "num U(1,5)\nden 0 1\nseed 7\n"

NEAR_SINGULAR_RING = """\
nodes 6
edge 0 1 1.0
edge 0 5 1.0
edge 1 2 1.0
edge 2 3 1.0
edge 3 4 1.0
edge 4 5 1.0
node 0 num 3.5478467492858172 / den 0.0 1.0
node 1 num 2.0791468550554812 / den 0.0 1.0
node 2 num 1.1638940957447788 / den 0.0 1.0
node 3 num 1.0661105421141164 / den 0.0 1.0
node 4 num 4.25308095680109 / den 0.0 1.0
node 5 num 4.651022309110887 / den 0.0 1.0
coupling num 1.0 / den 1.0
"""


@pytest.fixture
def netfile(tmp_path):
    def write(text, name="net.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_single_node_has_zero_incoherence(self, capsys, netfile):
        code, out, _ = run(capsys, "eval", "--net", netfile(SINGLE_NODE),
                           "--sigma", "1.0", "--omega", "0.0")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("sigma,omega,incoherence")
        fields = row.split(",")
        assert fields[0] == "1.0"
        assert float(fields[2]) == 0.0
        assert fields[-1] == "ok"

    def test_explicit_envelope_constants(self, capsys, netfile):
        code, out, _ = run(capsys, "eval", "--net", netfile(CONSENSUS_K4),
                           "--sigma", "0.5", "--omega", "1.0",
                           "--m1", "5.0", "--m2", "3.0")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    @pytest.mark.parametrize("m1,m2", [("nan", "nan"), ("nan", "3.0"), ("-1", "3.0"), ("5.0", "0")])
    def test_envelope_constants_must_be_positive_numbers(self, capsys, netfile, m1, m2):
        code, out, err = run(capsys, "eval", "--net", netfile(CONSENSUS_K4),
                             "--sigma", "0.5", "--omega", "1.0", "--m1", m1, "--m2", m2)
        assert code == 1
        assert out == ""
        assert "coherelab: error: envelope constants must be positive" in err


    def test_a_gain_whose_inverse_overflows_is_a_numerical_failure(self, capsys, netfile):
        net = CONSENSUS_PAIR.replace("node 0 num 1.0", "node 0 num 2.225073858507e-311")
        code, out, err = run(capsys, "eval", "--net", netfile(net),
                             "--sigma", "0.5", "--omega", "1.0")
        assert (code, out, err) == (
            2, "", "coherelab: numerical failure: 1/g_0(s) overflows at s = (0.5+1j): "
                   "the node gain is too small to invert\n")

class TestSweep:
    def test_low_frequency_is_most_coherent(self, capsys, netfile):
        code, out, _ = run(
            capsys, "sweep", "--net", netfile(GAINS_K4),
            "--sigma", "0.0", "--omega-min", "0.01", "--omega-max", "10.0",
            "--points", "50", "--spacing", "log",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 51  # header + one row per grid point
        rows = [line.split(",") for line in lines[1:]]
        omegas = [float(r[1]) for r in rows]
        incoherences = [float(r[2]) for r in rows]
        assert omegas == sorted(omegas)
        assert np.argmin(incoherences) == 0
        assert all(r[-1] == "ok" for r in rows)

    def test_no_bounds_leaves_column_empty(self, capsys, netfile):
        code, out, _ = run(
            capsys, "sweep", "--net", netfile(CONSENSUS_K4),
            "--sigma", "0.5", "--omega-min", "0.5", "--omega-max", "1.0",
            "--points", "3", "--no-bounds",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert line.split(",")[3] == ""

    @pytest.mark.parametrize("margin", ["nan", "0.5", "0", "-1"])
    def test_margin_below_one_is_rejected(self, capsys, netfile, margin):
        code, out, err = run(
            capsys, "sweep", "--net", netfile(GAINS_K4), "--sigma", "0.1",
            "--points", "7", "--margin", margin,
        )
        assert code == 1
        assert out == ""
        assert "coherelab: error: margin must be >= 1" in err


class TestForkedPoints:
    """``sweep``'s points and ``converge``'s multipliers at every worker count."""

    ARGV = {
        "sweep": ["--sigma", "0.5", "--omega-min", "0.1", "--omega-max", "2.0", "--points", "8"],
        "converge": ["--sigma", "0.5", "--omega", "1.0", "--alphas", "16,1,4,2"],
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_a_bad_thread_count_fails_before_the_file_is_created(self, capsys, netfile,
                                                                 tmp_path, monkeypatch,
                                                                 command):
        # Below the fork cutoff, and beside a BLAS pool or not.
        monkeypatch.setenv("COHERELAB_THREADS", "abc")
        path = tmp_path / "out.csv"
        for one_thread in (True, False):
            monkeypatch.setattr(_parallel, "runs_one_thread", lambda: one_thread)
            assert run(capsys, command, "--net", netfile(CONSENSUS_K4), *self.ARGV[command],
                       "--out", str(path)) == (
                1, "", "coherelab: error: COHERELAB_THREADS must be an integer, got 'abc'\n")
            assert not path.exists()

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_every_thread_count_writes_the_same_bytes(self, capsys, netfile, tmp_path,
                                                      monkeypatch, command):
        monkeypatch.setattr(_parallel, "_FORK_WORK", 0)
        monkeypatch.setattr(_parallel, "runs_one_thread", lambda: True)
        forked, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
        argv = [command, "--net", netfile(CONSENSUS_K4), *self.ARGV[command]]
        monkeypatch.setenv("COHERELAB_THREADS", "1")
        code, want, _ = run(capsys, *argv)
        assert code == 0 and not forked
        for threads in ("2", "3", None):
            if threads is None:
                monkeypatch.delenv("COHERELAB_THREADS")
            else:
                monkeypatch.setenv("COHERELAB_THREADS", threads)
            path = tmp_path / f"out-{threads}.csv"
            assert run(capsys, *argv) == (0, want, "")
            assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
            assert path.read_bytes() == want.encode()
        assert forked
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestConverge:
    def test_rows_sorted_by_multiplier(self, capsys, netfile):
        code, out, _ = run(
            capsys, "converge", "--net", netfile(CONSENSUS_K4),
            "--sigma", "0.5", "--omega", "1.0", "--alphas", "16,1,4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,value,bound,kind"
        alphas = [float(line.split(",")[0]) for line in lines[1:]]
        assert alphas == [1.0, 4.0, 16.0]
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values[0] > values[1] > values[2]

    def test_an_ill_conditioned_solve_warns_on_stderr_only(self, tmp_path):
        # Six integrators k_i/s on a ring, probed where diag(s/k_i) + L is
        # nearly singular: stdout keeps its bytes, stderr carries one
        # warning per multiplier.
        path = tmp_path / "ring.net"
        path.write_text(NEAR_SINGULAR_RING)
        src = os.path.dirname(os.path.dirname(coherelab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "coherelab.cli", "converge", "--net", str(path),
             "--sigma", "1e-13", "--omega", "1e-13", "--alphas", "1,2"],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == (b"alpha,value,bound,kind\n"
                               b"1.0,26816321334.19072,9.371584931502703,incoherence\n"
                               b"2.0,12084142584.455996,4.685792465750352,incoherence\n")
        warned = [line for line in proc.stderr.decode().splitlines()
                  if "IllConditionedWarning" in line]
        assert [line.rsplit(" ", 1)[1] for line in warned] == ["5.645e+13", "1.128e+14"]

    def test_bad_alphas_flag(self, capsys, netfile):
        code, _, err = run(
            capsys, "converge", "--net", netfile(CONSENSUS_K4),
            "--sigma", "0.5", "--omega", "1.0", "--alphas", "1,zap",
        )
        assert code == 1
        assert "--alphas" in err


class TestClosedLoopPole:
    """T does not exist at a pole of the closed loop; eval and sweep report
    the point as ill_conditioned with its T columns empty, and warn nothing."""

    def test_eval(self, capsys, netfile):
        code, out, err = run(capsys, "eval", "--net", netfile(CONSENSUS_PAIR),
                             "--sigma", "-2", "--omega", "0")
        assert (code, err) == (0, "")
        sigma, omega, inc, bound, eff, norm_t, mult, status = out.splitlines()[1].split(",")
        assert (inc, bound, norm_t, status) == ("", "", "", "ill_conditioned")
        assert (sigma, eff, mult) == ("-2.0", "2.0", "0")  # |f| lambda_2 = 2

    def test_sweep(self, capsys, netfile):
        code, out, err = run(capsys, "sweep", "--net", netfile(CONSENSUS_PAIR), "--sigma", "-2",
                             "--omega-min", "0", "--omega-max", "1", "--points", "3")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[-1] for row in rows] == ["ill_conditioned", "ok", "ok"]
        assert rows[0][2] == rows[0][3] == rows[0][5] == ""
        assert all(row[2] and row[5] for row in rows[1:])


class TestCoherentPoles:
    """The rightmost true pole of a 50-node heterogeneous coherent mean,
    and a pole of its (wrong) expanded form where the mean is finite."""

    @pytest.fixture
    def case(self, netfile):
        nodes, pole = biproper_mean_case()
        net = NetworkModel(complete_graph(50), nodes, RationalTF([1.0], [1.0]))
        return netfile(network_file_text(net)), pole

    def test_eval_at_the_true_pole(self, capsys, case):
        path, pole = case
        code, out, _ = run(capsys, "eval", "--net", path, "--sigma", repr(pole), "--omega", "0")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[-1] == "pole_gbar" and row[2] == ""

    def test_converge_at_the_true_pole_reports_the_transfer_norm(self, capsys, case):
        path, pole = case
        code, out, err = run(capsys, "converge", "--net", path, "--sigma", repr(pole),
                             "--omega", "0", "--alphas", "1,4,16")
        assert (code, err) == (0, "")
        assert [line.split(",")[-1] for line in out.splitlines()[1:]] == ["norm_T"] * 3

    def test_eval_at_a_spurious_symbolic_pole(self, capsys, case):
        path, _ = case
        code, out, _ = run(capsys, "eval", "--net", path,
                           "--sigma", repr(SPURIOUS_SYMBOLIC_POLE.real),
                           "--omega", repr(SPURIOUS_SYMBOLIC_POLE.imag))
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[-1] == "ok" and float(row[2]) == pytest.approx(0.01975, rel=1e-3)


class TestSimulate:
    def test_impulse_with_reference_column(self, capsys, netfile):
        code, out, _ = run(
            capsys, "simulate", "--net", netfile(CONSENSUS_K4),
            "--input", "impulse", "--t-end", "1.0", "--reference",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,y_0,y_1,y_2,y_3,y_ref"
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1:5] == [1.0, 2.0, 3.0, 4.0]

    def test_step_input_spec(self, capsys, netfile):
        code, out, _ = run(
            capsys, "simulate", "--net", netfile(SWING_LINE),
            "--input", "step:1:2.0", "--t-end", "0.5",
        )
        assert code == 0
        assert out.splitlines()[0] == "t,y_0,y_1,y_2"

    def test_oversized_step_is_a_validation_error(self, capsys, netfile):
        code, _, err = run(
            capsys, "simulate", "--net", netfile(CONSENSUS_K4),
            "--input", "impulse", "--t-end", "1.0", "--dt", "5.0",
        )
        assert code == 1
        assert "exceeds t_end" in err

    @pytest.mark.parametrize("reference", [[], ["--reference"]])
    def test_out_file_and_stdout_are_byte_identical(self, capsys, netfile, tmp_path, reference):
        argv = ["simulate", "--net", netfile(SWING_LINE), "--input", "sin:1.3:0.7",
                "--t-end", "2.0", "--dt", "0.01", *reference]
        code, out, _ = run(capsys, *argv)
        path = tmp_path / "traj.csv"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert code == 0
        assert path.read_bytes() == out.encode()
        assert out.count("\n") == 202 and out.endswith("\n")

    @pytest.mark.parametrize("net, spec, message", [
        (ALGEBRAIC_LOOP, "impulse", "coupling loop is singular"),
        (SWING_LINE, "step:a:b", "--input"),
    ])
    def test_failing_command_creates_no_file(self, capsys, netfile, tmp_path, net, spec, message):
        path = tmp_path / "traj.csv"
        code, out, err = run(capsys, "simulate", "--net", netfile(net), "--input", spec,
                             "--t-end", "1.0", "--out", str(path))
        assert (code, out) == (1, "")
        assert message in err
        assert not path.exists()

    @pytest.mark.parametrize("reference", [[], ["--reference"]])
    @pytest.mark.parametrize("timing", [["--t-end", "2.0", "--dt", "0.02"],  # 101 rows
                                        ["--t-end", "1.0", "--dt", "1.0"]])  # 2 rows
    def test_every_thread_count_writes_the_same_bytes(self, capsys, netfile, tmp_path,
                                                      monkeypatch, reference, timing):
        # Every row is a block, and blocks go to forked formatters.
        monkeypatch.setattr(timedomain, "_BLOCK_SAMPLES", 1)
        argv = ["simulate", "--net", netfile(SWING_LINE), "--input", "sin:1.3:0.7",
                *timing, *reference]
        monkeypatch.setenv("COHERELAB_THREADS", "1")
        code, want, _ = run(capsys, *argv)
        assert code == 0
        for threads in ("2", "3", None):
            if threads is None:
                monkeypatch.delenv("COHERELAB_THREADS")
            else:
                monkeypatch.setenv("COHERELAB_THREADS", threads)
            path = tmp_path / f"traj-{threads}.csv"
            assert run(capsys, *argv) == (0, want, "")
            assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
            assert path.read_bytes() == want.encode()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failing_formatter_changes_no_byte(self, capsys, netfile, tmp_path, monkeypatch):
        argv = ["simulate", "--net", netfile(SWING_LINE), "--input", "impulse",
                "--t-end", "1.0", "--dt", "0.1"]
        code, want, _ = run(capsys, *argv)
        assert code == 0
        # Every row is a block; the forked formatter of the odd rows fails,
        # and this process formats its blocks.
        monkeypatch.setenv("COHERELAB_THREADS", "2")
        monkeypatch.setattr(timedomain, "_BLOCK_SAMPLES", 1)
        rows, parent = timedomain._csv_rows, os.getpid()

        def failing_rows(*args):
            if os.getpid() != parent:
                raise MemoryError
            return rows(*args)

        monkeypatch.setattr(timedomain, "_csv_rows", failing_rows)
        path = tmp_path / "traj.csv"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == want.encode()
        assert run(capsys, *argv) == (0, want, "")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_formatter_that_dies_mid_block_changes_no_byte(self, capsys, netfile, tmp_path,
                                                             monkeypatch):
        argv = ["simulate", "--net", netfile(SWING_LINE), "--input", "impulse",
                "--t-end", "1.0", "--dt", "0.1"]
        code, want, _ = run(capsys, *argv)
        assert code == 0
        # Every row is a block; the forked formatter of the odd rows sends
        # half of its first block and dies, and this process formats its
        # blocks.
        monkeypatch.setenv("COHERELAB_THREADS", "2")
        monkeypatch.setattr(timedomain, "_BLOCK_SAMPLES", 1)
        write, parent = os.write, os.getpid()

        def dying_write(fd, data):
            if os.getpid() != parent and len(data) > 8:
                write(fd, data[:len(data) // 2])
                os._exit(1)
            return write(fd, data)

        monkeypatch.setattr(os, "write", dying_write)
        path = tmp_path / "traj.csv"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == want.encode()
        assert run(capsys, *argv) == (0, want, "")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_write_error_is_an_error_and_leaves_no_file(self, capsys, netfile, tmp_path,
                                                          monkeypatch):
        argv = ["simulate", "--net", netfile(SWING_LINE), "--input", "impulse",
                "--t-end", "1.0", "--dt", "0.1"]
        code, want, _ = run(capsys, *argv)
        assert code == 0
        # Every row is a block; the output takes the header and two rows,
        # then the disk is full.
        monkeypatch.setenv("COHERELAB_THREADS", "2")
        monkeypatch.setattr(timedomain, "_BLOCK_SAMPLES", 1)
        writer = timedomain.write_trajectory_csv

        def filling_writer(traj, stream, reference=None):
            class Full:
                written = 0

                def write(self, text):
                    if self.written == 3:
                        raise OSError(28, "No space left on device")
                    self.written += 1
                    return stream.write(text)

            writer(traj, Full(), reference)

        monkeypatch.setattr(cli, "write_trajectory_csv", filling_writer)
        failure = "[Errno 28] No space left on device"
        path = tmp_path / "traj.csv"
        assert run(capsys, *argv, "--out", str(path)) == (
            1, "", f"coherelab: error: cannot write {path}: {failure}\n")
        assert not path.exists()
        # On stdout the rows before the failure stay, then the error.
        assert run(capsys, *argv) == (
            1, "".join(want.splitlines(keepends=True)[:3]),
            f"coherelab: error: cannot write the output: {failure}\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_bad_thread_count_fails_before_the_file_is_created(self, capsys, netfile,
                                                                 tmp_path, monkeypatch):
        monkeypatch.setenv("COHERELAB_THREADS", "abc")
        path = tmp_path / "traj.csv"
        code, out, err = run(capsys, "simulate", "--net", netfile(SWING_LINE),
                             "--input", "impulse", "--t-end", "1.0", "--out", str(path))
        assert (code, out, err) == (
            1, "", "coherelab: error: COHERELAB_THREADS must be an integer, got 'abc'\n")
        assert not path.exists()

    def test_bad_input_spec(self, capsys, netfile):
        for spec in ("bogus", "step:1", "sin:1", "step:a:b"):
            code, _, err = run(
                capsys, "simulate", "--net", netfile(CONSENSUS_K4),
                "--input", spec, "--t-end", "1.0",
            )
            assert code == 1
            assert "--input" in err


class TestConcentrate:
    def test_runs_and_is_deterministic(self, capsys, netfile, tmp_path):
        model = netfile(KS_MODEL, "ks.model")
        argv = [
            "concentrate", "--model", model, "--family", "complete",
            "--sizes", "4,8", "--trials", "3", "--epsilon", "0.1",
            "--seed", "5", "--points", "4",
        ]
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        lines = out_a.strip().splitlines()
        assert lines[0].startswith("n,lambda2,sup_gbar_dev")
        assert len(lines) == 3

    def test_ring_family_spec(self, capsys, netfile):
        model = netfile(KS_MODEL, "ks.model")
        code, out, _ = run(
            capsys, "concentrate", "--model", model, "--family", "ring:0.3",
            "--sizes", "8", "--trials", "2", "--epsilon", "0.1",
            "--seed", "1", "--points", "3",
        )
        assert code == 0
        lam2 = float(out.strip().splitlines()[1].split(",")[1])
        assert 0.0 < lam2 < 8.0

    def test_bad_family(self, capsys, netfile):
        model = netfile(KS_MODEL, "ks.model")
        code, _, err = run(
            capsys, "concentrate", "--model", model, "--family", "torus",
            "--sizes", "4", "--trials", "1", "--epsilon", "0.1",
        )
        assert code == 1
        assert "--family" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_the_model_rule_is_a_validation_error(self, capsys, netfile, seed):
        model = netfile(KS_MODEL, "ks.model")
        code, out, err = run(
            capsys, "concentrate", "--model", model, "--family", "complete",
            "--sizes", "4", "--trials", "1", "--seed", seed, "--points", "2",
        )
        assert code == 1
        assert out == ""
        assert err == f"coherelab: error: seed must fit in 64 bits, got {seed}\n"

    @pytest.mark.parametrize("family", ["complete", "ring"])
    def test_a_gain_whose_inverse_overflows_is_a_numerical_failure(self, capsys, netfile,
                                                                   family):
        # 1/g = s / 2.2e-311 overflows at every grid point.
        model = netfile("num 2.225073858507e-311\nden 0 1\n", "tiny.model")
        code, out, err = run(capsys, "concentrate", "--model", model, "--family", family,
                             "--sizes", "3", "--trials", "1", "--points", "1")
        assert (code, out, err) == (
            2, "", "coherelab: numerical failure: 1/g_0(s) overflows at s = (0.5+0.1j): "
                   "the node gain is too small to invert\n")

    def test_all_zero_numerator_model_is_rejected(self, capsys, netfile):
        model = netfile("num 0 0\nden 0 1\n", "zero.model")
        code, out, err = run(
            capsys, "concentrate", "--model", model, "--family", "complete",
            "--sizes", "4", "--trials", "1", "--points", "2",
        )
        assert code == 1
        assert out == ""
        assert "numerator is identically zero" in err

    def test_all_zero_denominator_model_is_rejected(self, capsys, netfile):
        model = netfile("num 1\nden 0 0\n", "zero.model")
        code, out, err = run(
            capsys, "concentrate", "--model", model, "--family", "complete",
            "--sizes", "4", "--trials", "1", "--points", "2",
        )
        assert code == 1
        assert out == ""
        assert err == (
            f"coherelab: error: {model}: denominator is identically zero: no node gain is defined\n"
        )

    def test_a_bad_thread_count_fails_before_any_work(self, capsys, netfile, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("COHERELAB_THREADS", "abc")
        monkeypatch.setattr(cli, "read_model_file", lambda path: pytest.fail("read the model"))
        path = tmp_path / "table.csv"
        code, out, err = run(capsys, "concentrate", "--model", netfile(KS_MODEL, "ks.model"),
                             "--family", "complete", "--sizes", "4", "--trials", "1",
                             "--out", str(path))
        assert (code, out, err) == (
            1, "", "coherelab: error: COHERELAB_THREADS must be an integer, got 'abc'\n")
        assert not path.exists()

    @pytest.mark.parametrize("family", ["complete", "ring:0.3"])
    def test_every_thread_count_writes_the_same_bytes(self, capsys, netfile, tmp_path,
                                                      monkeypatch, family):
        # Every run forks where it has a block of trials to give away; a
        # chunk holds one record, so a block may start at any trial.
        monkeypatch.setattr(_parallel, "_FORK_WORK", 0)
        monkeypatch.setattr(concentration, "_KRYLOV_BYTES", 1)
        monkeypatch.setattr(_parallel, "runs_one_thread", lambda: True)
        forked, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
        argv = ["concentrate", "--model", netfile(KS_MODEL, "ks.model"), "--family", family,
                "--sizes", "6,12", "--trials", "5", "--seed", "2", "--points", "4"]
        monkeypatch.setenv("COHERELAB_THREADS", "1")
        code, want, _ = run(capsys, *argv)
        assert code == 0
        for threads in ("2", "3", None):
            if threads is None:
                monkeypatch.delenv("COHERELAB_THREADS")
            else:
                monkeypatch.setenv("COHERELAB_THREADS", threads)
            path = tmp_path / f"table-{threads}.csv"
            assert run(capsys, *argv) == (0, want, "")
            assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
            assert path.read_bytes() == want.encode()
        assert forked
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_tol_cancel_is_not_an_option(self, capsys, netfile):
        model = netfile(KS_MODEL, "ks.model")
        code, _, err = run(
            capsys, "concentrate", "--model", model, "--family", "complete",
            "--sizes", "4", "--trials", "1", "--tol-cancel", "1e-8",
        )
        assert code == 1
        assert "unrecognized arguments: --tol-cancel" in err


class TestAggregate:
    def test_reports_harmonic_aggregate(self, capsys, netfile):
        code, out, _ = run(capsys, "aggregate", "--net", netfile(SWING_LINE))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("num:")
        assert lines[1] == "provenance: generic_harmonic"

    def test_compare_appends_error_line(self, capsys, netfile):
        code, out, _ = run(
            capsys, "aggregate", "--net", netfile(SWING_LINE),
            "--compare", "--input", "step:0:1.0", "--t-end", "20.0",
        )
        assert code == 0
        last = out.strip().splitlines()[-1]
        assert last.startswith("aggregation_error: ")
        assert float(last.split(": ")[1]) > 0.0

    def test_compare_builds_and_realizes_the_coherent_mean_once(
        self, capsys, netfile, monkeypatch
    ):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (aggregate, cli, coherence, rational, timedomain):
            for name in ("harmonic_mean", "realize"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        code, out, _ = run(
            capsys, "aggregate", "--net", netfile(SWING_LINE),
            "--compare", "--input", "step:0:1.0", "--t-end", "20.0",
        )
        assert code == 0 and out.splitlines()[-1].startswith("aggregation_error: ")
        # three nodes, the coupling filter and one reference
        assert calls == {"harmonic_mean": 1, "realize": 5}

    def test_compare_requires_input_and_horizon(self, capsys, netfile):
        code, _, err = run(
            capsys, "aggregate", "--net", netfile(SWING_LINE), "--compare",
        )
        assert code == 1
        assert "--compare" in err

    def test_compare_requires_integrating_coupling(self, capsys, netfile):
        code, _, err = run(
            capsys, "aggregate", "--net", netfile(CONSENSUS_K4),
            "--compare", "--input", "impulse", "--t-end", "5.0",
        )
        assert code == 1
        assert "coupling" in err


class TestEigenSolverCalls:
    """Only the commands that read the Laplacian spectrum compute it, once."""

    @pytest.fixture
    def eigen_calls(self, monkeypatch, tmp_path):
        """A function that lists the decompositions made so far, by this
        process and by the workers it forked: each call appends its name
        to a file, which a forked worker shares."""
        log = tmp_path / "eigen_calls"
        log.touch()
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                with open(log, "a", encoding="ascii") as f:
                    f.write(_name + "\n")
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return lambda: log.read_text(encoding="ascii").split()

    def test_a_forked_sweep_decomposes_once(self, capsys, netfile, monkeypatch, eigen_calls):
        monkeypatch.setenv("COHERELAB_THREADS", "2")
        monkeypatch.setattr(_parallel, "_FORK_WORK", 0)
        monkeypatch.setattr(_parallel, "runs_one_thread", lambda: True)
        code, out, _ = run(capsys, "sweep", "--net", netfile(CONSENSUS_K4), "--sigma", "0.5",
                           "--omega-min", "0.1", "--omega-max", "2.0", "--points", "8")
        assert code == 0 and len(out.splitlines()) == 9
        assert eigen_calls() == ["eigh"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--input", "step:0:1.0", "--t-end", "5.0"],
        ["simulate", "--input", "step:0:1.0", "--t-end", "5.0", "--reference"],
        ["check"],
        ["aggregate", "--compare", "--input", "step:0:1.0", "--t-end", "20.0"],
    ])
    def test_commands_that_read_no_spectrum_compute_none(self, capsys, netfile, argv,
                                                          eigen_calls):
        code, out, _ = run(capsys, argv[0], "--net", netfile(SWING_LINE), *argv[1:])
        assert code == 0 and out
        assert eigen_calls() == []


class TestExcessiveDegree:
    """Above degree 64 the symbolic coherent mean is not built; the message
    states the limit."""

    MESSAGE = "harmonic mean exceeds the supported polynomial degree of 64"

    @pytest.fixture
    def ring(self, netfile):
        return netfile(positive_real_ring_text(np.random.default_rng(5), 150, 10, (1.0, 3.0)))

    def test_check(self, capsys, ring):
        code, out, err = run(capsys, "check", "--net", ring)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == f"uniform-coherence check: undetermined: {self.MESSAGE}"

    def test_simulate_reference(self, capsys, ring):
        code, out, err = run(capsys, "simulate", "--net", ring, "--input", "impulse",
                             "--t-end", "0.2", "--dt", "0.1", "--reference")
        assert (code, out, err) == (1, "", f"coherelab: error: {self.MESSAGE}\n")


class TestCheck:
    def test_clean_network_passes(self, capsys, netfile):
        code, out, _ = run(capsys, "check", "--net", netfile(SWING_LINE))
        assert code == 0
        assert "ok: all structural assumptions hold" in out
        assert "uniform-coherence check:" in out

    def test_improper_node_fails(self, capsys, netfile):
        improper = (
            "nodes 2\n"
            "edge 0 1 1.0\n"
            "node 0 num 1.0 1.0 1.0 / den 1.0 1.0\n"
            "node 1 num 1.0 / den 1.0 1.0\n"
            "coupling num 1.0 / den 1.0\n"
        )
        code, out, _ = run(capsys, "check", "--net", netfile(improper))
        assert code == 1
        assert "violation" in out

    def test_disconnected_is_a_warning_not_failure(self, capsys, netfile):
        disconnected = (
            "nodes 2\n"
            "node 0 num 1.0 / den 1.0 1.0\n"
            "node 1 num 1.0 / den 1.0 1.0\n"
            "coupling num 1.0 / den 1.0\n"
        )
        code, out, _ = run(capsys, "check", "--net", netfile(disconnected))
        assert code == 0
        assert "warning" in out
        assert "connected" in out

    def test_biproper_homogeneous_stable_is_eligible(self, capsys, netfile):
        eligible = (
            "nodes 2\n"
            "edge 0 1 1.0\n"
            "node 0 num 1.0 2.0 / den 2.0 1.0\n"
            "node 1 num 1.0 1.0 / den 3.0 1.0\n"
            "coupling num 1.0 / den 1.0\n"
        )
        code, out, _ = run(capsys, "check", "--net", netfile(eligible))
        assert code == 0
        assert "eligible" in out


class TestPlumbing:
    def test_file_errors_cite_line_numbers(self, capsys, netfile):
        bad = netfile("nodes 2\nedge 0 5 1.0\n", "bad.net")
        code, _, err = run(capsys, "check", "--net", bad)
        assert code == 1
        assert "bad.net:2" in err

    def test_a_file_that_is_not_utf8_fails_in_one_line(self, capsys, tmp_path):
        path = tmp_path / "latin1.net"
        path.write_bytes(("# caf\xe9\n" + SWING_LINE).encode("latin-1"))
        code, out, err = run(capsys, "check", "--net", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"coherelab: error: cannot read {path}: 'utf-8' codec")
        assert err.count("\n") == 1

    TWO_NODES = ("nodes 2\nedge 0 1 1.0\nnode 0 num 1 / den 1 1\nnode 1 num 1 / den 1 1\n"
                 "coupling num 1 / den 1\n")

    @pytest.mark.parametrize("line, lineno", [("node 0 num 1 / den 1 1", 3),
                                              ("coupling num 1 / den 1", 5)])
    def test_an_overflowing_coefficient_fails_without_a_warning(self, capsys, netfile,
                                                                line, lineno):
        keyword = line.rsplit(" num", 1)[0]
        path = netfile(self.TWO_NODES.replace(line, f"{keyword} num 1e300 / den 1e-300"))
        code, out, err = run(capsys, "check", "--net", path)
        assert (code, out, err) == (
            1, "", f"coherelab: error: {path}:{lineno}: polynomial coefficients must be finite\n")

    def test_an_edge_weight_whose_laplacian_norm_overflows_is_rejected(self, capsys, netfile):
        code, out, err = run(capsys, "check", "--net",
                             netfile(self.TWO_NODES.replace("edge 0 1 1.0", "edge 0 1 1e308")))
        assert (code, out, err) == (1, "", "coherelab: error: Laplacian entries are too large: "
                                           "an absolute row sum overflows\n")

    def test_identically_zero_node_is_rejected(self, capsys, netfile):
        zero_node = (
            "nodes 2\n"
            "edge 0 1 1.0\n"
            "node 0 num 1.0 / den 1.0 1.0\n"
            "node 1 num 0.0 / den 1.0 1.0\n"
            "coupling num 1.0 / den 1.0\n"
        )
        code, out, err = run(capsys, "check", "--net", netfile(zero_node))
        assert (code, out) == (1, "")
        assert err == "coherelab: error: node 1 has identically zero dynamics\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--net", str(tmp_path / "nope.net"))
        assert code == 1
        assert "cannot read" in err

    def test_missing_required_flag_names_it(self, capsys, netfile):
        code, _, err = run(capsys, "eval", "--net", netfile(CONSENSUS_K4),
                           "--sigma", "0.5")
        assert code == 1
        assert "--omega" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 1

    def test_out_that_cannot_be_opened_is_a_validation_error(self, capsys, netfile, tmp_path):
        out_path = tmp_path / "missing" / "report.csv"
        code, out, err = run(
            capsys, "eval", "--net", netfile(SINGLE_NODE),
            "--sigma", "1.0", "--omega", "0.0", "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"coherelab: error: cannot write {out_path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_out_writes_file_instead_of_stdout(self, capsys, netfile, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "eval", "--net", netfile(SINGLE_NODE),
            "--sigma", "1.0", "--omega", "0.0", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        text = out_path.read_text()
        assert text.startswith("sigma,omega")
        assert text.endswith("\n")

    def test_byte_identical_output_for_identical_invocations(
        self, capsys, netfile, tmp_path
    ):
        net = netfile(CONSENSUS_K4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--net", net, "--sigma", "0.5", "--omega-min", "0.1",
                "--omega-max", "2.0", "--points", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_numerical_failures_exit_two(self, capsys, monkeypatch, netfile):
        import coherelab.cli as cli_module

        def explode(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli_module, "evaluate_point", explode)
        code, _, err = run(capsys, "eval", "--net", netfile(SINGLE_NODE),
                           "--sigma", "1.0", "--omega", "0.0")
        assert code == 2
        assert "numerical failure" in err

    def test_closed_stdout_exits_one_without_a_traceback(self, tmp_path):
        # 50,001 rows are far more than a pipe buffer holds, so the writer
        # is still writing when the reader goes away.
        path = tmp_path / "net.txt"
        path.write_text(SWING_LINE)
        src = os.path.dirname(os.path.dirname(coherelab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "coherelab.cli", "simulate", "--net", str(path),
             "--input", "step:0:1", "--t-end", "50", "--dt", "0.001"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"t,y_0,y_1,y_2\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "coherelab" in out
