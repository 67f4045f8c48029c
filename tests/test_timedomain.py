"""Tests for state-space realization and simulation."""

import hashlib
import io
import math
import os
import signal
import tracemalloc

import numpy as np
import pytest

from coherelab import timedomain
from coherelab.errors import ValidationError
from coherelab.network import complete_graph, laplacian_from_edges
from coherelab.rational import RationalTF, tf_eval
from coherelab.coherence import NetworkModel, transfer_matrix
from coherelab.timedomain import (
    AlgebraicLoop,
    ImproperTF,
    ImpulseAll,
    SinusoidAll,
    StateSpace,
    StepNode,
    Trajectory,
    _expm,
    closed_loop,
    coherent_reference,
    default_step,
    realize,
    simulate,
    trajectory_csv_lines,
    write_trajectory_csv,
)

from conftest import (
    generic_probe_point,
    random_connected_laplacian,
    random_first_order_tf,
    random_second_order_tf,
)

ONE = RationalTF([1.0], [1.0])
INTEGRATOR = RationalTF([1.0], [0.0, 1.0])



def _dense_closed_loop(net):
    """``closed_loop`` by dense block products: the reference it must match."""
    n = net.n
    lap = net.laplacian.matrix
    node_ss = [realize(g) for g in net.nodes]
    f_ss = realize(net.coupling)
    ng = sum(ss.n_states for ss in node_ss)
    nf = n * f_ss.n_states

    a_g = np.zeros((ng, ng))
    b_g = np.zeros((ng, n))
    c_g = np.zeros((n, ng))
    d_g = np.zeros((n, n))
    offset = 0
    for i, ss in enumerate(node_ss):
        k = ss.n_states
        a_g[offset : offset + k, offset : offset + k] = ss.a
        b_g[offset : offset + k, i] = ss.b[:, 0]
        c_g[i, offset : offset + k] = ss.c[0, :]
        d_g[i, i] = ss.d[0, 0]
        offset += k

    kf = f_ss.n_states
    a_f = np.kron(np.eye(n), f_ss.a) if kf else np.zeros((0, 0))
    b_f = np.kron(np.eye(n), f_ss.b) if kf else np.zeros((0, n))
    c_f = np.kron(np.eye(n), f_ss.c) if kf else np.zeros((n, 0))
    d_f = f_ss.d[0, 0]

    loop_inv = np.linalg.inv(np.eye(n) + d_g @ (d_f * lap))
    y_g = loop_inv @ c_g
    y_f = -loop_inv @ d_g @ c_f
    y_u = loop_inv @ d_g

    dfl = d_f * lap
    a_cl = np.zeros((ng + nf, ng + nf))
    a_cl[:ng, :ng] = a_g - b_g @ dfl @ y_g
    a_cl[:ng, ng:] = -b_g @ (c_f + dfl @ y_f)
    a_cl[ng:, :ng] = b_f @ lap @ y_g
    a_cl[ng:, ng:] = a_f + b_f @ lap @ y_f
    b_cl = np.vstack([b_g @ (np.eye(n) - dfl @ y_u), b_f @ lap @ y_u])
    c_cl = np.hstack([y_g, y_f])
    return StateSpace(a_cl, b_cl, c_cl, y_u)


def _node_of_kind(rng, kind):
    """Strictly proper first order, biproper first order, second order, or static."""
    if kind == 0:
        return random_first_order_tf(rng, biproper_fraction=0.0)
    if kind == 1:
        return random_first_order_tf(rng, biproper_fraction=1.0)
    if kind == 2:
        return random_second_order_tf(rng)
    return RationalTF([float(rng.uniform(0.5, 2.0))], [1.0])


def _oracle_network(kinds, coupling, seed):
    rng = np.random.default_rng(seed)
    nodes = [_node_of_kind(rng, kind) for kind in kinds]
    return NetworkModel(random_connected_laplacian(rng, len(kinds), extra_edges=3), nodes,
                        coupling)


ORACLE_NETWORKS = {
    # D_G = 0: the loop is I and is not inverted.
    "strictly_proper_nodes_static_coupling": lambda: _oracle_network(
        [0, 0, 2, 0, 2], RationalTF([0.8], [1.0]), 1),
    # D_G d_f != 0: the loop is inverted.
    "biproper_nodes_static_coupling": lambda: _oracle_network(
        [1, 1, 2, 1, 3, 0], RationalTF([-1.5], [1.0]), 2),
    # d_f = 0, D_G != 0: the loop is I, yet Y_U = D_G and Y_F = -D_G C_F.
    "biproper_nodes_strictly_proper_coupling": lambda: _oracle_network(
        [1, 2, 1, 3, 0], RationalTF([1.0], [0.5, 1.0]), 3),
    # Coupling states and feedthrough, around an inverted loop.
    "coupling_with_states_and_feedthrough": lambda: _oracle_network(
        [1, 0, 2, 3, 1, 2], RationalTF([0.3, 0.2, 1.0], [2.0, 3.0, 1.0]), 4),
}

# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------


class TestRealize:
    def test_first_order_with_gain(self):
        ss = realize(RationalTF([1.0], [3.0, 2.0]))  # 1/(2s+3)
        assert np.allclose(ss.a, [[-1.5]])
        assert np.allclose(ss.b, [[1.0]])
        assert np.allclose(ss.c, [[0.5]])
        assert np.allclose(ss.d, [[0.0]])
        assert abs(ss.frequency_response(0.0)[0, 0] - 1 / 3) < 1e-14

    def test_integrator(self):
        ss = realize(INTEGRATOR)
        assert np.allclose(ss.a, [[0.0]])
        assert np.allclose(ss.b, [[1.0]])
        assert np.allclose(ss.c, [[1.0]])
        assert np.allclose(ss.d, [[0.0]])

    def test_biproper_direct_term(self):
        ss = realize(RationalTF([1.0, 1.0], [2.0, 1.0]))  # (s+1)/(s+2)
        assert np.allclose(ss.d, [[1.0]])
        assert abs(ss.frequency_response(0.0)[0, 0] - 0.5) < 1e-14

    def test_static_gain_has_no_states(self):
        ss = realize(RationalTF([3.5], [1.0]))
        assert ss.n_states == 0
        assert np.allclose(ss.d, [[3.5]])
        assert abs(ss.frequency_response(1.7j)[0, 0] - 3.5) < 1e-14

    def test_improper_rejected(self):
        with pytest.raises(ImproperTF):
            realize(RationalTF([0.0, 0.0, 1.0], [1.0, 1.0]))  # s^2/(s+1)

    def test_frequency_response_matches_rational_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_second_order_tf(rng) if rng.random() < 0.5 else random_first_order_tf(rng)
            ss = realize(g)
            for _ in range(20):
                s = generic_probe_point(rng)
                expected = tf_eval(g, s)
                got = ss.frequency_response(s)[0, 0]
                assert abs(got - expected) <= 1e-8 * max(abs(expected), 1e-12)

    def test_higher_order_realization(self):
        # (s^2 + 2s + 3) / (s^3 + 4s^2 + 5s + 6)
        g = RationalTF([3.0, 2.0, 1.0], [6.0, 5.0, 4.0, 1.0])
        ss = realize(g)
        assert ss.n_states == 3
        for s in (0.3 + 0.9j, 2.0, -0.4 + 2.2j):
            assert abs(ss.frequency_response(s)[0, 0] - tf_eval(g, s)) < 1e-10


class TestStateSpaceValidation:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            StateSpace(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), [[0.0]])
        with pytest.raises(ValidationError):
            StateSpace(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)), [[0.0]])


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


class TestClosedLoop:
    def test_single_node_equals_node_realization(self):
        net = NetworkModel(laplacian_from_edges(1, []), [RationalTF([2.0], [1.0, 1.0])], ONE)
        cl = closed_loop(net)
        direct = realize(net.nodes[0])
        assert np.allclose(cl.a, direct.a)
        assert np.allclose(cl.b, direct.b)
        assert np.allclose(cl.c, direct.c)
        assert np.allclose(cl.d, direct.d)

    def test_consensus_is_minus_laplacian(self):
        net = NetworkModel(complete_graph(2, 1.0), [INTEGRATOR, INTEGRATOR], ONE)
        cl = closed_loop(net)
        assert np.allclose(cl.a, -net.laplacian.matrix)
        assert np.allclose(cl.b, np.eye(2))
        assert np.allclose(cl.c, np.eye(2))
        assert np.allclose(cl.d, np.zeros((2, 2)))
        eigs = np.sort(np.linalg.eigvals(cl.a).real)
        assert np.allclose(eigs, [-2.0, 0.0], atol=1e-12)

    def test_matches_frequency_domain_on_random_networks(self):
        rng = np.random.default_rng(19)
        couplings = [ONE, INTEGRATOR, RationalTF([1.0], [0.5, 1.0])]
        for _ in range(12):
            n = int(rng.integers(2, 6))
            lap = random_connected_laplacian(rng, n, extra_edges=2)
            nodes = [
                random_second_order_tf(rng) if rng.random() < 0.4 else random_first_order_tf(rng)
                for _ in range(n)
            ]
            net = NetworkModel(lap, nodes, couplings[int(rng.integers(0, 3))])
            cl = closed_loop(net)
            for _ in range(10):
                w = float(rng.uniform(0.05, 8.0))
                t_freq = transfer_matrix(net, 1j * w)
                t_ss = cl.frequency_response(1j * w)
                assert np.max(np.abs(t_freq - t_ss)) < 1e-7

    def test_biproper_loop_with_static_coupling(self):
        g = RationalTF([2.0, 1.0], [1.0, 1.0])  # (s+2)/(s+1), biproper
        net = NetworkModel(complete_graph(2, 0.7), [g, g], ONE)
        cl = closed_loop(net)
        for w in (0.3, 1.1, 4.0):
            assert np.max(
                np.abs(transfer_matrix(net, 1j * w) - cl.frequency_response(1j * w))
            ) < 1e-9

    def test_singular_instantaneous_loop_rejected(self):
        g = RationalTF([2.0, 1.0], [1.0, 1.0])  # feedthrough 1
        inverting = RationalTF([-1.0], [1.0])
        net = NetworkModel(complete_graph(2, 0.5), [g, g], inverting)
        with pytest.raises(AlgebraicLoop):
            closed_loop(net)

    def test_near_singular_instantaneous_loop_rejected(self):
        # I + D_G d_f L has eigenvalues 1 and -1e-14: solvable, but its
        # condition estimate is far past the limit.
        g = RationalTF([2.0, 1.0], [1.0, 1.0])
        net = NetworkModel(complete_graph(2, 0.5), [g, g], RationalTF([-1.0 - 1e-14], [1.0]))
        with pytest.raises(AlgebraicLoop, match="numerically singular"):
            closed_loop(net)

    @pytest.mark.parametrize("case", sorted(ORACLE_NETWORKS))
    def test_matches_the_dense_block_formulas(self, case):
        net = ORACLE_NETWORKS[case]()
        got, want = closed_loop(net), _dense_closed_loop(net)
        for name in "abcd":
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_matches_the_dense_block_formulas_on_random_networks(self):
        rng = np.random.default_rng(23)
        couplings = [ONE, RationalTF([-1.5], [1.0]), INTEGRATOR, RationalTF([1.0], [0.5, 1.0]),
                     RationalTF([2.0, 1.0], [1.0, 1.0]),
                     RationalTF([0.3, 0.2, 1.0], [2.0, 3.0, 1.0])]
        for _ in range(60):
            n = int(rng.integers(2, 7))
            nodes = [_node_of_kind(rng, int(k)) for k in rng.integers(0, 4, n)]
            net = NetworkModel(random_connected_laplacian(rng, n, extra_edges=2), nodes,
                               couplings[int(rng.integers(0, len(couplings)))])
            got, want = closed_loop(net), _dense_closed_loop(net)
            for name in "abcd":
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_integrator_ring_is_built_byte_for_byte(self):
        # The shape of the simulate benchmark: integrators with random gains
        # on a ring under static unit coupling.
        rng = np.random.default_rng(1)
        n = 80
        edges = [(i, (i + d) % n, 1.0) for i in range(n) for d in range(1, 7)]
        nodes = [RationalTF([float(rng.uniform(1.0, 5.0))], [0.0, 1.0]) for _ in range(n)]
        net = NetworkModel(laplacian_from_edges(n, edges), nodes, ONE)
        got, want = closed_loop(net), _dense_closed_loop(net)
        for name in "abcd":
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_well_conditioned_biproper_loop_accepted(self):
        g = RationalTF([2.0, 1.0], [1.0, 1.0])
        h = RationalTF([1.0, 3.0], [2.0, 1.0])
        net = NetworkModel(complete_graph(3, 0.5), [g, h, g], RationalTF([-1.5], [1.0]))
        cl = closed_loop(net)  # the loop matrix has eigenvalues 1, -1.25 and -4.25
        s = 0.4 + 0.9j
        assert np.max(np.abs(cl.frequency_response(s) - transfer_matrix(net, s))) < 1e-12


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


class TestSimulate:
    def test_integrator_step_is_exact_ramp(self):
        traj = simulate(realize(INTEGRATOR), StepNode(0, 1.0), 1.0, 0.01)
        assert abs(traj.outputs[0, -1] - 1.0) < 1e-6
        mid = np.searchsorted(traj.times, 0.5)
        assert abs(traj.outputs[0, mid] - traj.times[mid]) < 1e-9

    def test_impulse_is_initial_condition(self):
        traj = simulate(realize(INTEGRATOR), ImpulseAll(2.5), 1.0, 0.01)
        assert np.allclose(traj.outputs[0, :], 2.5, atol=1e-12)

    def test_consensus_impulse_reaches_harmonic_value(self):
        k = [1.0, 4.0]
        nodes = [RationalTF([ki], [0.0, 1.0]) for ki in k]
        net = NetworkModel(complete_graph(2, 1.0), nodes, ONE)
        traj = simulate(closed_loop(net), ImpulseAll(1.0), 10.0)
        target = 2.0 / sum(1.0 / ki for ki in k)  # 1.6
        assert np.max(np.abs(traj.outputs[:, -1] - target)) < 0.01 * target

    def test_sinusoid_steady_state_amplitude(self):
        g = RationalTF([2.0], [1.0, 1.0])
        omega = 1.3
        traj = simulate(realize(g), SinusoidAll(omega, 1.0), 30.0, 0.005)
        steady = traj.outputs[0, traj.times > 20.0]
        expected = abs(tf_eval(g, 1j * omega))
        assert abs(np.max(np.abs(steady)) - expected) < 0.01 * expected

    def test_integrator_sinusoid_is_exact_at_any_step(self):
        exact = (1.0 - math.cos(2.0 * 0.5)) / 2.0
        for dt in (0.02, 0.01):
            traj = simulate(realize(INTEGRATOR), SinusoidAll(2.0, 1.0), 0.5, dt)
            assert abs(traj.outputs[0, -1] - exact) < 1e-12

    def test_step_guard(self):
        # A step ten time constants long is still sampled exactly.
        stiff = realize(RationalTF([1.0], [100.0, 1.0]))
        traj = simulate(stiff, StepNode(0), 1.0, 0.1)
        exact = (1.0 - np.exp(-100.0 * traj.times)) / 100.0
        assert np.max(np.abs(traj.outputs[0] - exact)) < 1e-12
        assert default_step(stiff) == pytest.approx(0.005)

    def test_impulse_matches_modal_solution(self):
        rng = np.random.default_rng(41)
        nodes = [random_second_order_tf(rng) for _ in range(4)]
        lap = random_connected_laplacian(rng, 4, extra_edges=2)
        cl = closed_loop(NetworkModel(lap, nodes, RationalTF([1.0], [0.5, 1.0])))
        assert not np.allclose(cl.a, cl.a.T)
        traj = simulate(cl, ImpulseAll(1.5), 6.0, 0.01)
        lam, vec = np.linalg.eig(cl.a)
        modal = np.linalg.solve(vec, cl.b @ np.full(4, 1.5))
        exact = (cl.c @ vec @ (modal[:, None] * np.exp(np.outer(lam, traj.times)))).real
        assert np.max(np.abs(traj.outputs - exact)) < 1e-10 * np.max(np.abs(exact))

    def test_step_and_sinusoid_match_closed_forms(self):
        # g = (s + 3)/(s + 2) = 1 + 1/(s + 2): the feedthrough reaches y at once.
        g = realize(RationalTF([3.0, 1.0], [2.0, 1.0]))
        traj = simulate(g, StepNode(0, 0.7), 4.0, 0.01)
        t = traj.times
        exact = 0.7 * (1.5 - 0.5 * np.exp(-2.0 * t))
        assert np.max(np.abs(traj.outputs[0] - exact)) < 1e-12
        omega, amp = 1.3, 0.8
        traj = simulate(g, SinusoidAll(omega, amp), 4.0, 0.01)
        lag = (2.0 * np.sin(omega * t) - omega * np.cos(omega * t)
               + omega * np.exp(-2.0 * t)) / (4.0 + omega**2)
        exact = amp * (np.sin(omega * t) + lag)
        assert np.max(np.abs(traj.outputs[0] - exact)) < 1e-12

    def test_default_step_cap_for_slow_systems(self):
        assert default_step(realize(RationalTF([1.0], [0.1, 1.0]))) == pytest.approx(0.01)

    def test_input_validation(self):
        ss = realize(INTEGRATOR)
        with pytest.raises(ValidationError):
            simulate(ss, StepNode(3), 1.0, 0.01)  # node out of range
        with pytest.raises(ValidationError):
            simulate(ss, StepNode(0), -1.0, 0.01)
        with pytest.raises(ValidationError):
            simulate(ss, StepNode(0), 1.0, -0.1)
        # Non-finite values, and a step that would end past the horizon.
        for t_end, dt in ((math.inf, 0.01), (math.nan, 0.01), (1.0, math.nan), (1.0, 5.0)):
            with pytest.raises(ValidationError):
                simulate(ss, StepNode(0), t_end, dt)

    def test_static_system_simulates_feedthrough_only(self):
        ss = realize(RationalTF([3.0], [1.0]))
        traj = simulate(ss, SinusoidAll(1.0, 2.0), 1.0, 0.01)
        assert np.allclose(traj.outputs[0, :], 6.0 * np.sin(traj.times), atol=1e-12)


class TestExpm:
    def test_matches_eigendecomposition_on_every_pade_branch(self):
        # |A|_1 = 0.01, 0.2, 0.9 and 2 select degrees 3, 5, 7 and 9;
        # 5 selects degree 13 unscaled and 500 degree 13 after 7 squarings.
        rng = np.random.default_rng(3)
        for norm in (0.01, 0.2, 0.9, 2.0, 5.0, 500.0):
            q = rng.standard_normal((50, 50))
            a = -(q @ q.T)
            a *= norm / np.max(np.sum(np.abs(a), axis=0))
            lam, vec = np.linalg.eigh(a)
            exact = (vec * np.exp(lam)) @ vec.T
            assert np.max(np.abs(_expm(a) - exact)) < 1e-13 * np.max(np.abs(exact))

    def test_closed_forms(self):
        jordan = np.diag(np.full(3, 0.7), 1)  # nilpotent: the series stops at a^3
        series = np.eye(4) + jordan + jordan @ jordan / 2.0 + jordan @ jordan @ jordan / 6.0
        assert np.max(np.abs(_expm(jordan) - series)) < 1e-15
        for angle in (0.05, 1.7, 40.0):
            c, s = math.cos(angle), math.sin(angle)
            rotation = _expm(np.array([[0.0, angle], [-angle, 0.0]]))
            assert np.max(np.abs(rotation - [[c, s], [-s, c]])) < 1e-13


class TestCoherentReference:
    def test_consensus_reference_constant(self):
        k = [1.0, 4.0]
        nodes = [RationalTF([ki], [0.0, 1.0]) for ki in k]
        net = NetworkModel(complete_graph(2, 1.0), nodes, ONE)
        ref = coherent_reference(net, ImpulseAll(1.0), 10.0)
        assert np.allclose(ref.outputs[0, :], 1.6, atol=1e-9)

    def test_single_node_reference_equals_node_response(self):
        g = RationalTF([1.0], [1.0, 1.0])
        net = NetworkModel(laplacian_from_edges(1, []), [g], ONE)
        t_end, dt = 5.0, 0.01
        ref = coherent_reference(net, ImpulseAll(1.0), t_end, dt)
        node = simulate(closed_loop(net), ImpulseAll(1.0), t_end, dt)
        assert np.allclose(ref.outputs[0, :], node.outputs[0, :], atol=1e-12)

    def test_substitute_dynamics(self):
        nodes = [RationalTF([k], [0.0, 1.0]) for k in (1.0, 4.0)]
        net = NetworkModel(complete_graph(2, 1.0), nodes, ONE)
        ghat = RationalTF([4.0 / math.log(5.0)], [0.0, 1.0])
        ref = coherent_reference(net, ImpulseAll(1.0), 2.0, dynamics=ghat)
        assert np.allclose(ref.outputs[0, :], 4.0 / math.log(5.0), atol=1e-9)

    def test_coherence_improves_with_connectivity(self):
        rng = np.random.default_rng(29)
        deviations = []
        for n in (4, 16):
            k = rng.uniform(1.0, 5.0, size=n)
            nodes = [RationalTF([float(ki)], [0.0, 1.0]) for ki in k]
            net = NetworkModel(complete_graph(n, 1.0), nodes, ONE)
            traj = simulate(closed_loop(net), ImpulseAll(1.0), 10.0)
            ref = coherent_reference(net, ImpulseAll(1.0), 10.0, traj.dt)
            window = traj.times >= 2.0
            dev = np.max(np.abs(traj.outputs[:, window] - ref.outputs[0, window]))
            deviations.append(dev)
        assert deviations[1] < deviations[0]


# ---------------------------------------------------------------------------
# Trajectory and CSV
# ---------------------------------------------------------------------------


class TestTrajectory:
    def test_uniform_times_required(self):
        with pytest.raises(ValidationError):
            Trajectory(np.array([0.0, 0.1, 0.3]), np.zeros((1, 3)), "test")

    def test_shape_checked(self):
        with pytest.raises(ValidationError):
            Trajectory(np.array([0.0, 0.1]), np.zeros((1, 3)), "test")

    def test_csv_lines(self):
        traj = Trajectory(np.array([0.0, 0.5]), np.array([[1.0, 2.0], [3.0, 4.0]]), "in")
        ref = Trajectory(np.array([0.0, 0.5]), np.array([[9.0, 9.5]]), "ref")
        lines = trajectory_csv_lines(traj, ref)
        assert lines[0] == "t,y_0,y_1,y_ref"
        assert lines[1] == "0.0,1.0,3.0,9.0"
        assert lines[2] == "0.5,2.0,4.0,9.5"

    def test_csv_writer_holds_a_block_at_a_time(self):
        rng = np.random.default_rng(4)
        traj = Trajectory(np.arange(1001) * 1e-3, rng.standard_normal((200, 1001)), "in")
        lines = trajectory_csv_lines(traj)
        want = hashlib.sha256("".join(line + "\n" for line in lines).encode()).digest()
        row_bytes = len(lines[1])

        class Sink:  # keeps a digest of the text, not the text
            def __init__(self):
                self.digest = hashlib.sha256()

            def write(self, text):
                self.digest.update(text.encode())

        sink = Sink()
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.digest.digest() == want
        # The whole file is 1001 rows in 12 blocks of 83 or 84 rows.  The
        # writer holds a block's rows as they are joined into its text, or a
        # forked formatter's block as it came and as text, and the sink
        # encodes a block: about three blocks.
        assert peak < 4 * 84 * row_bytes

    def test_csv_reference_grid_must_match(self):
        traj = Trajectory(np.array([0.0, 0.5]), np.ones((1, 2)), "in")
        ref = Trajectory(np.array([0.0, 0.4]), np.ones((1, 2)), "ref")
        with pytest.raises(ValidationError):
            trajectory_csv_lines(traj, ref)


class TestParallelCsv:
    """``write_trajectory_csv`` with its rows split among forked formatters."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Every row is a block, and blocks go to forked processes; the pids
        forked are listed."""
        monkeypatch.setenv("COHERELAB_THREADS", "3")
        monkeypatch.setattr(timedomain, "_BLOCK_SAMPLES", 1)
        forked = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return forked

    @staticmethod
    def trajectories(rows, outputs):
        rng = np.random.default_rng(rows * 10 + outputs)
        traj = Trajectory(np.arange(rows) * 0.1, rng.standard_normal((outputs, rows)), "in")
        ref = Trajectory(traj.times, rng.standard_normal((1, rows)), "ref")
        return traj, ref

    @staticmethod
    def written(traj, ref):
        out = io.StringIO()
        write_trajectory_csv(traj, out, ref)
        return out.getvalue()

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("rows, outputs", [(2, 1), (2, 2), (3, 1), (7, 2), (101, 3)])
    @pytest.mark.parametrize("with_reference", [False, True])
    @pytest.mark.parametrize("threads", ["1", "2", "3", None])
    def test_bytes_are_those_of_the_serial_writer(self, forks, monkeypatch, rows, outputs,
                                                  with_reference, threads):
        if threads is None:
            monkeypatch.delenv("COHERELAB_THREADS")
        else:
            monkeypatch.setenv("COHERELAB_THREADS", threads)
        traj, ref = self.trajectories(rows, outputs)
        ref = ref if with_reference else None
        want = "".join(line + "\n" for line in trajectory_csv_lines(traj, ref))
        assert self.written(traj, ref) == want
        assert len(forks) == min(timedomain.thread_count(), rows) - 1
        self.assert_no_child_left()

    def test_small_output_forks_nothing(self, monkeypatch):
        monkeypatch.setenv("COHERELAB_THREADS", "3")
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a small output"))
        traj, ref = self.trajectories(101, 3)
        want = "".join(line + "\n" for line in trajectory_csv_lines(traj, ref))
        assert self.written(traj, ref) == want

    def test_blocks_that_cannot_fork_are_formatted_here(self, monkeypatch):
        monkeypatch.setenv("COHERELAB_THREADS", "5")
        monkeypatch.setattr(timedomain, "_BLOCK_SAMPLES", 1)
        fork, calls = os.fork, []

        def fork_every_other():
            calls.append(None)
            if len(calls) % 2:
                raise BlockingIOError("no process to spare")
            return fork()

        monkeypatch.setattr(os, "fork", fork_every_other)
        traj, ref = self.trajectories(40, 3)
        want = "".join(line + "\n" for line in trajectory_csv_lines(traj, ref))
        assert self.written(traj, ref) == want
        assert len(calls) == 4
        self.assert_no_child_left()

    def test_a_bad_reference_fails_before_any_fork(self, forks):
        traj, _ = self.trajectories(20, 2)
        ref = Trajectory(traj.times * 1.5, np.ones((1, 20)), "ref")
        out = io.StringIO()
        with pytest.raises(ValidationError, match="time grid"):
            write_trajectory_csv(traj, out, ref)
        assert (out.getvalue(), forks) == ("", [])

    # The first block, formatted here, or a forked formatter's block.
    @pytest.mark.parametrize("failing_write", [2, 15])
    def test_a_broken_stream_leaves_no_child(self, forks, failing_write):
        traj, ref = self.trajectories(40, 3)

        class Closing(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == failing_write:
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        with pytest.raises(BrokenPipeError):
            write_trajectory_csv(traj, Closing(), ref)
        assert len(forks) == 2
        self.assert_no_child_left()

    @pytest.mark.parametrize("failure", ["raise", "kill"])
    def test_a_failing_formatter_s_blocks_are_formatted_here(self, forks, monkeypatch, failure):
        # Ten blocks of three rows; the third worker formats blocks 2, 5 and 8.
        monkeypatch.setattr(timedomain, "_BLOCK_SAMPLES", 6)
        traj, ref = self.trajectories(30, 2)
        want = "".join(line + "\n" for line in trajectory_csv_lines(traj, ref))
        rows, parent = timedomain._csv_rows, os.getpid()

        def failing_rows(traj, reference, start, stop):
            if start == 15 and os.getpid() != parent:  # block 5, the forked worker's second
                if failure == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise MemoryError
            return rows(traj, reference, start, stop)

        monkeypatch.setattr(timedomain, "_csv_rows", failing_rows)
        assert self.written(traj, ref) == want
        assert len(forks) == 2
        self.assert_no_child_left()
