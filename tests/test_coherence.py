"""Tests for the frequency-domain coherence engine."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from coherelab.errors import GridRefinementWarning, IllConditionedWarning, ValidationError
from coherelab.network import (
    complete_graph,
    grounded,
    k_regular_ring,
    laplacian_from_edges,
    scale_connectivity,
)
from coherelab.rational import (
    DegenerateMean,
    IndeterminateAt,
    RationalTF,
    ZeroFunctionInverse,
    tf_eval,
    tf_scale,
)
from coherelab.coherence import (
    BoundHypothesisViolated,
    CoherenceReport,
    DegenerateGamma,
    FrequencyGrid,
    HypothesisViolated,
    NetworkModel,
    NodePole,
    NotAPoleOfCoherent,
    PoleOfCoherent,
    PoleOfCoupling,
    PoleOnGrid,
    UndefinedPointInGrid,
    ZeroOnGrid,
    coherent_pole_direction,
    coherent_projection,
    convergence_study,
    default_bounds,
    effective_connectivity,
    evaluate_point,
    failure_experiment,
    gbar_value,
    incoherence,
    lemma4_bound,
    nodal_multiplicity,
    normalized_incoherence,
    report_csv_header,
    report_csv_row,
    rhp_uniform_check,
    sup_incoherence,
    sweep,
    transfer_matrix,
    transfer_matrix_direct,
    transfer_matrix_modal,
    DEFAULT_TOL_CLASSIFY,
    _point_report,
    _probe_records,
    _transfer,
)

from conftest import (
    SPURIOUS_SYMBOLIC_POLE,
    biproper_mean_case,
    generic_probe_point,
    random_connected_laplacian,
    random_first_order_tf,
    random_second_order_tf,
)

ONE = RationalTF([1.0], [1.0])
INTEGRATOR = RationalTF([1.0], [0.0, 1.0])
INV_S = RationalTF([1.0], [0.0, 1.0])  # 1/s, used as a coupling filter too


def consensus_pair(weight: float = 1.0) -> NetworkModel:
    return NetworkModel(complete_graph(2, weight), [INTEGRATOR, INTEGRATOR], ONE)


def near_singular_ring() -> NetworkModel:
    """Six integrators k_i/s on a ring; ``diag(s/k_i) + L`` is nearly
    singular at ``NEAR_ORIGIN`` (condition estimate 5.6e13)."""
    gains = np.random.default_rng(0).uniform(1.0, 5.0, 6)
    return NetworkModel(k_regular_ring(6, 1), [RationalTF([k], [0.0, 1.0]) for k in gains], ONE)


NEAR_ORIGIN = 1e-13 + 1e-13j


def random_network(rng, n=None, coupling=None) -> NetworkModel:
    n = n if n is not None else int(rng.integers(2, 7))
    lap = random_connected_laplacian(rng, n, extra_edges=int(rng.integers(0, n)))
    nodes = [
        random_second_order_tf(rng) if rng.random() < 0.3 else random_first_order_tf(rng)
        for _ in range(n)
    ]
    if coupling is None:
        coupling = [ONE, INV_S, RationalTF([1.0], [0.5, 1.0])][int(rng.integers(0, 3))]
    return NetworkModel(lap, nodes, coupling)


# ---------------------------------------------------------------------------
# Transfer matrix
# ---------------------------------------------------------------------------


class TestTransferMatrix:
    def test_single_node_equals_node_gain(self):
        net = NetworkModel(laplacian_from_edges(1, []), [INTEGRATOR], ONE)
        t = transfer_matrix(net, 1.0)
        assert t.shape == (1, 1)
        assert abs(t[0, 0] - 1.0) < 1e-14

    def test_homogeneous_pair_closed_form(self):
        t = transfer_matrix(consensus_pair(), 1.0)
        expected = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        assert np.allclose(t, expected, atol=1e-12)

    def test_matches_eigenbasis_form_for_identical_nodes(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            lap = random_connected_laplacian(rng, n, extra_edges=2)
            g = random_first_order_tf(rng)
            net = NetworkModel(lap, [g] * n, ONE)
            s = generic_probe_point(rng)
            assert np.allclose(
                transfer_matrix(net, s), transfer_matrix_modal(net, s), atol=1e-10
            )

    def test_eigenbasis_form_rejects_heterogeneous(self):
        net = NetworkModel(
            complete_graph(2, 1.0),
            [RationalTF([1.0], [1.0, 1.0]), RationalTF([1.0], [2.0, 1.0])],
            ONE,
        )
        with pytest.raises(ValidationError):
            transfer_matrix_modal(net, 1.0)

    def test_matches_direct_inversion_on_random_networks(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            net = random_network(rng)
            for _ in range(5):
                s = generic_probe_point(rng)
                a = transfer_matrix(net, s)
                b = transfer_matrix_direct(net, s)
                assert np.allclose(a, b, atol=1e-9, rtol=1e-9)

    def test_vanishing_node_zeroes_its_row_and_column(self):
        g0 = RationalTF([-0.5, 1.0], [1.0, 1.0])  # (s - 1/2) / (s + 1)
        g_rest = RationalTF([1.0], [1.0, 1.0])
        net = NetworkModel(complete_graph(3, 1.0), [g0, g_rest, g_rest], ONE)
        s0 = 0.5
        t = transfer_matrix(net, s0)
        assert np.allclose(t[0, :], 0.0, atol=1e-14)
        assert np.allclose(t[:, 0], 0.0, atol=1e-14)
        # complement solved on the grounded graph
        sub = grounded(net.laplacian, [0])
        inv = tf_eval(RationalTF(g_rest.den.coeffs, g_rest.num.coeffs), s0)
        expected = np.linalg.inv(np.diag([inv, inv]) + sub.matrix)
        assert np.allclose(t[1:, 1:], expected, atol=1e-12)
        # and agrees with the reference formula, which needs no special casing
        assert np.allclose(t, transfer_matrix_direct(net, s0), atol=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            net = random_network(rng)
            s = generic_probe_point(rng)
            assert np.allclose(
                transfer_matrix(net, np.conj(s)), np.conj(transfer_matrix(net, s)), atol=1e-12
            )

    def test_pole_of_coupling_raises(self):
        net = NetworkModel(complete_graph(2, 1.0), [INTEGRATOR, INTEGRATOR], INV_S)
        with pytest.raises(PoleOfCoupling):
            transfer_matrix(net, 0.0)

    def test_direct_form_rejects_node_pole(self):
        with pytest.raises(NodePole):
            transfer_matrix_direct(consensus_pair(), 0.0)

    def test_ill_conditioned_warning_near_network_pole(self):
        net = consensus_pair()  # closed-loop poles at 0 and -2
        with pytest.warns(IllConditionedWarning) as caught:
            transfer_matrix(net, -2.0 + 1e-14)
        assert [w.filename for w in caught] == [__file__]


# ---------------------------------------------------------------------------
# Coherent projection and incoherence
# ---------------------------------------------------------------------------


class TestCoherentProjection:
    def test_homogeneous_pair(self):
        proj = coherent_projection(consensus_pair(), 1.0)
        assert np.allclose(proj, 0.5 * np.ones((2, 2)), atol=1e-14)

    def test_heterogeneous_pair_at_origin(self):
        net = NetworkModel(
            complete_graph(2, 1.0),
            [RationalTF([1.0], [2.0, 1.0]), RationalTF([1.0], [4.0, 3.0])],
            ONE,
        )
        proj = coherent_projection(net, 0.0)
        assert np.allclose(proj, (1 / 6) * np.ones((2, 2)), atol=1e-14)

    def test_consensus_scaling_identity(self):
        rng = np.random.default_rng(3)
        k = rng.uniform(1.0, 5.0, size=6)
        nodes = [RationalTF([float(ki)], [0.0, 1.0]) for ki in k]
        net = NetworkModel(complete_graph(6, 1.0), nodes, ONE)
        s0 = 0.7 + 0.3j
        value = gbar_value(net, s0)
        assert abs(value * s0 - 6.0 / np.sum(1.0 / k)) < 1e-12

    def test_pole_raises(self):
        with pytest.raises(PoleOfCoherent):
            coherent_projection(consensus_pair(), 0.0)


class TestIncoherence:
    def test_homogeneous_pair_value(self):
        assert abs(incoherence(consensus_pair(), 1.0) - 1 / 3) < 1e-12

    def test_scaled_laplacian_value(self):
        net = consensus_pair()
        scaled = NetworkModel(scale_connectivity(net.laplacian, 10.0), net.nodes, net.coupling)
        assert abs(incoherence(scaled, 1.0) - 1 / 21) < 1e-12

    def test_complete_graph_closed_form(self):
        for n in (3, 5, 8):
            net = NetworkModel(complete_graph(n, 1.0), [INTEGRATOR] * n, ONE)
            assert abs(incoherence(net, 1.0) - 1 / (1 + n)) < 1e-12

    def test_single_node_is_exactly_zero(self):
        net = NetworkModel(laplacian_from_edges(1, []), [INTEGRATOR], ONE)
        assert incoherence(net, 1.0) == 0.0

    def test_low_frequency_coherence_with_integrating_coupling(self):
        # static heterogeneous gains coupled through 1/s become coherent as
        # the probe frequency drops: effective connectivity grows like 1/w
        gains = [1.0, 2.5, 0.7, 1.8]
        nodes = [RationalTF([g], [1.0]) for g in gains]
        net = NetworkModel(complete_graph(4, 1.0), nodes, INV_S)
        values = [incoherence(net, 1j * w) for w in (1.0, 0.3, 0.1, 0.03)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_ill_conditioned_solve_warns(self):
        with pytest.warns(IllConditionedWarning, match="condition estimate 5.645e") as caught:
            incoherence(near_singular_ring(), NEAR_ORIGIN)
        assert [w.filename for w in caught] == [__file__]

    def test_grounded_norm_bound_at_isolated_zero(self):
        # one node's gain vanishes; |T| is controlled by the grounded
        # connectivity minus the surviving inverse-gain level
        w = 5.0
        g0 = RationalTF([-0.5, 1.0], [1.0, 1.0])
        g_rest = RationalTF([1.0], [1.0, 1.0])
        net = NetworkModel(complete_graph(3, w), [g0, g_rest, g_rest], ONE)
        s0 = 0.5
        t = transfer_matrix(net, s0)
        lam1 = grounded(net.laplacian, [0]).lambda_min
        m = 1.5  # |1/g_rest(0.5)| = |s+1| at 0.5
        denom = 1.0 * lam1 - m
        assert denom > 0
        assert np.linalg.norm(t, 2) <= 1.0 / denom + 1e-12


# ---------------------------------------------------------------------------
# Effective connectivity and multiplicity
# ---------------------------------------------------------------------------


class TestEffectiveConnectivity:
    def test_integrating_coupling(self):
        net = NetworkModel(complete_graph(2, 1.5), [INTEGRATOR, INTEGRATOR], INV_S)
        assert abs(effective_connectivity(net, 0.1j) - 30.0) < 1e-9

    def test_static_coupling(self):
        net = NetworkModel(complete_graph(2, 2.5), [INTEGRATOR, INTEGRATOR], ONE)
        assert abs(effective_connectivity(net, 0.37 + 2.0j) - 5.0) < 1e-9

    def test_infinite_at_coupling_pole(self):
        net = NetworkModel(complete_graph(2, 1.0), [INTEGRATOR, INTEGRATOR], INV_S)
        assert effective_connectivity(net, 0.0) == math.inf


class TestNodalMultiplicity:
    def test_consensus_has_no_zeros(self):
        nodes = [RationalTF([k], [0.0, 1.0]) for k in (1.0, 2.0)]
        net = NetworkModel(complete_graph(2, 1.0), nodes, ONE)
        for s0 in (0.0, 1.0, -1.0, 0.3j):
            assert nodal_multiplicity(net, s0) == 0

    def test_single_and_shared_zeros(self):
        g1 = RationalTF([1.0, 1.0], [0.0, 0.0, 1.0])  # (s+1)/s^2
        g2 = RationalTF([2.0, 1.0], [0.0, 0.0, 1.0])  # (s+2)/s^2
        net = NetworkModel(complete_graph(2, 1.0), [g1, g2], ONE)
        assert nodal_multiplicity(net, -1.0) == 1
        shared = NetworkModel(
            complete_graph(2, 1.0),
            [
                RationalTF([1.0, 1.0], [2.0, 1.0]),
                tf_scale(RationalTF([1.0, 1.0], [3.0, 1.0]), 2.0),
            ],
            ONE,
        )
        assert nodal_multiplicity(shared, -1.0) == 2

    def test_counts_nodes_not_zeros(self):
        # Node 0 has a double zero at -1, node 1 a simple one, node 2 none.
        nodes = [
            RationalTF([1.0, 2.0, 1.0], [8.0, 12.0, 6.0, 1.0]),
            RationalTF([1.0, 1.0], [3.0, 1.0]),
            RationalTF([1.0], [1.0, 1.0]),
        ]
        net = NetworkModel(complete_graph(3, 1.0), nodes, RationalTF([1.0], [1.0, 1.0]))
        assert nodal_multiplicity(net, -1.0) == 2
        assert nodal_multiplicity(net, -1.0 + 1e-7j) == 2
        assert nodal_multiplicity(net, -1.1) == 0
        assert net.assumptions.coupling_pole_clashes == ((0, -1.0 + 0j), (1, -1.0 + 0j))


# ---------------------------------------------------------------------------
# Bound
# ---------------------------------------------------------------------------


class TestLemma4Bound:
    def test_worked_example(self):
        net = NetworkModel(complete_graph(2, 2.0), [INTEGRATOR, INTEGRATOR], ONE)
        bound = lemma4_bound(net, 1.0, 1.0, 1.0)
        assert abs(bound - 2.0) < 1e-12
        assert incoherence(net, 1.0) <= bound

    def test_not_applicable_at_weak_connectivity(self):
        assert lemma4_bound(consensus_pair(), 1.0, 1.0, 1.0) is None

    def test_complete_graph_family(self):
        for n in (3, 4, 6, 10):
            net = NetworkModel(complete_graph(n, 1.0), [INTEGRATOR] * n, ONE)
            bound = lemma4_bound(net, 1.0, 1.0, 1.0)
            if n == 3:
                # denominator n - 2 = 1
                assert abs(bound - 4.0) < 1e-12
            assert bound == pytest.approx(4.0 / (n - 2))
            assert incoherence(net, 1.0) <= bound + 1e-9

    def test_envelope_violations_raise(self):
        net = NetworkModel(complete_graph(2, 2.0), [INTEGRATOR, INTEGRATOR], ONE)
        with pytest.raises(BoundHypothesisViolated):
            lemma4_bound(net, 1.0, 0.5, 1.0)  # m1 below |gbar(1)| = 1
        with pytest.raises(BoundHypothesisViolated):
            lemma4_bound(net, 1.0, 1.0, 0.5)  # m2 below max inverse gain = 1

    def test_soundness_on_random_networks(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(60):
            net = random_network(rng, coupling=ONE)
            alpha = float(rng.uniform(5.0, 200.0))
            net = NetworkModel(scale_connectivity(net.laplacian, alpha), net.nodes, net.coupling)
            s = generic_probe_point(rng)
            gb = gbar_value(net, s)
            inv_max = max(
                abs(tf_eval(RationalTF(g.den.coeffs, g.num.coeffs), s)) for g in net.nodes
            )
            m1, m2 = 1.05 * abs(gb), 1.05 * inv_max
            bound = lemma4_bound(net, s, m1, m2)
            if bound is not None:
                checked += 1
                assert incoherence(net, s) <= bound + 1e-9
        assert checked >= 20  # the scaling makes most draws applicable


class TestDefaultBounds:
    def test_single_point_integrator(self):
        net = consensus_pair()
        grid = FrequencyGrid.linear(1.0, 0.0, 0.0, 1)  # the single point s = 1
        m1, m2 = default_bounds(net, grid)
        assert m1 == pytest.approx(1.05)
        assert m2 == pytest.approx(1.05)

    def test_heterogeneous_max_inverse(self):
        net = NetworkModel(
            complete_graph(2, 1.0),
            [RationalTF([1.0], [2.0, 1.0]), RationalTF([1.0], [4.0, 3.0])],
            ONE,
        )
        grid = FrequencyGrid.linear(0.0, 0.0, 0.0, 1)
        _, m2 = default_bounds(net, grid)
        assert m2 == pytest.approx(1.05 * 4.0)

    def test_pole_on_grid(self):
        with pytest.raises(PoleOnGrid):
            default_bounds(consensus_pair(), FrequencyGrid.linear(0.0, 0.0, 0.0, 1))

    def test_zero_on_grid(self):
        net = NetworkModel(
            complete_graph(2, 1.0),
            [RationalTF([-1.0, 1.0], [1.0, 1.0]), RationalTF([1.0], [1.0, 1.0])],
            ONE,
        )
        with pytest.raises(ZeroOnGrid):
            default_bounds(net, FrequencyGrid.linear(1.0, 0.0, 0.0, 1))

    def test_margin_must_be_at_least_one(self):
        grid = FrequencyGrid.linear(1.0, 0.0, 0.0, 1)
        for margin in (math.nan, 0.5, 0.0):
            with pytest.raises(ValidationError, match="margin must be >= 1"):
                default_bounds(consensus_pair(), grid, margin=margin)
            with pytest.raises(ValidationError, match="margin must be >= 1"):
                sweep(consensus_pair(), grid, margin=margin)


# ---------------------------------------------------------------------------
# Grids, reports, sweeps
# ---------------------------------------------------------------------------


class TestFrequencyGrid:
    def test_linear_points(self):
        grid = FrequencyGrid.linear(0.5, 0.0, 2.0, 5)
        assert np.allclose(grid.omegas, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.allclose(grid.points, 0.5 + 1j * grid.omegas)

    def test_log_points(self):
        grid = FrequencyGrid.logarithmic(0.0, 0.01, 100.0, 5)
        assert np.allclose(grid.omegas, [0.01, 0.1, 1.0, 10.0, 100.0])

    def test_log_requires_positive_start(self):
        with pytest.raises(ValidationError):
            FrequencyGrid.logarithmic(0.0, 0.0, 1.0, 4)

    def test_refinement_is_nested(self):
        for grid in (
            FrequencyGrid.linear(0.0, 0.0, 2.0, 5),
            FrequencyGrid.logarithmic(0.0, 0.1, 10.0, 5),
        ):
            fine = grid.refined()
            assert fine.omegas.size == 2 * grid.omegas.size - 1
            assert np.all(np.isin(grid.omegas, fine.omegas))

    def test_increasing_required(self):
        with pytest.raises(ValidationError):
            FrequencyGrid(0.0, np.array([1.0, 1.0]), "lin")

    def test_spacing_validated(self):
        with pytest.raises(ValidationError):
            FrequencyGrid(0.0, np.array([1.0]), "cubic")

    def test_empty_grid_allowed(self):
        grid = FrequencyGrid(0.0, np.array([]), "lin")
        assert grid.points.size == 0
        result = sweep(consensus_pair(), grid)
        assert result.reports == ()


class TestSweep:
    def test_statuses_across_coherent_pole(self):
        net = NetworkModel(complete_graph(3, 1.0), [INTEGRATOR] * 3, ONE)
        grid = FrequencyGrid.linear(0.0, 0.0, 2.0, 3)
        result = sweep(net, grid)
        statuses = [r.status for r in result.reports]
        assert statuses == ["pole_gbar", "ok", "ok"]
        assert result.reports[0].incoherence is None
        assert result.reports[1].incoherence == pytest.approx(1 / math.sqrt(10))

    def test_coupling_pole_takes_priority(self):
        net = NetworkModel(complete_graph(2, 1.0), [INTEGRATOR, INTEGRATOR], INV_S)
        grid = FrequencyGrid.linear(0.0, 0.0, 1.0, 2)
        result = sweep(net, grid)
        assert result.reports[0].status == "pole_f"
        assert result.reports[0].effective_connectivity == math.inf
        assert result.reports[1].status == "ok"

    def test_zero_of_coherent_mean_status(self):
        net = NetworkModel(
            complete_graph(2, 1.0),
            [RationalTF([-1.0, 1.0], [1.0, 1.0]), RationalTF([1.0], [1.0, 1.0])],
            ONE,
        )
        grid = FrequencyGrid.linear(1.0, 0.0, 0.0, 1)
        report = sweep(net, grid).reports[0]
        assert report.status == "zero_gbar"
        # projection vanishes, so the measured distance equals |T|
        assert report.incoherence == pytest.approx(report.norm_transfer)

    def test_heterogeneous_pole_reports_transfer_norm(self):
        net = NetworkModel(
            complete_graph(2, 1.0),
            [RationalTF([1.0], [-1.0, 1.0]), RationalTF([1.0], [1.0, 1.0])],
            ONE,
        )
        grid = FrequencyGrid.linear(0.0, 0.0, 0.0, 1)
        report = sweep(net, grid).reports[0]
        assert report.status == "pole_gbar"
        assert report.incoherence is None
        assert report.norm_transfer is not None and report.norm_transfer > 1.0

    def test_bounds_derived_from_clean_subset(self):
        net = NetworkModel(complete_graph(2, 40.0), [INTEGRATOR, INTEGRATOR], ONE)
        grid = FrequencyGrid.linear(0.0, 0.0, 2.0, 3)  # first point is a pole of gbar
        result = sweep(net, grid)
        assert result.m1 == pytest.approx(1.05 * 1.0)  # sup |1/(jw)| over w in {1, 2}
        assert result.m2 == pytest.approx(1.05 * 2.0)  # sup |jw|
        clean = result.reports[1]
        assert clean.bound == pytest.approx(
            lemma4_bound(net, clean.s0, result.m1, result.m2)
        )

        # Heterogeneous: node 2 vanishes at s = j and the inverse gains sum
        # to zero at s = 0, a pole of gbar.
        nodes = [
            RationalTF([1.0], [-1.0, 1.0]),
            RationalTF([1.0], [1.0, 1.0]),
            RationalTF([1.0, 0.0, 1.0], [1.0, 2.0, 1.0]),
            RationalTF([1.0], [-1.0, 1.0]),
        ]
        net = NetworkModel(complete_graph(4, 40.0), nodes, ONE)
        result = sweep(net, FrequencyGrid.linear(0.0, 0.0, 2.0, 9))
        assert result.reports[0].status == "pole_gbar"
        assert result.reports[4].status == "zero_gbar"  # s = j
        bounded = 0
        for r in result.reports:
            try:
                expected = lemma4_bound(net, r.s0, result.m1, result.m2)
            except BoundHypothesisViolated:
                expected = None
            if expected is None:
                assert r.bound is None
            else:
                assert r.bound == pytest.approx(expected, rel=1e-12)
                bounded += 1
            if r.incoherence is None:
                with pytest.raises(PoleOfCoherent):
                    incoherence(net, r.s0)
            else:
                assert r.incoherence == pytest.approx(incoherence(net, r.s0), rel=1e-12)
        assert bounded >= 3

    def test_thread_count_does_not_change_rows(self, monkeypatch):
        net = random_network(np.random.default_rng(23))
        grid = FrequencyGrid.logarithmic(0.1, 0.05, 20.0, 9)
        monkeypatch.setenv("COHERELAB_THREADS", "1")
        serial = [report_csv_row(r) for r in sweep(net, grid).reports]
        monkeypatch.setenv("COHERELAB_THREADS", "4")
        threaded = [report_csv_row(r) for r in sweep(net, grid).reports]
        assert serial == threaded

    def test_memory_does_not_grow_with_grid_size(self, monkeypatch):
        # Each n x n complex T takes 16 n^2 bytes; a 40-point sweep must not
        # hold one per point.
        n = 150
        gains = np.random.default_rng(37).uniform(0.5, 2.0, size=n)
        net = NetworkModel(complete_graph(n), [RationalTF([k], [1.0, 1.0]) for k in gains], ONE)
        grid = FrequencyGrid.linear(0.5, 0.1, 5.0, 40)
        monkeypatch.setenv("COHERELAB_THREADS", "1")
        tracemalloc.start()
        try:
            result = sweep(net, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.status == "ok" and r.transfer is None for r in result.reports)
        assert peak < 10 * 16 * n * n

    def test_one_point_holds_no_shifted_copy_of_t(self):
        # The system matrix and T take 16 n^2 bytes each; the spectral norms
        # add no third n x n complex matrix (T - gbar/n 11^T is never formed).
        n = 300
        gains = np.random.default_rng(38).uniform(0.5, 2.0, size=n)
        net = NetworkModel(complete_graph(n), [RationalTF([k], [1.0, 1.0]) for k in gains], ONE)
        records = _probe_records(net, [0.5 + 1.0j, 0.5 + 1.3j], 1e-12, 1e-6)
        lam2 = float(n)  # the complete graph's
        _point_report(net, lam2, *records[0], None, None, tol_classify=1e-6, keep_transfer=False)
        tracemalloc.start()
        try:
            report = _point_report(net, lam2, *records[1], None, None, tol_classify=1e-6,
                                   keep_transfer=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == "ok" and report.incoherence is not None
        assert peak < 3 * 16 * n * n

    def test_closed_loop_pole_is_ill_conditioned_with_no_transfer_matrix(self):
        net = consensus_pair()  # closed-loop poles at 0 and -2; gbar(-2) = -1/2
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # reported in the status, never warned
            result = sweep(net, FrequencyGrid.linear(-2.0, 0.0, 1.0, 3))
            near = evaluate_point(net, -2.0 + 1e-14)
        pole = result.reports[0]
        assert pole.status == "ill_conditioned" and pole.gbar == pytest.approx(-0.5)
        assert pole.norm_transfer is None and pole.incoherence is None and pole.bound is None
        assert [r.status for r in result.reports[1:]] == ["ok", "ok"]
        # Solvable but past the condition limit: T exists and is measured.
        assert near.status == "ill_conditioned" and near.norm_transfer > 1e12
        assert near.incoherence is not None

    def test_each_report_is_the_point_report_under_the_sweep_envelopes(self):
        # f = 1/(s^2 + 1) has a pole at j; g_3 = s/(9 - s^2) vanishes at 0;
        # the inverse gains s, s and (9 - s^2)/s sum to zero at 3j.
        nodes = [INTEGRATOR, INTEGRATOR, RationalTF([0.0, 1.0], [9.0, 0.0, -1.0])]
        net = NetworkModel(complete_graph(3, 2.0), nodes, RationalTF([1.0], [1.0, 0.0, 1.0]))
        result = sweep(net, FrequencyGrid.linear(0.0, 0.0, 4.0, 9))
        statuses = [r.status for r in result.reports]
        assert statuses[:3] == ["zero_gbar", "ok", "pole_f"] and statuses[6] == "pole_gbar"
        assert {"pole_f", "pole_gbar", "zero_gbar", "ok"} == set(statuses)
        assert result.m1 is not None and result.m2 is not None
        for report in result.reports:
            assert report == evaluate_point(net, report.s0, m1=result.m1, m2=result.m2,
                                            keep_transfer=False)

    @pytest.mark.parametrize("omegas, first", [((-1.0, -0.5, 0.0, 0.5), -1.0 - 0.5j),
                                               ((0.0, 0.5, 1.0), -1.0 + 0.0j)])
    def test_the_first_point_that_fails_raises(self, omegas, first):
        # Node 0 is 0/0 at s = -1 (nothing cancels with tol_cancel = 0); the
        # coupling has poles at -1 +- 0.5j, unclassified with tol_classify < 0.
        nodes = [RationalTF([1.0, 1.0], [1.0 + 1e-14, 1.0]), RationalTF([1.0], [1.0, 1.0])]
        coupling = RationalTF([1.0], [1.25, 2.0, 1.0])
        net = NetworkModel(complete_graph(2), nodes, coupling, tol_cancel=0.0)
        grid = FrequencyGrid(-1.0, np.array(omegas), "lin")
        expected = PoleOfCoupling if first.imag else IndeterminateAt
        with pytest.raises(expected) as caught:
            sweep(net, grid, tol_classify=-1.0)
        assert caught.value.s == first

    def test_transfer_grounds_whichever_nodes_vanish(self):
        # Node 0 vanishes at -1, node 1 at -2 and node 2 at -3.
        nodes = [RationalTF([1.0, 1.0], [5.0, 1.0]), RationalTF([2.0, 1.0], [6.0, 1.0]),
                 RationalTF([3.0, 1.0], [0.5, 1.0])]
        net = NetworkModel(laplacian_from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]), nodes, ONE)
        points = [0.5 + 1j, -1.0, -2.0, -3.0, -1.0 + 0.5j]
        records = [pt for pt, _ in _probe_records(net, points, 1e-12, DEFAULT_TOL_CLASSIFY)]
        assert [pt.vanished for pt in records] == [(), (0,), (1,), (2,), ()]
        for s, pt in zip(points, records):
            t, cond = _transfer(pt, net.laplacian.matrix)
            np.testing.assert_allclose(t, transfer_matrix_direct(net, s), rtol=0.0, atol=1e-14)
            assert not t[list(pt.vanished)].any() and not t[:, list(pt.vanished)].any()
            assert cond >= 1.0
        # Where every gain vanishes, T is zero and the estimate is 1.
        shared = [RationalTF([1.0, 1.0], [p, 1.0]) for p in (2.0, 3.0, 0.5)]
        net = NetworkModel(net.laplacian, shared, ONE)
        [(pt, _)] = _probe_records(net, [-1.0], 1e-12, DEFAULT_TOL_CLASSIFY)
        t, cond = _transfer(pt, net.laplacian.matrix)
        assert not t.any() and cond == 1.0


class TestSupIncoherence:
    def test_single_point_grid(self):
        net = consensus_pair()
        grid = FrequencyGrid.linear(1.0, 0.0, 0.0, 1)
        assert sup_incoherence(net, grid) == pytest.approx(incoherence(net, 1.0))

    def test_matches_eigenmode_formula_for_identical_nodes(self):
        g = RationalTF([1.0], [1.0, 1.0])
        net = NetworkModel(complete_graph(3, 1.0), [g] * 3, ONE)
        grid = FrequencyGrid.linear(0.0, 0.5, 3.0, 7)
        expected = max(1.0 / abs(s + 1.0 + 3.0) for s in grid.points)
        assert sup_incoherence(net, grid, refine_check=False) == pytest.approx(expected)

    def test_monotone_under_refinement(self):
        net = random_network(np.random.default_rng(31), coupling=ONE)
        grid = FrequencyGrid.linear(0.2, 0.1, 4.0, 6)
        coarse = sup_incoherence(net, grid, refine_check=False)
        fine = sup_incoherence(net, grid.refined(), refine_check=False)
        assert coarse <= fine + 1e-15

    def test_undefined_point_raises(self):
        with pytest.raises(UndefinedPointInGrid):
            sup_incoherence(consensus_pair(), FrequencyGrid.linear(0.0, 0.0, 1.0, 2))

    def test_coarse_grid_warns_on_missed_resonance(self):
        g = RationalTF([1.0], [1.0, 0.01, 1.0])
        net = NetworkModel(complete_graph(2, 1.0), [g, g], ONE)
        grid = FrequencyGrid.linear(0.0, 1.0, 2.0, 2)
        with pytest.warns(GridRefinementWarning):
            sup_incoherence(net, grid)


# ---------------------------------------------------------------------------
# Reports at a point / CSV
# ---------------------------------------------------------------------------


class TestEvaluatePoint:
    def test_ok_point_carries_everything(self):
        net = NetworkModel(complete_graph(2, 2.0), [INTEGRATOR, INTEGRATOR], ONE)
        report = evaluate_point(net, 1.0)
        assert report.status == "ok"
        assert report.incoherence == pytest.approx(0.2)
        assert report.bound is not None
        assert report.incoherence <= report.bound
        assert report.effective_connectivity == pytest.approx(4.0)
        assert report.transfer is not None and report.transfer.shape == (2, 2)

    def test_coupling_pole_point(self):
        net = NetworkModel(complete_graph(2, 1.0), [INTEGRATOR, INTEGRATOR], INV_S)
        report = evaluate_point(net, 0.0)
        assert report.status == "pole_f"
        assert report.incoherence is None
        assert report.effective_connectivity == math.inf

    def test_csv_row_formats(self):
        net = NetworkModel(complete_graph(2, 2.0), [INTEGRATOR, INTEGRATOR], ONE)
        header = report_csv_header()
        assert header == "sigma,omega,incoherence,bound,eff_conn,norm_T,multiplicity,status"
        row = report_csv_row(evaluate_point(net, 1.0))
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        assert cells[0] == "1.0" and cells[1] == "0.0"
        assert cells[-1] == "ok"
        pole_row = report_csv_row(
            evaluate_point(
                NetworkModel(complete_graph(2, 1.0), [INTEGRATOR, INTEGRATOR], INV_S), 0.0
            )
        )
        cells = pole_row.split(",")
        assert cells[2] == "" and cells[3] == "" and cells[4] == "inf"
        assert cells[-1] == "pole_f"


class TestPointwiseCoherentPoles:
    """Poles and zeros of the coherent mean are read from the point values.

    The expanded harmonic mean of these 50 nodes has 31 poles, mostly
    wrong ones; its roots would call the true pole ``ok`` and the
    spurious one ``pole_gbar``.
    """

    @pytest.fixture(scope="class")
    def case(self):
        nodes, pole = biproper_mean_case()
        return NetworkModel(complete_graph(50), nodes, ONE), pole

    def test_true_pole_is_a_pole_of_the_coherent_mean(self, case):
        net, pole = case
        report = evaluate_point(net, pole)
        assert report.status == "pole_gbar"
        assert report.gbar is None and report.incoherence is None
        assert report.norm_transfer > 0.0
        rows = convergence_study(net, pole, [1, 4, 16])
        assert [r.kind for r in rows] == ["norm_T"] * 3
        assert rows[0].value == report.norm_transfer

    def test_spurious_symbolic_pole_is_an_ordinary_point(self, case):
        net, _ = case
        report = evaluate_point(net, SPURIOUS_SYMBOLIC_POLE)
        assert report.status == "ok"
        assert report.incoherence == pytest.approx(
            incoherence(net, SPURIOUS_SYMBOLIC_POLE), rel=1e-12
        )
        assert report.incoherence == pytest.approx(0.01975, rel=1e-3)


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------


class TestConvergenceStudy:
    def test_closed_form_and_sorting(self):
        rows = convergence_study(consensus_pair(), 1.0, [8, 1, 4, 2])
        assert [r.alpha for r in rows] == [1.0, 2.0, 4.0, 8.0]
        for r in rows:
            assert r.kind == "incoherence"
            assert r.value == pytest.approx(1.0 / (1.0 + 2.0 * r.alpha))
            if r.bound is not None:
                assert r.value <= r.bound

    def test_halving_rate(self):
        rows = convergence_study(consensus_pair(), 1.0, [8, 16, 32, 64, 128])
        for a, b in zip(rows, rows[1:]):
            assert 0.45 <= b.value / a.value <= 0.55

    def test_determinism(self):
        net = random_network(np.random.default_rng(41), coupling=ONE)
        first = convergence_study(net, 0.9 + 0.4j, [1, 10, 100])
        second = convergence_study(net, 0.9 + 0.4j, [1, 10, 100])
        assert [(r.alpha, r.value, r.bound) for r in first] == [
            (r.alpha, r.value, r.bound) for r in second
        ]
        for r in first:
            scaled = NetworkModel(scale_connectivity(net.laplacian, r.alpha), net.nodes, net.coupling)
            assert r.value == pytest.approx(incoherence(scaled, 0.9 + 0.4j), rel=1e-12)

    def test_transfer_norm_mode_at_coherent_pole(self):
        net = NetworkModel(
            complete_graph(2, 1.0),
            [RationalTF([1.0], [-1.0, 1.0]), RationalTF([1.0], [1.0, 1.0])],
            ONE,
        )
        rows = convergence_study(net, 0.0, [1, 10, 100])
        assert all(r.kind == "norm_T" for r in rows)
        values = [r.value for r in rows]
        assert values[0] < values[1] < values[2]
        assert values[2] > 100.0  # grows without bound in the multiplier

    def test_coupling_pole_rejected(self):
        net = NetworkModel(complete_graph(2, 1.0), [INTEGRATOR, INTEGRATOR], INV_S)
        with pytest.raises(PoleOfCoupling):
            convergence_study(net, 0.0, [1, 2])

    def test_ill_conditioned_solves_warn_in_multiplier_order(self, monkeypatch):
        # Four multipliers on two threads: the rows are solved in the pool,
        # the warnings come from the caller's thread.
        monkeypatch.setenv("COHERELAB_THREADS", "2")
        with pytest.warns(IllConditionedWarning) as caught:
            rows = convergence_study(near_singular_ring(), NEAR_ORIGIN, [8, 1, 4, 2])
        assert [w.filename for w in caught] == [__file__] * 4
        estimates = [float(str(w.message).rsplit(" ", 1)[1]) for w in caught]
        assert estimates == sorted(estimates)
        assert [r.alpha for r in rows] == [1.0, 2.0, 4.0, 8.0]


# ---------------------------------------------------------------------------
# Behaviour at poles of the coherent mean
# ---------------------------------------------------------------------------


def mirrored_pair(weight: float) -> NetworkModel:
    g1 = RationalTF([1.0], [-1.0, 1.0])  # 1/(s-1)
    g2 = RationalTF([1.0], [1.0, 1.0])  # 1/(s+1)
    return NetworkModel(complete_graph(2, weight), [g1, g2], ONE)


class TestCoherentPoleDirection:
    def test_worked_example_direction_is_one(self):
        gamma = coherent_pole_direction(mirrored_pair(1.0), 0.0)
        assert abs(gamma - 1.0) < 1e-12

    def test_direction_invariant_under_positive_scaling(self):
        gamma = coherent_pole_direction(mirrored_pair(1.0), 0.0, lambda_lim=[2.0])
        assert abs(gamma - 1.0) < 1e-12

    def test_lambda_lim_validated(self):
        with pytest.raises(ValidationError):
            coherent_pole_direction(mirrored_pair(1.0), 0.0, lambda_lim=[1.0, 2.0])
        with pytest.raises(ValidationError):
            coherent_pole_direction(mirrored_pair(1.0), 0.0, lambda_lim=[-1.0])

    def test_requires_pole(self):
        with pytest.raises(NotAPoleOfCoherent):
            coherent_pole_direction(mirrored_pair(1.0), 1.0)

    def test_identical_nodes_are_degenerate(self):
        g = RationalTF([1.0], [1.0, 1.0])
        net = NetworkModel(complete_graph(2, 1.0), [g, g], ONE)
        with pytest.raises(DegenerateGamma):
            coherent_pole_direction(net, -1.0)


class TestNormalizedIncoherence:
    def test_decreases_with_connectivity(self):
        values = [normalized_incoherence(mirrored_pair(w), 0.0) for w in (10.0, 100.0, 1000.0)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-3

    def test_requires_pole(self):
        with pytest.raises(NotAPoleOfCoherent):
            normalized_incoherence(mirrored_pair(1.0), 0.5)

    def test_ill_conditioned_solve_warns(self):
        # det(diag(-1, 1) + w L) = -1, so the condition estimate is (2w + 1)^2
        with pytest.warns(IllConditionedWarning, match="condition estimate 4.000e") as caught:
            normalized_incoherence(mirrored_pair(1e6), 0.0)
        assert [w.filename for w in caught] == [__file__]

    def test_shape_distance_definition(self):
        net = mirrored_pair(100.0)
        t = transfer_matrix(net, 0.0)
        t_hat = t / np.linalg.norm(t, 2)
        # the limiting profile carries the coupling sign: T concentrates on
        # -(1/n) 11^T here, the mirror image of the reported direction
        target = -np.ones((2, 2)) / 2.0
        assert normalized_incoherence(net, 0.0) == pytest.approx(
            float(np.linalg.norm(t_hat - target, 2))
        )


# ---------------------------------------------------------------------------
# Eligibility and failure experiments
# ---------------------------------------------------------------------------


class TestRhpUniformCheck:
    def test_eligible_biproper_pair(self):
        net = NetworkModel(
            complete_graph(2, 1.0),
            [RationalTF([1.0, 1.0], [2.0, 1.0]), RationalTF([3.0, 1.0], [4.0, 1.0])],
            ONE,
        )
        verdict = rhp_uniform_check(net)
        assert verdict.eligible
        assert "eligible" in str(verdict)

    def test_strictly_proper_nodes_ineligible(self):
        verdict = rhp_uniform_check(consensus_pair())
        assert not verdict.eligible
        assert "strictly proper" in verdict.reason

    def test_shared_rhp_zero_ineligible(self):
        net = NetworkModel(
            complete_graph(2, 1.0),
            [RationalTF([-1.0, 1.0], [2.0, 1.0]), RationalTF([-1.0, 1.0], [3.0, 1.0])],
            ONE,
        )
        verdict = rhp_uniform_check(net)
        assert not verdict.eligible
        assert "share" in verdict.reason

    def test_unstable_mean_ineligible(self):
        g = RationalTF([1.0, 1.0], [-2.0, 1.0])
        net = NetworkModel(complete_graph(2, 1.0), [g, g], ONE)
        verdict = rhp_uniform_check(net)
        assert not verdict.eligible
        assert "pole" in verdict.reason


class TestFailureExperiment:
    @staticmethod
    def shared_zero_net():
        g1 = RationalTF([1.0, 1.0], [2.0, 1.0])
        return NetworkModel(complete_graph(2, 1.0), [g1, tf_scale(g1, 1.3)], ONE)

    @staticmethod
    def distinct_zero_net():
        g1 = RationalTF([1.0, 1.0], [2.0, 1.0])
        g2 = tf_scale(RationalTF([3.0, 1.0], [2.0, 1.0]), 1.3)
        return NetworkModel(complete_graph(2, 1.0), [g1, g2], ONE)

    def test_shared_zero_obstruction_persists(self):
        rows = failure_experiment(self.shared_zero_net(), -1.0, 0.25, [10, 100, 1000])
        sups = [r.sup_value for r in rows]
        assert min(sups) > 0.5 * sups[0]
        assert min(sups) > 0.1

    def test_obstruction_migrates_toward_shared_zero(self):
        rows = failure_experiment(self.shared_zero_net(), -1.0, 0.25, [10, 1000])
        assert abs(rows[1].argmax - (-1.0)) < abs(rows[0].argmax - (-1.0))

    def test_distinct_zeros_decay(self):
        rows = failure_experiment(
            self.distinct_zero_net(), -1.0, 0.25, [10, 1000], expect_shared=False
        )
        assert rows[1].sup_value < rows[0].sup_value / 10.0

    def test_hypothesis_validated(self):
        with pytest.raises(HypothesisViolated):
            failure_experiment(self.distinct_zero_net(), -1.0, 0.25, [1.0])

    def test_no_coupling_limit_is_finite(self):
        rows = failure_experiment(self.shared_zero_net(), -1.0, 0.25, [1e-9])
        assert math.isfinite(rows[0].sup_value)


# ---------------------------------------------------------------------------
# Model construction and validation
# ---------------------------------------------------------------------------


class TestNetworkModel:
    def test_node_count_must_match(self):
        with pytest.raises(ValidationError):
            NetworkModel(complete_graph(3, 1.0), [INTEGRATOR, INTEGRATOR], ONE)

    def test_structural_report_flags_improper_node(self):
        improper = RationalTF([0.0, 0.0, 1.0], [1.0, 1.0])  # s^2 / (s+1)
        net = NetworkModel(complete_graph(2, 1.0), [improper, INTEGRATOR], ONE)
        assert not net.assumptions.ok
        assert 0 in net.assumptions.improper_nodes
        assert "improper" in net.assumptions.summary()

    def test_structural_report_flags_coupling_pole_clash(self):
        # coupling pole at 0 coincides with a node zero at 0
        node = RationalTF([0.0, 1.0], [1.0, 1.0])  # s/(s+1)
        net = NetworkModel(complete_graph(2, 1.0), [node, INTEGRATOR], INV_S)
        assert not net.assumptions.ok
        assert net.assumptions.coupling_pole_clashes
        assert "coincides" in net.assumptions.summary()

    def test_disconnected_graph_is_warning_not_violation(self):
        lap = laplacian_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        net = NetworkModel(lap, [INTEGRATOR] * 4, ONE)
        assert net.assumptions.ok
        assert not net.assumptions.connected
        assert "disconnected" in net.assumptions.summary()

    def test_clean_model_reports_ok(self):
        net = consensus_pair()
        assert net.assumptions.ok
        assert "ok" in net.assumptions.summary()

    @pytest.mark.parametrize("n", [3, 70])
    def test_identically_zero_node_is_rejected(self, n):
        nodes = [INTEGRATOR] * (n - 1) + [RationalTF([0.0], [1.0, 1.0])]
        with pytest.raises(ZeroFunctionInverse, match=f"node {n - 1}"):
            NetworkModel(complete_graph(n, 1.0), nodes, ONE)

    def test_inverses_summing_to_zero_make_every_point_a_coherent_pole(self):
        g = RationalTF([1.0, 1.0], [2.0, 1.0])
        net = NetworkModel(complete_graph(2, 1.0), [g, tf_scale(g, -1.0)], ONE)
        grid = FrequencyGrid.linear(0.5, 0.0, 3.0, 7)
        assert {r.status for r in sweep(net, grid).reports} == {"pole_gbar"}
        assert [r.kind for r in convergence_study(net, 0.5 + 1j, [1, 4])] == ["norm_T"] * 2
        # The symbolic mean does not exist, so its consumers refuse.
        with pytest.raises(DegenerateMean):
            rhp_uniform_check(net)

    def test_graph_swap_shares_dynamics(self):
        net = consensus_pair()
        swapped = NetworkModel(scale_connectivity(net.laplacian, 4.0), net.nodes, net.coupling)
        assert abs(incoherence(swapped, 1.0) - 1.0 / 9.0) < 1e-12
