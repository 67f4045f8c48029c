"""Tests for random node sampling and dynamics concentration."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coherelab import (
    FrequencyGrid,
    NetworkModel,
    RationalTF,
    ValidationError,
    complete_graph,
    gbar_value,
    tf_approx_equal,
    tf_eval,
    transfer_matrix,
)
from coherelab.concentration import (
    CompleteFamily,
    ConcentrationRow,
    ConcentrationTable,
    Constant,
    ExpectedDynamics,
    MonteCarlo,
    NoClosedForm,
    RandomTFModel,
    RingFamily,
    Uniform,
    concentration_csv_header,
    concentration_csv_lines,
    concentration_experiment,
    expected_dynamics,
    sample_nodes,
    _STACK_BYTES,
    _draw_tables,
    _trial_measurements,
)
from coherelab.coherence import PoleOfCoupling, SingularSystem, _node_tables
from coherelab.errors import IllConditionedWarning
from coherelab.rational import AT_INFINITY, ExcessiveDegree, simplify

UNIT_COUPLING = RationalTF([1.0], [1.0])


def gain_over_integrator(lo=1.0, hi=5.0, seed=7):
    """The consensus family: g = k/s with k ~ Unif(lo, hi)."""
    return RandomTFModel((Uniform(lo, hi),), (Constant(0.0), Constant(1.0)), seed=seed)


class TestCoefficientSpecs:
    def test_uniform_requires_ordered_bounds(self):
        with pytest.raises(ValidationError):
            Uniform(2.0, 2.0)
        with pytest.raises(ValidationError):
            Uniform(3.0, 1.0)

    def test_constant_requires_finite(self):
        with pytest.raises(ValidationError):
            Constant(math.inf)

    def test_model_rejects_unbound_slots(self):
        with pytest.raises(ValidationError):
            RandomTFModel((1.5,), (Constant(1.0),), seed=0)
        with pytest.raises(ValidationError):
            RandomTFModel((), (Constant(1.0),), seed=0)

    def test_model_rejects_bad_seed(self):
        with pytest.raises(ValidationError):
            RandomTFModel((Constant(1.0),), (Constant(1.0),), seed=-1)
        with pytest.raises(ValidationError):
            RandomTFModel((Constant(1.0),), (Constant(1.0),), seed=2**64)

    def test_model_rejects_all_zero_numerator(self):
        with pytest.raises(ValidationError, match="numerator is identically zero"):
            RandomTFModel((Constant(0.0), Constant(-0.0)), (Constant(0.0), Constant(1.0)))
        # One random slot keeps the numerator alive.
        RandomTFModel((Constant(0.0), Uniform(1.0, 2.0)), (Constant(0.0), Constant(1.0)))

    def test_model_rejects_all_zero_denominator(self):
        with pytest.raises(ValidationError, match="denominator is identically zero"):
            RandomTFModel((Constant(1.0),), (Constant(0.0), Constant(-0.0)))
        RandomTFModel((Constant(1.0),), (Constant(0.0), Uniform(1.0, 2.0)))

    def test_uniform_width_must_be_finite(self):
        with pytest.raises(ValidationError, match="width"):
            Uniform(-1e308, 1e308)


class TestSampleNodes:
    def test_draws_live_in_the_declared_range(self):
        gs = sample_nodes(gain_over_integrator(), 20)
        for g in gs:
            k = float(g.num.coeffs[0])
            assert 1.0 < k < 5.0
            assert np.array_equal(g.den.coeffs, [0.0, 1.0])

    def test_constant_model_gives_identical_copies(self):
        model = RandomTFModel(
            (Constant(2.0),), (Constant(1.0), Constant(3.0)), seed=5
        )
        gs = sample_nodes(model, 4)
        for g in gs[1:]:
            assert np.array_equal(g.num.coeffs, gs[0].num.coeffs)
            assert np.array_equal(g.den.coeffs, gs[0].den.coeffs)

    def test_deterministic_given_model_and_seed(self):
        a = sample_nodes(gain_over_integrator(), 5)
        b = sample_nodes(gain_over_integrator(), 5)
        for x, y in zip(a, b):
            assert np.array_equal(x.num.coeffs, y.num.coeffs)

    def test_prefix_stability_across_n(self):
        model = gain_over_integrator()
        long = sample_nodes(model, 9)
        short = sample_nodes(model, 3)
        for x, y in zip(short, long[:3]):
            assert np.array_equal(x.num.coeffs, y.num.coeffs)

    def test_seed_argument_overrides_model_seed(self):
        model = gain_over_integrator(seed=7)
        override = sample_nodes(model, 3, seed=8)
        default = sample_nodes(model, 3)
        assert not all(
            np.array_equal(x.num.coeffs, y.num.coeffs)
            for x, y in zip(override, default)
        )

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_seed_argument_follows_the_model_seed_rule(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            sample_nodes(gain_over_integrator(), 3, seed=seed)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValidationError):
            sample_nodes(gain_over_integrator(), 0)


_SLOT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-14]).map(Constant),
    st.floats(-3.0, 3.0).map(Constant),
    st.tuples(st.floats(-3.0, 2.0), st.floats(0.1, 3.0)).map(lambda b: Uniform(b[0], b[0] + b[1])),
)


def _outcome(build):
    """The tables' shapes and bytes, or the error that building them raised."""
    try:
        return [(table.shape, table.tobytes()) for table in build()]
    except ValidationError as exc:
        return type(exc), str(exc)


def _tables_outcomes(model, n, seed, prefix):
    drawn = _outcome(lambda: _draw_tables(model, n, seed, prefix))
    sampled = _outcome(lambda: _node_tables(
        [simplify(g) for g in sample_nodes(model, n, seed=seed, spawn_prefix=prefix)]
    ))
    return drawn, sampled


class TestTrialTables:
    """A trial draws straight into coefficient tables; they must equal the
    tables of its simplified ``sample_nodes`` draws bit for bit."""

    @given(
        num=st.lists(_SLOT, min_size=1, max_size=4),
        den=st.lists(_SLOT, min_size=1, max_size=4),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**64 - 1),
    )
    # A factor s that simplification cancels: k s / s.
    @example(num=[Constant(0.0), Uniform(1.0, 2.0)], den=[Constant(0.0), Constant(1.0)],
             n=5, seed=3)
    # Mixed degrees, a -0.0 slot and a leading coefficient that trimming drops.
    @example(num=[Uniform(0.5, 1.0), Constant(-0.0), Constant(1e-14)],
             den=[Uniform(1.0, 2.0), Constant(1.0), Constant(0.0), Uniform(-1.0, 1.0)], n=4, seed=8)
    # A subnormal leading denominator coefficient: RationalTF rejects the node.
    @example(num=[Constant(0.0), Constant(1.0)], den=[Constant(5e-324)], n=1, seed=0)
    @settings(max_examples=80, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    def test_tables_match_simplified_samples(self, num, den, n, seed):
        if all(isinstance(spec, Constant) and spec.value == 0.0 for spec in num):
            num = [*num, Constant(1.0)]
        if all(isinstance(spec, Constant) and spec.value == 0.0 for spec in den):
            den = [*den, Constant(1.0)]
        drawn, sampled = _tables_outcomes(RandomTFModel(tuple(num), tuple(den)), n, seed, (n, 2))
        assert drawn == sampled

    def test_nodes_that_rational_tf_rejects_raise_as_sampling_does(self):
        model = RandomTFModel((Constant(1.0),) * 65 + (Uniform(1.0, 2.0),), (Constant(1.0),))
        drawn, sampled = _tables_outcomes(model, 2, 0, ())
        assert drawn == sampled == (ExcessiveDegree, str(sampled[1]))

    def test_trial_builds_no_transfer_function_and_one_stack_per_chunk(self, monkeypatch):
        calls = {"RationalTF": 0, "inv": 0, "solve": 0, "svd": 0}
        init = RationalTF.__init__

        def counting_init(self, *args, **kwargs):
            calls["RationalTF"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(RationalTF, "__init__", counting_init)
        for name in ("inv", "solve", "svd"):

            def counting(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        n = 60
        points = FrequencyGrid.linear(0.5, 0.1, 2.0, 12).points
        _trial_measurements(gain_over_integrator(), n, complete_graph(n), points,
                            [1.0 + 0j] * len(points), 2.0 / points, 3, 0)
        chunks = math.ceil(len(points) / (_STACK_BYTES // (16 * n * n)))
        assert chunks > 1
        assert calls == {"RationalTF": 0, "inv": chunks, "solve": 0, "svd": chunks}

    def test_points_with_vanished_gains_share_a_chunk_with_stacked_points(self):
        # Every gain (s - 1)/(s + a) vanishes at s = 1, where T is zero.
        model = RandomTFModel(
            (Constant(-1.0), Constant(1.0)), (Uniform(0.5, 2.0), Constant(1.0)), seed=4
        )
        n, seed, trial = 7, 2, 1
        lap = complete_graph(n)
        points = np.array([0.5 + 1.0j, 1.0 + 0.0j, 2.0 + 0.5j])
        ghats = np.array([0.3 + 0.1j, 0.2, 0.9 - 0.2j])
        sup_gbar, sup_inc, max_inv = _trial_measurements(
            model, n, lap, points, [1.0 + 0j] * 3, ghats, seed, trial
        )
        net = NetworkModel(lap, sample_nodes(model, n, seed=seed, spawn_prefix=(n, trial)),
                           UNIT_COUPLING)
        assert not transfer_matrix(net, 1.0).any()
        assert max_inv == math.inf
        assert sup_gbar == pytest.approx(
            max(abs(gbar_value(net, s) - g) for s, g in zip(points, ghats)), rel=1e-15
        )
        assert sup_inc == pytest.approx(
            max(np.linalg.norm(transfer_matrix(net, s) - g / n * np.ones((n, n)), 2)
                for s, g in zip(points, ghats)),
            rel=1e-15,
        )

    def test_ill_conditioned_points_warn_once_each_as_transfer_matrix_does(self):
        # Gains near 1e14 leave f L + diag(1/g) close to the singular L
        # wherever f is not tiny.
        model = RandomTFModel((Uniform(1e14, 2e14),), (Constant(1.0),), seed=3)
        n, seed = 6, 4
        lap = complete_graph(n)
        points = np.array([0.5 + 0.5j, 0.5 + 1.0j, 0.5 + 2.0j])
        f_vals = [1e-16 + 0j, 1.0 + 0j, 2.0 + 0j]
        nodes = sample_nodes(model, n, seed=seed, spawn_prefix=(n, 0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _trial_measurements(model, n, lap, points, f_vals, np.ones(3), seed, 0)
            for s, f in zip(points, f_vals):
                transfer_matrix(NetworkModel(lap, nodes, RationalTF([f.real], [1.0])), s)
        messages = [str(w.message) for w in caught if w.category is IllConditionedWarning]
        assert len(messages) == 4
        assert messages[:2] == messages[2:]
        assert f"at s = {points[1]} has condition estimate" in messages[0]

    @pytest.mark.parametrize("pole_first", [True, False])
    def test_failures_surface_at_the_first_failing_point(self, pole_first):
        # Two k/s nodes at s = 0 give the exactly singular system L; f has a
        # pole elsewhere.
        points = np.array([0.5 + 1.0j, 0.0 + 0.0j, 0.5 + 2.0j])
        f_vals = [1.0 + 0j, 1.0 + 0j, AT_INFINITY]
        if pole_first:
            points, f_vals = points[::-1], f_vals[::-1]
        with pytest.raises((PoleOfCoupling, SingularSystem)) as caught:
            _trial_measurements(gain_over_integrator(), 2, complete_graph(2), points,
                                f_vals, np.ones(3), 3, 0)
        assert type(caught.value) is (PoleOfCoupling if pole_first else SingularSystem)
        assert caught.value.s == (0.5 + 2.0j if pole_first else 0.0)

    def test_trial_memory_is_bounded_by_the_chunk_budget(self):
        # 40 points at n = 150 are 14.4 MB per (K, n, n) stack; a trial
        # must hold its grid a chunk at a time (a chunk is one point where
        # a single system exceeds the budget), with a few chunk-sized
        # arrays alive at once.
        n = 150
        points = FrequencyGrid.linear(0.5, 0.1, 5.0, 40).points
        chunk = max(_STACK_BYTES, 16 * n * n)
        assert len(points) * 16 * n * n > 30 * chunk
        args = (gain_over_integrator(), n, complete_graph(n), points,
                [1.0 + 0j] * len(points), 2.0 / points, 3, 0)
        _trial_measurements(*args)  # one-off allocations stay out of the peak
        tracemalloc.start()
        try:
            _trial_measurements(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * chunk


class TestExpectedDynamics:
    def test_uniform_gain_closed_form(self):
        ghat = expected_dynamics(gain_over_integrator(1.0, 5.0))
        scale = 4.0 / math.log(5.0)
        assert ghat.tf is not None
        assert tf_approx_equal(ghat.tf, RationalTF([scale], [0.0, 1.0]))
        s = 0.5 + 1.0j
        assert ghat.evaluate(s) == pytest.approx(scale / s, rel=1e-12)

    def test_harmonic_expectation_inverts_the_mean_inverse(self):
        # E[1/k] for Unif(1,5) is ln(5)/4.
        ghat = expected_dynamics(gain_over_integrator(1.0, 5.0))
        assert 1.0 / ghat.evaluate(1.0) == pytest.approx(math.log(5.0) / 4.0, rel=1e-12)

    def test_constant_model_expectation_is_itself(self):
        g = RationalTF([2.0, 1.0], [1.0, 3.0, 1.0])
        model = RandomTFModel(
            tuple(Constant(float(c)) for c in g.num.coeffs),
            tuple(Constant(float(c)) for c in g.den.coeffs),
            seed=0,
        )
        assert tf_approx_equal(expected_dynamics(model).tf, g)

    def test_fixed_denominator_generalization(self):
        # g = k/(s+2): ghat = (1/E[1/k]) / (s+2).
        model = RandomTFModel((Uniform(1.0, 5.0),), (Constant(2.0), Constant(1.0)), seed=1)
        ghat = expected_dynamics(model)
        scale = 4.0 / math.log(5.0)
        assert ghat.evaluate(1.0) == pytest.approx(scale / 3.0, rel=1e-12)

    def test_unregistered_family_raises(self):
        model = RandomTFModel(
            (Uniform(1.0, 2.0), Constant(1.0)), (Constant(1.0), Constant(1.0)), seed=0
        )
        with pytest.raises(NoClosedForm):
            expected_dynamics(model)
        # Random gain touching zero has no finite harmonic expectation.
        with pytest.raises(NoClosedForm):
            expected_dynamics(
                RandomTFModel((Uniform(0.0, 1.0),), (Constant(0.0), Constant(1.0)), seed=0)
            )

    def test_monte_carlo_agrees_with_closed_form(self):
        model = gain_over_integrator(1.0, 5.0, seed=3)
        mc = expected_dynamics(model, MonteCarlo(100_000, seed=3))
        assert mc.tf is None
        scale = 4.0 / math.log(5.0)
        value = mc.evaluate(1.0)
        assert value.real == pytest.approx(scale, rel=5e-3)

    def test_monte_carlo_validation(self):
        with pytest.raises(ValidationError):
            MonteCarlo(0)
        for seed in (-1, 2**64, 1.5, True):
            with pytest.raises(ValidationError, match="seed"):
                MonteCarlo(10, seed=seed)
        with pytest.raises(ValidationError):
            expected_dynamics(gain_over_integrator(), "typo")


class TestConcentrationExperiment:
    GRID = FrequencyGrid.linear(0.5, 0.1, 2.0, 5)

    def run_small(self, **kwargs):
        defaults = dict(
            model=gain_over_integrator(),
            graph_family=CompleteFamily(),
            sizes=[4, 8, 16],
            grid=self.GRID,
            trials=4,
            epsilon=0.1,
            seed=1,
        )
        defaults.update(kwargs)
        return concentration_experiment(**defaults)

    def test_rows_sorted_with_expected_connectivity(self):
        table = self.run_small()
        assert [row.n for row in table.rows] == [4, 8, 16]
        for row in table.rows:
            assert row.lambda2 == pytest.approx(row.n, rel=1e-9)
            assert row.trials == 4
            assert 0.0 <= row.exceed_frac <= 1.0
            assert row.sup_incoherence_max >= row.sup_incoherence_mean

    def test_deviation_shrinks_with_size(self):
        table = self.run_small(sizes=[4, 32], trials=8)
        assert table.rows[-1].sup_gbar_dev < table.rows[0].sup_gbar_dev
        assert table.rows[-1].sup_incoherence_mean < table.rows[0].sup_incoherence_mean

    def test_constant_model_has_zero_coherent_deviation(self):
        model = RandomTFModel(
            (Constant(2.0),), (Constant(1.0), Constant(1.0)), seed=0
        )
        table = concentration_experiment(
            model, CompleteFamily(), [4, 8], self.GRID, trials=2, epsilon=0.1, seed=0
        )
        for row in table.rows:
            assert row.sup_gbar_dev < 1e-13

    def test_observed_inverse_gain_within_envelope(self):
        table = self.run_small()
        assert table.inverse_gain_envelope is not None
        assert table.envelope_ok
        assert table.observed_max_inverse_gain > 0.0

    def test_reproducible_given_seed(self):
        a = concentration_csv_lines(self.run_small())
        b = concentration_csv_lines(self.run_small())
        assert a == b

    def test_thread_count_does_not_change_results(self, monkeypatch):
        serial = concentration_csv_lines(self.run_small())
        monkeypatch.setenv("COHERELAB_THREADS", "3")
        threaded = concentration_csv_lines(self.run_small())
        assert serial == threaded

    def test_ring_family_experiment_runs(self):
        table = concentration_experiment(
            gain_over_integrator(),
            RingFamily(0.15),
            [20, 40],
            self.GRID,
            trials=2,
            epsilon=0.1,
            seed=2,
        )
        for row in table.rows:
            assert 0.0 < row.lambda2 < row.n  # far sparser than complete coupling

    def test_ring_family_connectivity_grows_unboundedly(self):
        from coherelab import algebraic_connectivity

        fam = RingFamily(0.15)
        lam = [algebraic_connectivity(fam.build(n)) for n in (60, 120, 240)]
        assert lam[0] < lam[1] < lam[2]

    def test_ring_ratio_validation(self):
        with pytest.raises(ValidationError):
            RingFamily(0.0)
        with pytest.raises(ValidationError):
            RingFamily(1.0)

    def test_rejects_grid_touching_expected_pole(self):
        bad_grid = FrequencyGrid(0.0, np.array([0.0]), "lin")
        with pytest.raises(ValidationError):
            self.run_small(grid=bad_grid, sizes=[4])

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            self.run_small(sizes=[])
        with pytest.raises(ValidationError):
            self.run_small(sizes=[8, 4])
        with pytest.raises(ValidationError):
            self.run_small(sizes=[1, 4])
        with pytest.raises(ValidationError):
            self.run_small(trials=0)
        with pytest.raises(ValidationError):
            self.run_small(epsilon=0.0)
        for seed in (-1, 2**64, 1.5, True):
            with pytest.raises(ValidationError, match="seed"):
                self.run_small(seed=seed)

    def test_one_trial_matches_the_public_api(self):
        # Heterogeneous biproper nodes behind a dynamic coupling filter: the
        # trial's padded tables must give what a NetworkModel on the same
        # draws gives through the public point functions.
        model = RandomTFModel(
            (Uniform(0.5, 2.0), Constant(1.0)), (Uniform(0.5, 2.0), Constant(1.0)), seed=4
        )
        coupling = RationalTF([3.0], [1.0, 1.0])
        n, seed, trial = 12, 5, 2
        lap = complete_graph(n)
        points = self.GRID.points
        ghats = 0.8 / (1.0 + 0.1 * points)
        f_vals = [tf_eval(coupling, s) for s in points]
        sup_gbar, sup_inc, max_inv = _trial_measurements(
            model, n, lap, points, f_vals, ghats, seed, trial
        )
        net = NetworkModel(lap, sample_nodes(model, n, seed=seed, spawn_prefix=(n, trial)), coupling)
        ones = np.ones((n, n))
        assert sup_gbar == pytest.approx(
            max(abs(gbar_value(net, s) - g) for s, g in zip(points, ghats)), rel=1e-15
        )
        assert sup_inc == pytest.approx(
            max(np.linalg.norm(transfer_matrix(net, s) - g / n * ones, 2)
                for s, g in zip(points, ghats)),
            rel=1e-15,
        )
        assert max_inv == pytest.approx(
            max(abs(tf_eval(RationalTF(g.den.coeffs, g.num.coeffs), s))
                for g in net.nodes for s in points),
            rel=1e-15,
        )

    def test_trials_build_no_network_model_and_no_symbolic_mean(self, monkeypatch):
        calls = {"model": 0, "harmonic_mean": 0}
        init = NetworkModel.__init__

        def counting_init(self, *args, **kwargs):
            calls["model"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(NetworkModel, "__init__", counting_init)
        for name, module in list(sys.modules.items()):
            if name.startswith("coherelab") and hasattr(module, "harmonic_mean"):

                def counting_mean(*args, _mean=module.harmonic_mean, **kwargs):
                    calls["harmonic_mean"] += 1
                    return _mean(*args, **kwargs)

                monkeypatch.setattr(module, "harmonic_mean", counting_mean)
        self.run_small()
        assert calls == {"model": 0, "harmonic_mean": 0}
        # The counters are live: one model build runs one symbolic mean.
        NetworkModel(complete_graph(2), sample_nodes(gain_over_integrator(), 2), UNIT_COUPLING)
        assert calls == {"model": 1, "harmonic_mean": 1}

    def test_coherent_deviation_is_pointwise_for_heterogeneous_biproper_nodes(self):
        # The expanded harmonic mean of 30 nodes (s + a)/(s + b) is off by
        # percents, so the deviation must come from the node values.
        model = RandomTFModel(
            (Uniform(0.5, 2.0), Constant(1.0)), (Uniform(0.5, 2.0), Constant(1.0)), seed=4
        )
        ghat = 0.8 - 0.1j
        fixed = ExpectedDynamics(
            lambda pts: np.full(len(pts), ghat), tf=None, method="constant"
        )
        n, trials, seed = 30, 2, 5
        table = concentration_experiment(
            model, CompleteFamily(), [n], self.GRID, trials, 0.1, seed, expected=fixed
        )
        sups = []
        for trial in range(trials):
            gs = sample_nodes(model, n, seed=seed, spawn_prefix=(n, trial))
            sups.append(max(
                abs(n / sum(np.polyval(g.den.coeffs[::-1], s) / np.polyval(g.num.coeffs[::-1], s)
                            for g in gs) - ghat)
                for s in self.GRID.points
            ))
        assert table.rows[0].sup_gbar_dev == pytest.approx(np.mean(sups), rel=1e-9)

    def test_table_requires_sorted_rows(self):
        row = ConcentrationRow(8, 8.0, 0.1, 0.1, 0.2, 2, 0.5)
        smaller = ConcentrationRow(4, 4.0, 0.1, 0.1, 0.2, 2, 0.5)
        with pytest.raises(ValidationError):
            ConcentrationTable((row, smaller), 0.1, 1.0, None)


class TestConsensusOracles:
    def test_sampled_coherent_dynamics_match_closed_form(self):
        model = gain_over_integrator()
        for n, seed in ((3, 11), (7, 12), (12, 13)):
            gs = sample_nodes(model, n, seed=seed)
            net = NetworkModel(complete_graph(n), gs, UNIT_COUPLING)
            kvals = [float(g.num.coeffs[0]) for g in gs]
            expected = RationalTF([n / sum(1.0 / k for k in kvals)], [0.0, 1.0])
            assert tf_approx_equal(net.gbar, expected, tol=1e-12)

    def test_trial_variance_decays_like_one_over_n(self):
        model = gain_over_integrator(seed=99)
        s0 = 0.5 + 1.0j
        sizes = [8, 16, 32, 64, 128]
        variances = []
        for n in sizes:
            vals = []
            for t in range(60):
                gs = sample_nodes(model, n, spawn_prefix=(n, t))
                inv_sum = sum(1.0 / tf_eval(g, s0) for g in gs)
                vals.append(n / inv_sum)
            variances.append(float(np.var(np.array(vals))))
        slope = float(np.polyfit(np.log(sizes), np.log(variances), 1)[0])
        assert -1.3 <= slope <= -0.7


class TestCsv:
    def test_header_and_row_shape(self):
        table = ConcentrationTable(
            (ConcentrationRow(4, 4.0, 0.25, 0.5, 0.75, 3, 1.0 / 3.0),),
            epsilon=0.1,
            observed_max_inverse_gain=2.0,
            inverse_gain_envelope=None,
        )
        lines = concentration_csv_lines(table)
        assert lines[0] == concentration_csv_header()
        assert lines[0] == (
            "n,lambda2,sup_gbar_dev,sup_incoherence_mean,"
            "sup_incoherence_max,trials,exceed_frac"
        )
        assert lines[1] == "4,4.0,0.25,0.5,0.75,3,0.3333333333333333"

    def test_write_and_read_back(self, tmp_path):
        from coherelab.concentration import write_concentration_csv

        table = ConcentrationTable(
            (ConcentrationRow(4, 4.0, 0.25, 0.5, 0.75, 3, 0.0),),
            epsilon=0.1,
            observed_max_inverse_gain=2.0,
            inverse_gain_envelope=3.0,
        )
        path = tmp_path / "table.csv"
        write_concentration_csv(table, path)
        text = path.read_text()
        assert text.splitlines() == concentration_csv_lines(table)
        assert text.endswith("\n")
