"""Tests for random node sampling and dynamics concentration."""

import dataclasses
import math
import os
import signal
import sys
import threading
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
    harmonic_mean,
    rhp_uniform_check,
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
    _KRYLOV_BYTES,
    _complete_incoherence,
    _draw_tables,
    _size_measurements,
)
from coherelab import _parallel, concentration
from coherelab.coherence import (
    _LANCZOS_MAX_STEPS,
    InverseGainOverflow,
    PoleOfCoupling,
    SingularSystem,
    _node_tables,
    _point_values,
    _spectral_norm,
    _transfer,
    _warn_ill_conditioned,
)
from coherelab import _streams
from coherelab.errors import IllConditionedWarning, NumericalError
from coherelab.network import NonPositiveWeight
from coherelab.rational import (
    AT_INFINITY, DEFAULT_TOL_ZERO, ExcessiveDegree, IndeterminateAt, is_at_infinity, simplify,
)

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

    @pytest.mark.parametrize("n", [2.5, 4.7, True, np.float64(3.0)])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(ValidationError, match="n must be an integer"):
            sample_nodes(gain_over_integrator(), n)

    def test_numpy_integer_n(self):
        model = gain_over_integrator()
        got, want = sample_nodes(model, np.int64(3)), sample_nodes(model, 3)
        assert len(got) == 3
        for x, y in zip(got, want):
            assert np.array_equal(x.num.coeffs, y.num.coeffs)

    def test_numpy_integers_serve_as_seed_and_spawn_prefix(self):
        want = sample_nodes(gain_over_integrator(seed=7), 3, spawn_prefix=(4, 1))
        model = gain_over_integrator(seed=np.int64(7))
        assert type(model.seed) is int
        for got in (sample_nodes(model, 3, spawn_prefix=(np.uint32(4), np.int8(1))),
                    sample_nodes(model, 3, seed=np.uint64(7), spawn_prefix=(4, np.int64(1)))):
            for x, y in zip(got, want):
                assert np.array_equal(x.num.coeffs, y.num.coeffs)

    @pytest.mark.parametrize("seed", [np.True_, np.float64(7.0)])
    def test_numpy_non_integers_are_refused_as_seeds(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            sample_nodes(gain_over_integrator(), 3, seed=seed)

    @pytest.mark.parametrize("prefix", [(-1,), (1.5,), ("a",), (True,), (3, -2)])
    def test_rejects_a_spawn_prefix_of_other_than_non_negative_ints(self, prefix):
        with pytest.raises(ValidationError, match="spawn key"):
            sample_nodes(gain_over_integrator(), 2, spawn_prefix=prefix)


# A spawn-key element of one uint32 word (0 among them) or of two or three.
_KEY_ELEMENT = st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**80))


class TestUnitTable:
    """A trial's node substreams, derived in bulk, must be numpy's own."""

    @given(
        seed=st.integers(0, 2**64 - 1),
        prefix=st.lists(_KEY_ELEMENT, max_size=3).map(tuple),
        n=st.integers(1, 300),
        m=st.integers(1, 4),
    )
    @example(seed=0, prefix=(), n=1, m=1)
    @example(seed=2**32 - 1, prefix=(0, 2**32), n=3, m=4)
    @example(seed=2**32, prefix=(0,), n=300, m=2)
    @example(seed=2**64 - 1, prefix=(2**64 - 1, 7), n=2, m=3)
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_numpy_generators_bit_for_bit(self, seed, prefix, n, m):
        table = _streams.unit_table(seed, prefix, n, m)
        reference = np.array(
            [_streams.substream(seed, (*prefix, i)).random(m) for i in range(n)]
        )
        assert table.tobytes() == reference.tobytes()

    def test_a_row_zero_that_numpy_does_not_give_raises(self, monkeypatch):
        derive = _streams._pcg64_random

        def off_by_one_ulp(pool, m):
            table = derive(pool, m)
            table[0, 0] = np.nextafter(table[0, 0], 1.0)
            return table

        monkeypatch.setattr(_streams, "_pcg64_random", off_by_one_ulp)
        with pytest.raises(NumericalError, match="SeedSequence"):
            _streams.unit_table(1, (5, 0), 5, 1)

    # Trial indices of one uint32 word and of two (2**32 and beyond), whose
    # prefixes run the pool mixing over more entropy words.
    PREFIXES = [(7, 0), (7, 1), (7, 2**32 - 1), (7, 2**32), (7, 2**40 + 3), (7, 5)]

    @pytest.mark.parametrize("seed, n, m", [(3, 7, 2), (2**63 + 5, 1, 3), (0, 40, 1), (9, 4, 0)])
    def test_one_pass_blocks_equal_each_prefix_alone(self, seed, n, m):
        table = _streams.unit_tables(seed, self.PREFIXES, n, m)
        assert table.shape == (len(self.PREFIXES), n, m)
        for prefix, block in zip(self.PREFIXES, table):
            assert block.tobytes() == _streams.unit_table(seed, prefix, n, m).tobytes()

    @pytest.mark.parametrize("bad", range(len(PREFIXES)))
    def test_a_row_zero_that_numpy_does_not_give_raises_in_any_prefix(self, monkeypatch, bad):
        substream = _streams.substream

        def other_stream_for_one_prefix(seed, key):
            if key == (*self.PREFIXES[bad], 0):
                return substream(seed + 1, key)
            return substream(seed, key)

        monkeypatch.setattr(_streams, "substream", other_stream_for_one_prefix)
        with pytest.raises(NumericalError, match="SeedSequence"):
            _streams.unit_tables(3, self.PREFIXES, 5, 2)


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


def _sampled_tables(model, n, seed, trial):
    """Trial ``trial``'s node tables from its simplified ``sample_nodes`` draws."""
    return _node_tables(
        [simplify(g) for g in sample_nodes(model, n, seed=seed, spawn_prefix=(n, trial))]
    )


def _tables_outcomes(model, n, seed, trials):
    drawn = _outcome(lambda: [table for pair in _draw_tables(model, n, seed, range(trials))
                              for table in pair])
    sampled = _outcome(lambda: [table for trial in range(trials)
                                for table in _sampled_tables(model, n, seed, trial)])
    return drawn, sampled


class TestTrialTables:
    """The trials of a size draw straight into coefficient tables; each
    trial's must equal the tables of its simplified ``sample_nodes`` draws
    bit for bit, and the first failing draw must raise as sampling does."""

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
        drawn, sampled = _tables_outcomes(RandomTFModel(tuple(num), tuple(den)), n, seed, 3)
        assert drawn == sampled

    def test_nodes_that_rational_tf_rejects_raise_as_sampling_does(self):
        model = RandomTFModel((Constant(1.0),) * 65 + (Uniform(1.0, 2.0),), (Constant(1.0),))
        drawn, sampled = _tables_outcomes(model, 2, 0, 1)
        assert drawn == sampled == (ExcessiveDegree, str(sampled[1]))

    @pytest.mark.parametrize("budget", [1, _KRYLOV_BYTES])
    def test_a_draw_raises_only_when_its_trial_is_taken(self, monkeypatch, budget):
        # g = 1e305/(u s), u ~ U(0, 1): the normalized gain 1e305/u overflows,
        # and RationalTF rejects the node, where u < 5.6e-4; of the 300 draws
        # of each trial here, trial 3 holds the first such node.
        monkeypatch.setattr(concentration, "_KRYLOV_BYTES", budget)
        model = RandomTFModel((Constant(1e305),), (Constant(0.0), Uniform(0.0, 1.0)))
        n, seed = 300, 21
        tables = _draw_tables(model, n, seed, range(5))
        for trial in range(3):
            got = next(tables)
            want = _sampled_tables(model, n, seed, trial)
            assert [t.tobytes() for t in got] == [t.tobytes() for t in want]
        with pytest.raises(ValidationError, match="finite"):
            next(tables)
        with pytest.raises(ValidationError, match="finite"):
            _sampled_tables(model, n, seed, 3)

    def test_trial_builds_no_transfer_function_and_solves_each_point_once(self, monkeypatch):
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
        _size_measurements(gain_over_integrator(), n, complete_graph(n), points,
                           [1.0 + 0j] * len(points), 2.0 / points, 3, range(1))
        assert calls == {"RationalTF": 0, "inv": len(points), "solve": 0, "svd": len(points)}

    def test_points_with_vanished_gains_share_a_chunk_with_stacked_points(self):
        # Every gain (s - 1)/(s + a) vanishes at s = 1, where T is zero.
        model = RandomTFModel(
            (Constant(-1.0), Constant(1.0)), (Uniform(0.5, 2.0), Constant(1.0)), seed=4
        )
        n, seed, trial = 7, 2, 1
        lap = complete_graph(n)
        points = np.array([0.5 + 1.0j, 1.0 + 0.0j, 2.0 + 0.5j])
        ghats = np.array([0.3 + 0.1j, 0.2, 0.9 - 0.2j])
        sup_gbar, sup_inc, max_inv = _one_trial(
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
            _size_measurements(model, n, lap, points, f_vals, np.ones(3), seed, range(1))
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
            _size_measurements(gain_over_integrator(), 2, complete_graph(2), points,
                               f_vals, np.ones(3), 3, range(1))
        assert type(caught.value) is (PoleOfCoupling if pole_first else SingularSystem)
        assert caught.value.s == (0.5 + 2.0j if pole_first else 0.0)

    def test_trial_memory_is_bounded_by_the_chunk_budget(self):
        # 40 points at n = 150 are 14.4 MB of transfer matrices; a trial
        # must solve and norm one point at a time, with a few n x n arrays
        # and its chunk's node values alive at once.
        n = 150
        points = FrequencyGrid.linear(0.5, 0.1, 5.0, 40).points
        matrix = 16 * n * n
        args = (gain_over_integrator(), n, complete_graph(n), points,
                [1.0 + 0j] * len(points), 2.0 / points, 3, range(1))
        _size_measurements(*args)  # one-off allocations stay out of the peak
        tracemalloc.start()
        try:
            _size_measurements(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * matrix


def _model_of(num, den, seed=0):
    """The model of these slots, a ``Constant(1.0)`` slot appended to a side
    whose slots are all zero."""
    sides = [
        [*specs, Constant(1.0)]
        if all(isinstance(spec, Constant) and spec.value == 0.0 for spec in specs) else specs
        for specs in (num, den)
    ]
    return RandomTFModel(*map(tuple, sides), seed=seed)


def _per_draw(rng, specs, size=None):
    """Each slot drawn on its own, in slot order: a value per slot, or
    ``size`` values per slot."""
    drawn = []
    for spec in specs:
        if isinstance(spec, Constant):
            drawn.append(spec.value if size is None else np.full(size, spec.value))
        else:
            value = rng.uniform(spec.lo, spec.hi, size=size)
            drawn.append(float(value) if size is None else value)
    return drawn


def _node_outcome(build):
    """Each node's coefficient bytes, or the error that building them raised."""
    try:
        return [(g.num.coeffs.tobytes(), g.den.coeffs.tobytes()) for g in build()]
    except ValidationError as exc:
        return type(exc), str(exc)


class TestPerDrawOracles:
    """Every draw maps its doubles through one table rule; it must give the
    numbers of the per-draw path it replaced: one generator per node, or
    per Monte-Carlo batch, and one ``Generator.uniform`` call per slot."""

    @given(
        num=st.lists(_SLOT, min_size=1, max_size=4),
        den=st.lists(_SLOT, min_size=1, max_size=4),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**64 - 1),
        prefix=st.lists(_KEY_ELEMENT, max_size=2).map(tuple),
    )
    @example(num=[Constant(0.0), Constant(1.0)], den=[Constant(5e-324)], n=1, seed=0, prefix=())
    @settings(max_examples=80, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    def test_sample_nodes_equals_one_generator_per_node(self, num, den, n, seed, prefix):
        model = _model_of(num, den)

        def per_node():
            for i in range(n):
                rng = _streams.substream(seed, (*prefix, i))
                num_coeffs = _per_draw(rng, model.num_specs)
                yield RationalTF(num_coeffs, _per_draw(rng, model.den_specs))

        assert _node_outcome(lambda: sample_nodes(model, n, seed=seed, spawn_prefix=prefix)) \
            == _node_outcome(lambda: list(per_node()))

    @given(
        num=st.lists(_SLOT, min_size=1, max_size=3),
        den=st.lists(_SLOT, min_size=1, max_size=3),
        draws=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    # Quadratics that vanish at 2j: in the numerator, in the denominator, in both.
    @example(num=[Constant(2.0), Constant(0.0), Constant(0.5)], den=[Uniform(1.0, 2.0)],
             draws=3, seed=0)
    @example(num=[Uniform(1.0, 2.0)], den=[Constant(2.0), Constant(0.0), Constant(0.5)],
             draws=3, seed=0)
    @example(num=[Constant(2.0), Constant(0.0), Constant(0.5)],
             den=[Constant(2.0), Constant(0.0), Constant(0.5)], draws=3, seed=0)
    # A subnormal gain 2.2e-311/s, whose inverse overflows at every point.
    @example(num=[Constant(2.225073858507e-311)], den=[Constant(0.0)], draws=1, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_monte_carlo_batches_equal_per_slot_uniform_draws(self, num, den, draws, seed):
        model = _model_of(num, den)
        points = np.array([0.5 + 1.0j, 0.1, 2.0j, -0.3 + 0.2j])
        mc = expected_dynamics(model, MonteCarlo(draws, seed=seed))
        for batch in range(2):
            rng = _streams.substream(seed, (batch,))
            num_coeffs = np.stack(_per_draw(rng, model.num_specs, draws))
            den_coeffs = np.stack(_per_draw(rng, model.den_specs, draws))
            with np.errstate(all="ignore"):
                want = [_harmonic_mean_of_draws(s, num_coeffs, den_coeffs) for s in points]
                error = next((w for w in want if isinstance(w, type)), None)
                if error is not None:
                    with pytest.raises(error):
                        mc.evaluate_many(points)
                    continue
                got = mc.evaluate_many(points)
            assert got.tobytes() == np.array(want, dtype=complex).tobytes()


def _harmonic_mean_of_draws(s, num_coeffs, den_coeffs):
    """``1/mean(den/num)`` over the draws (one per column of the ascending
    coefficient rows) at ``s``, under the envelope rule at ``tol_zero``:
    ``0j`` where a numerator vanishes, a vanishing denominator adds 0 to the
    mean, ``inf+0j`` for a zero mean.  The error the point raises instead:
    ``IndeterminateAt`` where some draw is 0/0, else ``InverseGainOverflow``
    where some draw with a finite nonzero gain has a non-finite 1/g."""
    polyval = np.polynomial.polynomial.polyval
    num, den = polyval(s, num_coeffs), polyval(s, den_coeffs)
    num_zero, den_zero = (
        np.abs(value) <= DEFAULT_TOL_ZERO * np.maximum(polyval(abs(s), np.abs(coeffs)), 1e-300)
        for value, coeffs in ((num, num_coeffs), (den, den_coeffs))
    )
    if (num_zero & den_zero).any():
        return IndeterminateAt
    if (~(num_zero | den_zero) & ~np.isfinite(den / num)).any():
        return InverseGainOverflow
    if num_zero.any():
        return 0j
    mean = np.mean(np.where(den_zero, 0.0, den / num))
    return 1.0 / mean if mean else complex(math.inf, 0.0)


def _draw_fixed(monkeypatch, draw):
    """Make every size's trial ``t`` take the tables ``draw(t)``, drawn when
    the trial is taken."""
    monkeypatch.setattr(concentration, "_draw_tables",
                        lambda model, n, seed, trials: map(draw, trials))


def _one_trial(model, n, graph, points, f_vals, ghats, seed, trial):
    """Trial ``trial``'s (sup |gbar - ghat|, sup |T - ghat/n 11^T|, max |1/g_i|),
    measured with the trials before it."""
    columns = _size_measurements(model, n, graph, points, f_vals, ghats, seed, range(trial + 1))
    return tuple(column[trial] for column in columns)


def _trial_by_trial(model, n, graph, points, f_vals, ghat_vals, seed, trials, draw=None):
    """The oracle of ``_size_measurements``: the loop it replaced, one trial
    after another, each drawing its own tables (``draw(t)``, by default its
    simplified ``sample_nodes`` draws) and taking its own chunks of grid
    points, warning and failing as it goes."""
    span = max(1, concentration._KRYLOV_BYTES // (16 * n * (2 * _LANCZOS_MAX_STEPS + 1)))
    columns = [], [], []
    for trial in range(trials):
        num, den = draw(trial) if draw else _sampled_tables(model, n, seed, trial)
        sup_gbar = sup_inc = max_inv = 0.0
        for start in range(0, len(points), span):
            chunk = slice(start, start + span)
            pts = _point_values(num, den, points[chunk], f_vals[chunk], DEFAULT_TOL_ZERO)
            ghats = ghat_vals[chunk]
            if isinstance(graph, CompleteFamily):
                norms = _complete_incoherence(pts, ghats, graph)[0]
            else:
                norms = np.empty(len(pts))
                for k, (pt, shift) in enumerate(zip(pts, ghats / n)):
                    t, c = _transfer(pt, graph.matrix)
                    _warn_ill_conditioned(pt, c)
                    t -= shift
                    norms[k] = _spectral_norm(t)
            for pt, ghat in zip(pts, ghats):
                max_inv = max(max_inv, pt.inv_max)
                gbar_dev = math.inf if is_at_infinity(pt.gbar) else abs(pt.gbar - ghat)
                sup_gbar = max(sup_gbar, gbar_dev)
            sup_inc = max(sup_inc, float(norms.max()))
        for column, value in zip(columns, (sup_gbar, sup_inc, max_inv)):
            column.append(value)
    return columns


def _events(run):
    """The bytes of what ``run()`` returns or the error it raises, its
    ``IllConditionedWarning``s in order with the file each points at, and
    the messages of its other warnings (numpy's, given once per operation,
    so once per batch of points)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = np.array(run()).tobytes()
        except (ValidationError, NumericalError, np.linalg.LinAlgError) as exc:
            outcome = type(exc), str(exc)
    ill = [(str(w.message), w.filename) for w in caught if w.category is IllConditionedWarning]
    other = sorted({str(w.message) for w in caught if w.category is not IllConditionedWarning})
    return outcome, ill, other


def _matches_trial_by_trial(model, n, graph, points, f_vals, ghats, seed, trials, draw=None):
    """``_size_measurements``'s events, asserted equal to the oracle's."""
    got = _events(lambda: _size_measurements(model, n, graph, points, f_vals, ghats, seed, range(trials)))
    want = _events(lambda: _trial_by_trial(model, n, graph, points, f_vals, ghats, seed, trials,
                                           draw))
    assert got == want
    return got


def _records(model, n, points, f_vals, seed=5, trial=0):
    *_, (num, den) = _draw_tables(model, n, seed, range(trial + 1))
    return _point_values(num, den, points, f_vals, DEFAULT_TOL_ZERO)


def _dense_norms(pts, ghats, lap):
    """Norms and condition estimates at the records as a dense trial takes them."""
    norms, cond = np.empty(len(pts)), np.empty(len(pts))
    for k, (pt, shift) in enumerate(zip(pts, ghats / lap.n)):
        t, cond[k] = _transfer(pt, lap.matrix)
        norms[k] = _spectral_norm(t - shift)
    return norms, cond


def _grid_order_events(monkeypatch, n):
    """The point a trial raises ``PoleOfCoupling`` at and the
    ``IllConditionedWarning``s before it, the same on the complete family
    and on its Laplacian: node 0's gain is near 1e14 (ill-conditioned
    wherever f is not tiny) and 0/0 at s = 1; f has a pole at the second
    point."""
    gain = 1.5e14
    tables = (np.array([[-gain, gain]] + [[gain, 0.0]] * (n - 1)),
              np.array([[-1.0, 1.0]] + [[1.0, 0.0]] * (n - 1)))
    _draw_fixed(monkeypatch, lambda trial: tables)
    points = np.array([0.5 + 1.0j, 0.5 + 2.0j, 1.0 + 0.0j])
    f_vals = [1.0 + 0j, AT_INFINITY, 1.0 + 0j]

    def events(graph):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(PoleOfCoupling) as raised:
                _size_measurements(gain_over_integrator(), n, graph, points, f_vals,
                                   np.ones(3), 3, range(1))
        return raised.value.s, [(str(w.message).split(" has ")[0], w.filename)
                                for w in caught if w.category is IllConditionedWarning]

    complete = events(CompleteFamily())
    assert complete == events(complete_graph(n))
    return complete


class TestCompleteStructure:
    """Complete-family trials through the Sherman-Morrison form of T."""

    BIPROPER = RandomTFModel(
        (Uniform(0.5, 2.0), Constant(1.0)), (Uniform(0.5, 2.0), Constant(1.0)), seed=4
    )

    @pytest.mark.parametrize("n", [2, 3, 5, 20, 100, 300])
    def test_norms_and_estimates_match_the_dense_path(self, n):
        # The biproper population behind a 3/(s+1) coupling, weight 0.7; at
        # one point two gains vanish (one for n = 2), at another every gain.
        family = CompleteFamily(0.7)
        coupling = RationalTF([3.0], [1.0, 1.0])
        points = FrequencyGrid.linear(0.3, 0.2, 3.0, 6).points
        f_vals = [tf_eval(coupling, s) for s in points]
        ghats = 0.8 / (1.0 + 0.1 * points)
        pts = _records(self.BIPROPER, n, points, f_vals)
        grounded = sorted({0, n - 2})
        inv = pts[1].inv.copy()
        inv[grounded] = 0.0
        pts[1] = dataclasses.replace(pts[1], inv=inv, vanished=tuple(grounded), gbar=0j)
        pts[3] = dataclasses.replace(pts[3], inv=np.zeros(n, dtype=complex),
                                     vanished=tuple(range(n)), gbar=0j)
        norms, cond = _complete_incoherence(pts, ghats, family)
        want, want_cond = _dense_norms(pts, ghats, family.build(n))
        np.testing.assert_allclose(norms, want, rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(cond, want_cond, rtol=1e-9, atol=0.0)

        structured = _size_measurements(self.BIPROPER, n, family, points, f_vals, ghats, 5, range(2))
        dense = _size_measurements(self.BIPROPER, n, family.build(n), points, f_vals, ghats, 5, range(2))
        assert structured[0::2] == dense[0::2]
        assert structured[1] == pytest.approx(dense[1], rel=1e-11, abs=0.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double carries no extra precision here")
    def test_norm_is_accurate_on_the_bench_population(self):
        # Reference: M = T - ghat/n 11^T formed in extended precision from the
        # same doubles (plain Sherman-Morrison), rounded once, then SVD'd.
        model = gain_over_integrator(seed=1)
        n = 100
        points = FrequencyGrid.linear(0.5, 0.1, 2.0, 8).points
        ghats = expected_dynamics(model).evaluate_many(points)
        worst = 0.0
        for trial in range(3):
            pts = _records(model, n, points, [1.0 + 0j] * len(points), seed=1, trial=trial)
            norms, _ = _complete_incoherence(pts, ghats, CompleteFamily())
            for pt, ghat, norm in zip(pts, ghats, norms):
                f = np.clongdouble(pt.f)
                d = 1 / (pt.inv.astype(np.clongdouble) + f * n)
                m = np.diag(d) + f / (1 - f * d.sum()) * np.outer(d, d) - np.clongdouble(ghat) / n
                want = np.linalg.svd(m.astype(complex), compute_uv=False)[0]
                worst = max(worst, abs(norm - want) / want)
        assert worst <= 1e-13

    def test_ill_conditioned_points_warn_as_on_the_dense_path(self):
        model = RandomTFModel((Uniform(1e14, 2e14),), (Constant(1.0),), seed=3)
        n, seed = 6, 4
        points = np.array([0.5 + 0.5j, 0.5 + 1.0j, 0.5 + 2.0j])
        f_vals = [1e-16 + 0j, 1.0 + 0j, 2.0 + 0j]

        def warned(graph):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _size_measurements(model, n, graph, points, f_vals, np.ones(3), seed, range(1))
            return [(str(w.message).split(" has ")[0], w.filename)
                    for w in caught if w.category is IllConditionedWarning]

        assert warned(CompleteFamily()) == warned(complete_graph(n)) == [
            (f"transfer-matrix solve at s = {s}", __file__) for s in points[1:]
        ]

    @pytest.mark.parametrize("family", [CompleteFamily(), RingFamily(0.3)])
    def test_experiment_warnings_point_at_the_caller(self, family):
        model = RandomTFModel((Uniform(1e14, 2e14),), (Constant(1.0),), seed=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            concentration_experiment(model, family, [6], FrequencyGrid.linear(0.5, 0.5, 2.0, 3),
                                     1, 0.1)
        files = [w.filename for w in caught if w.category is IllConditionedWarning]
        assert files == [__file__] * 3

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("pole_first", [True, False])
    def test_failures_surface_at_the_same_point_as_on_the_dense_path(self, n, pole_first):
        # k/s nodes at s = 0 give the singular system f L; f has a pole elsewhere.
        points = np.array([0.5 + 1.0j, 0.0 + 0.0j, 0.5 + 2.0j])
        f_vals = [1.0 + 0j, 0.3 + 0.4j, AT_INFINITY]
        if pole_first:
            points, f_vals = points[::-1], f_vals[::-1]

        def failure(graph):
            with pytest.raises((PoleOfCoupling, SingularSystem)) as caught:
                _size_measurements(gain_over_integrator(), n, graph, points, f_vals,
                                   np.ones(3), 3, range(1))
            return type(caught.value), caught.value.s

        assert failure(CompleteFamily()) == failure(complete_graph(n)) == (
            (PoleOfCoupling, 0.5 + 2.0j) if pole_first else (SingularSystem, 0.0)
        )

    def test_indeterminate_nodes_surface_at_the_same_point_as_on_the_dense_path(self, monkeypatch):
        # (s - 1)/(s - 1), left unsimplified, is indeterminate at s = 1.
        tables = np.array([[-1.0, 1.0], [2.0, 0.0], [3.0, 0.0]]), np.array([[-1.0, 1.0]] * 3)
        _draw_fixed(monkeypatch, lambda trial: tables)
        points = np.array([0.5 + 0.0j, 1.0 + 0.0j, 2.0 + 0.0j])
        for graph in (CompleteFamily(), complete_graph(3)):
            with pytest.raises(IndeterminateAt) as caught:
                _size_measurements(gain_over_integrator(), 3, graph, points, [1.0 + 0j] * 3,
                                   np.ones(3), 3, range(1))
            assert caught.value.s == 1.0

    def test_points_fail_and_warn_in_the_dense_order_where_chunks_hold_one_point(
            self, monkeypatch):
        # The ill-conditioned first point warns, the pole of f at the second
        # raises, and the node indeterminate at the third is never reached.
        # A complete-family chunk holds all three points.
        assert _grid_order_events(monkeypatch, 130) == (
            0.5 + 2.0j, [("transfer-matrix solve at s = (0.5+1j)", __file__)]
        )

    def test_points_fail_and_warn_in_grid_order_where_one_chunk_holds_the_grid(
            self, monkeypatch):
        assert _grid_order_events(monkeypatch, 20) == (
            0.5 + 2.0j, [("transfer-matrix solve at s = (0.5+1j)", __file__)]
        )

    def test_a_failing_chunk_is_normed_once(self, monkeypatch):
        # Counted by a profile hook: a wrapper would add a frame and move the
        # warnings' attribution, which _grid_order_events compares.
        calls = []
        kernel = concentration._complete_incoherence.__code__

        def count(frame, event, arg):
            if event == "call" and frame.f_code is kernel:
                calls.append(len(frame.f_locals["pts"]))

        sys.setprofile(count)
        try:
            _grid_order_events(monkeypatch, 20)
        finally:
            sys.setprofile(None)
        assert calls == [3]

    def test_one_point_chunks_give_the_same_trial(self, monkeypatch):
        model = gain_over_integrator(seed=1)
        points = FrequencyGrid.linear(0.5, 0.1, 2.0, 8).points
        ghats = expected_dynamics(model).evaluate_many(points)
        f_vals = [1.0 + 0j] * len(points)
        for n, graph in ((20, CompleteFamily()), (20, RingFamily().build(20)),
                         (130, RingFamily().build(130))):
            whole = _size_measurements(model, n, graph, points, f_vals, ghats, 1, range(3))
            with monkeypatch.context() as patch:
                patch.setattr(concentration, "_KRYLOV_BYTES", 1)
                single = _size_measurements(model, n, graph, points, f_vals, ghats, 1, range(3))
            assert np.array(single).tobytes() == np.array(whole).tobytes()

    def test_chunks_keep_memory_bounded_on_the_default_grid(self):
        # 50 points (the CLI default) at n = 10^4, three trials: one chunk of
        # every point would hold 150 pairs of Golub-Kahan bases, over 480
        # MiB; a chunk, which runs on across trials, holds _KRYLOV_BYTES of
        # bases, or one point's where that is more.
        n = 10_000
        bases = max(_KRYLOV_BYTES, 16 * n * (2 * _LANCZOS_MAX_STEPS + 1))
        points = FrequencyGrid.linear(0.5, 0.1, 2.0, 50).points
        args = (gain_over_integrator(), n, CompleteFamily(), points, [1.0 + 0j] * len(points),
                expected_dynamics(gain_over_integrator()).evaluate_many(points), 1, range(3))
        tracemalloc.start()
        try:
            _size_measurements(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * bases

    def test_a_zero_diagonal_point_goes_through_the_dense_solve(self, monkeypatch):
        builds = []
        build = CompleteFamily.build

        def counting_build(self, n):
            builds.append(n)
            return build(self, n)

        monkeypatch.setattr(CompleteFamily, "build", counting_build)
        family, n = CompleteFamily(0.5), 4
        points = np.array([0.5 + 1.0j, 0.5 + 1.5j, 0.5 + 2.0j])
        ghats = np.array([0.4 - 0.2j, 0.3, 0.1j])
        pts = _records(gain_over_integrator(), n, points, [1.0 + 0j] * 3)
        _complete_incoherence(pts, ghats, family)
        assert builds == []
        inv = pts[1].inv.copy()
        inv[2] = -family.weight * n  # 1/g_2 + f w n is exactly zero
        pts[1] = dataclasses.replace(pts[1], inv=inv)
        norms, cond = _complete_incoherence(pts, ghats, family)
        assert builds == [n]
        want, want_cond = _dense_norms(pts, ghats, complete_graph(n, family.weight))
        np.testing.assert_allclose(norms, want, rtol=1e-11, atol=0.0)
        assert cond[1] == want_cond[1]

    def test_members_left_without_a_certificate_take_the_svd(self, monkeypatch):
        # Under weak coupling the top singular values cluster: no member is
        # certified within _LANCZOS_MAX_STEPS, and each takes the SVD.
        fallbacks = []
        svd_norm = concentration._svd_norm

        def counting(*args):
            fallbacks.append(args)
            return svd_norm(*args)

        monkeypatch.setattr(concentration, "_svd_norm", counting)
        model, family, n = gain_over_integrator(seed=1), CompleteFamily(1e-3), 60
        points = FrequencyGrid.linear(0.5, 0.1, 2.0, 4).points
        ghats = expected_dynamics(model).evaluate_many(points)
        pts = _records(model, n, points, [1.0 + 0j] * len(points), seed=1)
        norms, _ = _complete_incoherence(pts, ghats, family)
        assert len(fallbacks) == len(points)
        want, _ = _dense_norms(pts, ghats, family.build(n))
        np.testing.assert_allclose(norms, want, rtol=1e-11, atol=0.0)

    def test_runs_at_ten_thousand_nodes_without_an_n_by_n_matrix(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("dense n x n path taken")

        for name in ("complete_graph", "algebraic_connectivity", "_transfer", "_svd_norm"):
            monkeypatch.setattr(concentration, name, refused)
        n = 10_000
        tracemalloc.start()
        try:
            table = concentration_experiment(
                gain_over_integrator(), CompleteFamily(2.0), [n],
                FrequencyGrid.linear(0.5, 0.1, 2.0, 3), 2, 0.1, seed=1,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (row,) = table.rows
        assert row.lambda2 == 2.0 * n
        assert 0.0 < row.sup_incoherence_mean <= row.sup_incoherence_max < 0.1
        assert peak < 16 * n * n / 100


class TestSizeMeasurements:
    """All trials of a size are measured in one pass, their records taken
    in chunks that run on across trials; the trial-by-trial loop is the
    oracle, bit for bit and event for event."""

    POINTS = np.array([0.5 + 1.0j, 0.5 + 2.0j, 1.0 + 0.5j])
    BUDGETS = [1, 1 << 12, _KRYLOV_BYTES]

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_complete_family_with_vanished_gains_and_a_zero_pivot(self, monkeypatch, budget):
        # Trial 1 has a node with 1/g = -f w n (its diagonal is exactly zero
        # at every point, so the kernel solves through _transfer); in trial
        # 2 one gain, in trial 3 every gain, vanishes at s = 1.
        monkeypatch.setattr(concentration, "_KRYLOV_BYTES", budget)
        builds = []
        build = CompleteFamily.build
        monkeypatch.setattr(CompleteFamily, "build",
                            lambda self, n: builds.append(n) or build(self, n))
        n, family = 4, CompleteFamily(0.5)
        k = np.random.default_rng(3).uniform(1.0, 5.0, size=(4, n))
        special = {1: ([-0.5, 0.0], [1.0, 0.0]), 2: ([-1.0, 1.0], [2.0, 1.0])}

        def draw(trial):
            if trial == 3:
                return np.array([[-1.0, 1.0]] * n), np.array([[a, 1.0] for a in k[3]])
            num, den = np.array([[kk, 0.0] for kk in k[trial]]), np.array([[0.0, 1.0]] * n)
            if trial in special:
                num[0], den[0] = special[trial]
            return num, den

        _draw_fixed(monkeypatch, draw)
        points = np.array([0.5 + 1.0j, 1.0 + 0.0j, 0.5 + 2.0j])
        ghats = np.array([0.4 - 0.2j, 0.3, 0.1j])
        outcome, ill, _ = _matches_trial_by_trial(
            gain_over_integrator(), n, family, points, [1.0 + 0j] * 3, ghats, 3, 4, draw
        )
        sup_gbar, sup_inc, max_inv = np.frombuffer(outcome).reshape(3, 4)
        assert list(max_inv[2:]) == [math.inf, math.inf]
        assert np.all(sup_inc > 0) and ill == []
        assert builds and set(builds) == {n}

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("n", [20, 130])
    def test_ring_family(self, monkeypatch, budget, n):
        monkeypatch.setattr(concentration, "_KRYLOV_BYTES", budget)
        model = gain_over_integrator(seed=1)
        points = FrequencyGrid.linear(0.5, 0.1, 2.0, 8).points
        ghats = expected_dynamics(model).evaluate_many(points)
        _matches_trial_by_trial(model, n, RingFamily().build(n), points, [1.0 + 0j] * 8, ghats,
                                1, 3)

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("n", [20, 100])
    def test_complete_family_on_the_bench_population(self, monkeypatch, budget, n):
        monkeypatch.setattr(concentration, "_KRYLOV_BYTES", budget)
        model = gain_over_integrator(seed=1)
        points = FrequencyGrid.linear(0.5, 0.1, 2.0, 8).points
        ghats = expected_dynamics(model).evaluate_many(points)
        _matches_trial_by_trial(model, n, CompleteFamily(), points, [1.0 + 0j] * 8, ghats, 1, 20)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_trials_whose_tables_differ_in_width(self, monkeypatch, budget):
        # g = 1 + u s with u ~ U(0, 2e-12): the s term is trimmed where
        # u <= 1e-12, so a trial's table has one column where both of its
        # nodes lose it and two otherwise.
        monkeypatch.setattr(concentration, "_KRYLOV_BYTES", budget)
        model = RandomTFModel((Constant(1.0), Uniform(0.0, 2e-12)), (Constant(1.0),))
        n, seed, trials = 2, 0, 6
        widths = [num.shape[1] for num, _ in _draw_tables(model, n, seed, range(trials))]
        assert widths == [2, 2, 2, 1, 1, 2]
        _matches_trial_by_trial(model, n, CompleteFamily(), self.POINTS, [1.0 + 0j] * 3,
                                np.ones(3), seed, trials)

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("complete", [True, False])
    @pytest.mark.parametrize("scenario, warned, raised", [
        # Trial 2 fails at its second point; the draw of trial 3 is rejected.
        ("warn0 warn2 singular1 rejected", [0, 2], (SingularSystem, 1)),
        # The rejected draw of trial 2 comes after trial 1's warnings and
        # before trial 3's failure.
        ("warn0 warn2 rejected singular0", [0, 2], (ExcessiveDegree, None)),
        # The first failure in (trial, point) order raises, not the first in
        # grid order.
        ("warn2 singular1 singular0 quiet", [2], (SingularSystem, 1)),
        ("quiet warn1 warn0 warn2", [1, 0, 2], None),
    ])
    def test_events_come_in_trial_then_grid_order(self, monkeypatch, budget, complete,
                                                  scenario, warned, raised):
        # Each trial's nodes are gain/(s - pole): a pole 1e-10 from a grid
        # point with gain 1e4 leaves 1/g near 1e-14 there (ill-conditioned,
        # one warning), a pole on a grid point makes A = f L (singular), and
        # a pole at -1 with unit gain is quiet.  With f = 0.3 + 0.4j the
        # dense LU of f L at n = 5 meets an exactly zero pivot, as on the
        # complete family; with f = 1 it does not, and the point only warns.
        monkeypatch.setattr(concentration, "_KRYLOV_BYTES", budget)
        kinds = {"quiet": (-1.0, 1.0), "rejected": None}
        for p, s in enumerate(self.POINTS):
            kinds[f"warn{p}"], kinds[f"singular{p}"] = (s - 1e-10, 1e4), (s, 1.0)
        plan = [kinds[word] for word in scenario.split()]
        n = 5

        def draw(trial):
            if plan[trial] is None:
                RationalTF([1.0] * 66, [1.0])  # degree 65: ExcessiveDegree
            pole, gain = plan[trial]
            return np.array([[gain, 0.0]] * n), np.array([[-pole, 1.0]] * n)

        _draw_fixed(monkeypatch, draw)
        graph = CompleteFamily() if complete else complete_graph(n)
        outcome, ill, _ = _matches_trial_by_trial(
            gain_over_integrator(), n, graph, self.POINTS, [0.3 + 0.4j] * 3, np.ones(3), 3,
            len(plan), draw
        )
        assert [(message.split(" has ")[0], filename) for message, filename in ill] == [
            (f"transfer-matrix solve at s = {self.POINTS[p]}", __file__) for p in warned
        ]
        if raised is None:
            assert isinstance(outcome, bytes)
        else:
            error, p = raised
            assert outcome[0] is error
            if p is not None:
                assert outcome[1] == str(error(self.POINTS[p]))

    @given(
        num=st.lists(_SLOT, min_size=1, max_size=3),
        den=st.lists(_SLOT, min_size=1, max_size=3),
        n=st.integers(3, 30),
        trials=st.integers(1, 5),
        points=st.integers(1, 6),
        seed=st.integers(0, 2**64 - 1),
        budget=st.one_of(st.just(1), st.integers(1, 1 << 21)),
        ring=st.booleans(),
        weight=st.floats(0.1, 3.0),
    )
    @settings(deadline=None)
    def test_random_populations_match_trial_by_trial(self, num, den, n, trials, points, seed,
                                                     budget, ring, weight):
        model = _model_of(num, den, seed)
        graph = RingFamily(0.3, weight).build(n) if ring else CompleteFamily(weight)
        grid = FrequencyGrid.linear(0.5, 0.1, 2.0, points).points
        coupling = RationalTF([3.0], [1.0, 1.0])
        f_vals = [tf_eval(coupling, s) for s in grid]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(concentration, "_KRYLOV_BYTES", budget)
            _matches_trial_by_trial(model, n, graph, grid, f_vals, 0.8 / (1.0 + 0.1 * grid),
                                    seed, trials)


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

    @pytest.mark.parametrize("draws", [2.5, True, np.True_, "3"])
    def test_monte_carlo_draws_must_be_an_integer(self, draws):
        with pytest.raises(ValidationError, match="draws must be an integer"):
            MonteCarlo(draws)

    def test_monte_carlo_follows_the_closed_form_where_draws_vanish(self):
        # Every k/s draw has a pole at 0, and every k s/(a s + 1) draw a zero.
        poles = RandomTFModel((Uniform(1.0, 2.0),), (Constant(0.0), Constant(1.0)), seed=0)
        zeros = RandomTFModel((Constant(0.0), Uniform(1.0, 2.0)),
                              (Constant(1.0), Uniform(0.5, 1.5)), seed=0)
        points = np.array([0j, 0.5 + 1.0j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_poles = expected_dynamics(poles, MonteCarlo(50, seed=1)).evaluate_many(points)
            at_zeros = expected_dynamics(zeros, MonteCarlo(50, seed=1)).evaluate_many(points)
        closed = expected_dynamics(poles).evaluate_many(points)
        inf = np.array([complex(math.inf, 0.0)])
        assert at_poles[:1].tobytes() == closed[:1].tobytes() == inf.tobytes()
        assert at_poles[1] == pytest.approx(closed[1], rel=0.05)
        assert at_zeros[:1].tobytes() == np.zeros(1, dtype=complex).tobytes()
        assert at_zeros[1] != 0

    def test_monte_carlo_raises_where_an_inverse_gain_overflows(self):
        # 1/g = s / 2.2e-311 overflows at s = 1 for every draw.
        model = RandomTFModel((Uniform(2.2e-311, 2.3e-311),), (Constant(0.0), Constant(1.0)),
                              seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InverseGainOverflow, match=r"overflows at s = \(1\+0j\)"):
                expected_dynamics(model, MonteCarlo(10, seed=1)).evaluate(1.0)

    def test_monte_carlo_takes_numpy_integers(self):
        mc = MonteCarlo(np.int64(1000), seed=np.uint64(3))
        assert type(mc.draws) is int and type(mc.seed) is int
        model = gain_over_integrator()
        want = expected_dynamics(model, MonteCarlo(1000, seed=3)).evaluate(1.0)
        assert expected_dynamics(model, mc).evaluate(1.0) == want

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

    def test_complete_weight_validation(self):
        for weight in (0.0, -1.0, math.nan):
            with pytest.raises(NonPositiveWeight):
                CompleteFamily(weight)

    @pytest.mark.parametrize("weight", [math.inf, 1e308])
    def test_complete_weight_whose_laplacian_overflows_is_refused(self, weight):
        # As complete_graph refuses the same Laplacian, before any trial.
        for run in (lambda: self.run_small(graph_family=CompleteFamily(weight), sizes=[5]),
                    lambda: CompleteFamily(weight).build(5)):
            with pytest.raises(ValidationError, match="Laplacian entries must be finite"):
                run()

    @pytest.mark.parametrize("trials", [2.0, True])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValidationError, match="trials must be an integer"):
            self.run_small(trials=trials)

    @pytest.mark.parametrize("sizes", [[4.7, 8.9], [2.5, 4], [True, 4], [4, np.float64(8.0)]])
    def test_sizes_must_be_integers(self, sizes):
        with pytest.raises(ValidationError, match="network size must be an integer"):
            self.run_small(sizes=sizes)

    def test_numpy_integers_serve_as_sizes(self):
        table = self.run_small(sizes=[np.int64(3), np.int32(8)])
        assert table == self.run_small(sizes=[3, 8])
        assert all(type(row.n) is int for row in table.rows)

    def test_numpy_integers_serve_as_trials_and_seed(self):
        table = self.run_small(trials=np.int64(2), seed=np.uint64(1))
        assert table == self.run_small(trials=2, seed=1)
        assert all(type(row.trials) is int for row in table.rows)

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
        sup_gbar, sup_inc, max_inv = _one_trial(
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
        # A model build runs no symbolic mean either; the counters are live:
        # the uniform-coherence check on biproper nodes builds one.
        net = NetworkModel(complete_graph(2), [RationalTF([1.0, 1.0], [2.0, 1.0])] * 2, UNIT_COUPLING)
        assert calls == {"model": 1, "harmonic_mean": 0}
        rhp_uniform_check(net)
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


class TestForkedTrials:
    """Above ``_FORK_WORK`` the trials of each size are split into blocks
    that forked workers measure; the table, the warnings and the first
    error are those of one process."""

    GRID = FrequencyGrid.linear(0.5, 0.1, 2.0, 5)

    @pytest.fixture
    def forks(self, counted_forks, monkeypatch):
        """Every experiment forks where it may; the pids forked are listed."""
        monkeypatch.setattr(_parallel, "_FORK_WORK", 0)
        return counted_forks

    @pytest.fixture
    def counted_forks(self, monkeypatch):
        """Experiments above the cutoff fork; the pids forked are listed.
        A chunk holds one record, so that a block may start at any trial."""
        monkeypatch.setattr(concentration, "_KRYLOV_BYTES", 1)
        monkeypatch.setattr(_parallel, "runs_one_thread", lambda: True)
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
    def set_threads(monkeypatch, threads):
        if threads is None:
            monkeypatch.delenv("COHERELAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("COHERELAB_THREADS", threads)

    @staticmethod
    def table_bytes(table):
        rows = [dataclasses.astuple(row) for row in table.rows]
        return np.array(rows + [(table.observed_max_inverse_gain,) * 7]).tobytes()

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def experiment(self, family, trials=5, sizes=(6, 12, 25)):
        return concentration_experiment(gain_over_integrator(seed=2), family, list(sizes),
                                        self.GRID, trials, 0.1, 3)

    @pytest.mark.parametrize("family", [CompleteFamily(0.7), RingFamily(0.3)])
    @pytest.mark.parametrize("threads", ["1", "2", "3", None])
    def test_tables_are_those_of_one_process(self, forks, monkeypatch, family, threads):
        monkeypatch.setenv("COHERELAB_THREADS", "1")
        want = self.table_bytes(self.experiment(family))
        assert forks == []
        self.set_threads(monkeypatch, threads)
        assert self.table_bytes(self.experiment(family)) == want
        workers = min(_parallel.thread_count(), 5)
        assert len(forks) == workers - 1
        self.assert_no_child_left()

    @pytest.mark.parametrize("threads", ["2", "3", None])
    def test_small_work_forks_nothing(self, monkeypatch, threads):
        self.set_threads(monkeypatch, threads)
        monkeypatch.setattr(_parallel, "runs_one_thread", lambda: True)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked below the cutoff"))
        # 5 trials x 5 points x 43 nodes is below the cutoff.
        assert 5 * 5 * 43 <= _parallel._FORK_WORK
        self.experiment(CompleteFamily())

    def test_a_dense_laplacian_s_records_count_more(self, counted_forks, monkeypatch):
        # 5 trials x 5 points at n = 100 count 2,500 on the complete family
        # and 15,625 on a ring, whose records are dense solves.
        monkeypatch.setenv("COHERELAB_THREADS", "2")
        self.experiment(CompleteFamily(), sizes=(100,))
        assert counted_forks == []
        self.experiment(RingFamily(0.3), sizes=(100,))
        assert len(counted_forks) == 1
        self.assert_no_child_left()

    @pytest.mark.parametrize("trials, blocks, n, points", [
        (20, 2, 20, 8), (20, 2, 50, 8), (20, 3, 50, 8), (20, 2, 100, 8), (5, 3, 6, 5),
        (7, 3, 2000, 3), (40, 8, 20, 7), (3, 8, 20, 40),
    ])
    def test_blocks_start_where_a_chunk_starts(self, trials, blocks, n, points):
        got = concentration._trial_blocks(trials, blocks, n, points)
        assert [t for block in got for t in block] == list(range(trials))
        assert 1 <= len(got) <= blocks
        assert all(block and block.start * points % concentration._chunk_records(n) == 0
                   for block in got)
        # The bench's sizes at 20 trials of 8 points split in two.
        if (trials, points) == (20, 8) and blocks == 2:
            assert len(got) == 2

    def test_a_process_with_a_blas_pool_forks_nothing(self, monkeypatch):
        monkeypatch.setenv("COHERELAB_THREADS", "3")
        monkeypatch.setattr(_parallel, "_FORK_WORK", 0)
        monkeypatch.setattr(_parallel, "runs_one_thread", lambda: False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a BLAS pool"))
        self.experiment(CompleteFamily())

    def test_a_caller_running_threads_gets_one_process(self, forks, monkeypatch):
        monkeypatch.setenv("COHERELAB_THREADS", "1")
        want = self.table_bytes(self.experiment(CompleteFamily()))
        monkeypatch.setenv("COHERELAB_THREADS", "3")
        got = []
        caller = threading.Thread(target=lambda: got.append(self.experiment(CompleteFamily())))
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert [self.table_bytes(table) for table in got] == [want]
        assert forks == []

    @pytest.mark.parametrize("threads", ["2", "3", None])
    @pytest.mark.parametrize("complete", [True, False])
    @pytest.mark.parametrize("scenario", [
        # The second and third blocks of 2 or 3 are forked.
        "quiet quiet warn2 quiet warn0 quiet",
        "warn1 quiet quiet singular1 warn2 quiet",
        "quiet quiet quiet warn0 rejected singular0",
        "quiet quiet quiet quiet singular2 warn1",
    ])
    def test_events_come_in_serial_order(self, forks, monkeypatch, threads, complete,
                                         scenario):
        # As in TestSizeMeasurements.test_events_come_in_trial_then_grid_order:
        # each trial's nodes are gain/(s - pole).
        grid = FrequencyGrid.linear(0.5, 1.0, 3.0, 3)
        kinds = {"quiet": (-1.0, 1.0), "rejected": None}
        for p, s in enumerate(grid.points):
            kinds[f"warn{p}"], kinds[f"singular{p}"] = (s - 1e-10, 1e4), (s, 1.0)
        plan = [kinds[word] for word in scenario.split()]
        n = 5

        def draw(trial):
            if plan[trial] is None:
                RationalTF([1.0] * 66, [1.0])  # degree 65: ExcessiveDegree
            pole, gain = plan[trial]
            return np.array([[gain, 0.0]] * n), np.array([[-pole, 1.0]] * n)

        _draw_fixed(monkeypatch, draw)
        family = CompleteFamily() if complete else RingFamily(0.5)

        def run():
            table = concentration_experiment(gain_over_integrator(), family, [n], grid,
                                             len(plan), 0.1, 3)
            return np.frombuffer(self.table_bytes(table))

        monkeypatch.setenv("COHERELAB_THREADS", "1")
        want = _events(run)
        assert forks == []
        self.set_threads(monkeypatch, threads)
        assert _events(run) == want
        assert all(filename == __file__ for _, filename in want[1])
        assert len(forks) == min(_parallel.thread_count(), len(plan)) - 1
        self.assert_no_child_left()

    @pytest.mark.parametrize("failure", ["raise", "kill", "cut"])
    def test_a_failing_worker_s_blocks_are_measured_here(self, forks, monkeypatch, failure):
        monkeypatch.setenv("COHERELAB_THREADS", "1")
        want = self.table_bytes(self.experiment(CompleteFamily(), trials=6))
        monkeypatch.setenv("COHERELAB_THREADS", "3")
        measure, parent = concentration._size_measurements, os.getpid()
        redone, cut = [], []
        write = os.write

        def cutting_write(fd, data):
            # A worker whose block is cut sends half its payload and dies.
            if cut and len(data) > 8:
                write(fd, data[:len(data) // 2])
                os._exit(1)
            return write(fd, data)

        def failing_measure(model, n, graph, points, f_vals, ghats, seed, trials):
            # The third worker measures the last block of each size.
            if trials == range(4, 6):
                if os.getpid() == parent:
                    redone.append(n)
                elif n == 12:
                    if failure == "kill":
                        os.kill(os.getpid(), signal.SIGKILL)
                    if failure == "raise":
                        raise MemoryError
                    cut.append(n)
            return measure(model, n, graph, points, f_vals, ghats, seed, trials)

        monkeypatch.setattr(concentration, "_size_measurements", failing_measure)
        monkeypatch.setattr(os, "write", cutting_write)
        assert self.table_bytes(self.experiment(CompleteFamily(), trials=6)) == want
        # A dead worker's later block is measured here too.
        assert redone == ([12] if failure == "raise" else [12, 25])
        assert len(forks) == 2
        self.assert_no_child_left()

    @pytest.mark.parametrize("threads", ["2", "3"])
    def test_numpy_warnings_keep_their_place_among_the_chunks(self, forks, monkeypatch,
                                                              threads):
        # A chunk holds two trials of three points.  Trial 3's nodes overflow
        # as they are evaluated (numpy's RuntimeWarnings), before the chunk
        # of trials 2 and 3 is measured and warns that trial 2's point is
        # ill-conditioned; no block may start at trial 3.
        n = 5
        monkeypatch.setattr(concentration, "_KRYLOV_BYTES",
                            6 * 16 * n * (2 * _LANCZOS_MAX_STEPS + 1))
        grid = FrequencyGrid.linear(0.5, 1.0, 3.0, 3)
        quiet = np.array([[1.0, 0.0]] * n), np.array([[1.0, 1.0]] * n)
        warn = np.array([[1e4, 0.0]] * n), np.array([[1e-10 - grid.points[1], 1.0]] * n)
        overflow = np.array([[1e308, 1e308]] * n), np.array([[1.0, 1.0]] * n)
        plan = [quiet, quiet, warn, overflow, quiet, quiet]
        _draw_fixed(monkeypatch, lambda trial: plan[trial])

        def run():
            return self.table_bytes(concentration_experiment(
                gain_over_integrator(), CompleteFamily(), [n], grid, len(plan), 0.1, 3))

        def events():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    outcome = run()
                except (ValidationError, NumericalError) as exc:
                    outcome = type(exc), str(exc)
            return outcome, [(w.category, str(w.message), w.filename) for w in caught]

        def first_error():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises((Warning, ValidationError, NumericalError)) as raised:
                    run()
            return type(raised.value), str(raised.value)

        monkeypatch.setenv("COHERELAB_THREADS", "1")
        want, want_first = events(), first_error()
        categories = [category for category, _, _ in want[1]]
        assert categories.index(RuntimeWarning) < categories.index(IllConditionedWarning)
        assert want_first[0] is RuntimeWarning
        assert forks == []
        monkeypatch.setenv("COHERELAB_THREADS", threads)
        assert events() == want
        assert first_error() == want_first
        assert len(forks) == 2 * (int(threads) - 1)
        self.assert_no_child_left()

    def test_an_error_here_ends_every_worker(self, forks, monkeypatch):
        monkeypatch.setenv("COHERELAB_THREADS", "3")
        measure, parent = concentration._size_measurements, os.getpid()

        def failing_measure(*args):
            if os.getpid() == parent and args[1] == 12:
                raise SingularSystem(0.5 + 1j)
            return measure(*args)

        monkeypatch.setattr(concentration, "_size_measurements", failing_measure)
        with pytest.raises(SingularSystem):
            self.experiment(CompleteFamily(), trials=6)
        assert len(forks) == 2
        self.assert_no_child_left()


class TestConsensusOracles:
    def test_sampled_coherent_dynamics_match_closed_form(self):
        model = gain_over_integrator()
        for n, seed in ((3, 11), (7, 12), (12, 13)):
            gs = sample_nodes(model, n, seed=seed)
            net = NetworkModel(complete_graph(n), gs, UNIT_COUPLING)
            kvals = [float(g.num.coeffs[0]) for g in gs]
            expected = RationalTF([n / sum(1.0 / k for k in kvals)], [0.0, 1.0])
            assert tf_approx_equal(harmonic_mean(net.nodes), expected, tol=1e-12)

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
