import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsedyn
from sparsedyn.dynamics import DiscreteModel, consensus_sde_model, simulate_discrete, voter_model
from sparsedyn.empirical import (
    EmpiricalMeasure,
    bernoulli_init,
    component_empirical,
    component_functional_distribution,
    constant_init,
    diffusion_depth_sensitivity,
    ergodicity_variance_curve,
    fixed_graph_sampler,
    frequency_tv,
    giant_fraction,
    global_empirical,
    gw_forest_sampler,
    mix_frequencies,
    root_law_monte_carlo,
    shift_average,
    trajectory_frequencies,
    tv_discrete,
    ugw_forest_sampler,
    uniform_box_init,
    wasserstein1_paths,
)
from sparsedyn.graphs import (
    Graph,
    RootedGraph,
    component_of,
    gen_erdos_renyi,
    gen_lattice_box,
    gen_random_regular,
)
from sparsedyn.trees import poisson_dist


def measure_from(paths):
    paths = np.asarray(paths)
    times = np.arange(paths.shape[1])
    return EmpiricalMeasure(paths, times)


class TestEmpiricalBasics:
    def test_single_vertex_point_mass(self):
        g = Graph.from_edges(1, [])
        ts = simulate_discrete(g, np.array([1]), voter_model(), 3, seed=1)
        m = global_empirical(ts)
        assert m.count == 1
        assert np.all(m.samples == 1)

    def test_duplicate_paths_same_measure(self):
        a = measure_from([[0, 1], [0, 1]])
        b = measure_from([[0, 1]])
        assert tv_discrete(a, b) == 0.0

    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((0, 3)), np.arange(3))

    def test_component_restriction(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        marks = np.array([1, 1, 1, 0, 0])
        ts = simulate_discrete(g, marks, voter_model(), 2, seed=2)
        comp = component_of(g, 3)
        m = component_empirical(ts, comp)
        assert m.count == 2
        assert np.all(m.samples == 0)

    def test_connected_component_equals_global(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        ts = simulate_discrete(g, np.array([0, 1, 0]), voter_model(), 2, seed=3)
        comp = component_of(g, 0)
        assert tv_discrete(component_empirical(ts, comp), global_empirical(ts)) == 0.0

    def test_components_reweighted_reproduce_global(self):
        g = gen_erdos_renyi(60, 0.02, seed=4)
        marks = np.random.default_rng(0).integers(0, 2, 60)
        ts = simulate_discrete(g, marks, voter_model(), 3, seed=5)
        seen = set()
        parts = []
        for v in range(60):
            comp = component_of(g, v)
            key = frozenset(comp.origin)
            if key in seen:
                continue
            seen.add(key)
            parts.append(component_empirical(ts, comp).samples)
        union = np.concatenate(parts, axis=0)
        m_union = measure_from(union)
        assert tv_discrete(m_union, global_empirical(ts)) == 0.0

    def test_component_mismatch_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        ts = simulate_discrete(g, np.array([0, 1, 0]), voter_model(), 1, seed=1)
        with pytest.raises(ValueError):
            component_empirical(ts, RootedGraph(Graph(((),)), 0))  # no origin


class TestTvDiscrete:
    def test_identity_and_disjoint(self):
        a = measure_from([[0, 0], [0, 1]])
        assert tv_discrete(a, a) == 0.0
        b = measure_from([[1, 1], [1, 0]])
        assert tv_discrete(a, b) == 1.0

    def test_half_overlap(self):
        a = measure_from([[0, 0], [0, 1]])
        b = measure_from([[0, 0]])
        assert tv_discrete(a, b) == 0.5

    def test_symmetry(self):
        gen = np.random.default_rng(1)
        a = measure_from(gen.integers(0, 2, (40, 3)))
        b = measure_from(gen.integers(0, 2, (25, 3)))
        assert tv_discrete(a, b) == tv_discrete(b, a)

    def test_grid_mismatch(self):
        a = measure_from([[0, 1]])
        b = measure_from([[0, 1, 1]])
        with pytest.raises(ValueError):
            tv_discrete(a, b)



class TestTrajectoryFrequencies:
    def test_unweighted_counts_over_the_sample_count(self):
        # ten equal rows used to sum ten 0.1 steps to 0.9999999999999999
        assert trajectory_frequencies(measure_from([[0, 1]] * 10)) == {np.array([0, 1]).tobytes(): 1.0}
        f = trajectory_frequencies(measure_from([[0, 1], [1, 1], [0, 1]]))
        assert f == {np.array([0, 1]).tobytes(): 2 / 3, np.array([1, 1]).tobytes(): 1 / 3}

    @pytest.mark.parametrize("weighted", [False, True])
    def test_sums_to_one_and_agrees_with_tv(self, weighted):
        gen = np.random.default_rng(3)
        a = measure_from(gen.integers(0, 2, (60, 3)))
        b = measure_from(gen.integers(0, 2, (45, 3)))
        # constant weights are the unweighted law up to rounding
        wa, wb = (np.full(60, 2.5), np.full(45, 0.5)) if weighted else (None, None)
        fa, fb = trajectory_frequencies(a, wa), trajectory_frequencies(b, wb)
        assert math.fsum(fa.values()) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(fb.values()) == pytest.approx(1.0, abs=1e-12)
        assert frequency_tv(fa, fb) == pytest.approx(tv_discrete(a, b), abs=1e-12)
        if not weighted:
            assert frequency_tv(fa, fb) == tv_discrete(a, b)

    def test_weights_shift_the_law(self):
        m = measure_from([[0, 0], [1, 1], [1, 1]])
        f = trajectory_frequencies(m, [2.0, 1.0, 1.0])
        assert f == {np.array([0, 0]).tobytes(): 0.5, np.array([1, 1]).tobytes(): 0.5}

    def test_counts_equal_a_running_tally(self):
        gen = np.random.default_rng(20)
        for trial in range(40):
            count, steps = int(gen.integers(1, 80)), int(gen.integers(0, 5))
            paths = gen.integers(-2, 3, (count, steps))
            weights = gen.random(count) * (gen.random(count) < 0.7)
            weights[0] += 0.5
            unweighted: dict[bytes, int] = {}
            weighted: dict[bytes, float] = {}
            for row, w in zip(paths, weights):
                key = row.tobytes()
                unweighted[key] = unweighted.get(key, 0) + 1
                weighted[key] = weighted.get(key, 0.0) + float(w) / float(weights.sum())
            m = EmpiricalMeasure(paths, np.arange(steps))
            assert trajectory_frequencies(m) == {key: c / count for key, c in unweighted.items()}
            assert trajectory_frequencies(m, weights) == weighted

    def test_vector_paths_rejected(self):
        with pytest.raises(ValueError, match="finite-alphabet"):
            trajectory_frequencies(measure_from([[0.5, 1.0]]))
        with pytest.raises(ValueError, match="finite-alphabet"):
            trajectory_frequencies(measure_from(np.zeros((2, 3, 1), dtype=np.int64)))

    def test_float_state_discrete_paths_rejected(self):
        # a discrete run on float marks used to count as finite-alphabet and be
        # cast to int64: 20 distinct paths on each side gave a TV of 0.1
        model = DiscreteModel("drift", 2, lambda k, own, nb, u: own + u,
                              batch_step=lambda k, cur, aux, u: cur + u)
        g = gen_random_regular(20, 3, 1)
        a, b = (global_empirical(simulate_discrete(g, np.full(20, 0.1), model, 2, seed)) for seed in (1, 2))
        assert len({row.tobytes() for row in a.samples}) == len({row.tobytes() for row in b.samples}) == 20
        with pytest.raises(ValueError, match="finite-alphabet"):
            tv_discrete(a, b)

    @pytest.mark.parametrize("weights", [
        [1.0],  # used to return the law of the first row alone
        [1.0, 1.0, 1.0, 1.0],
        [[1.0, 1.0, 1.0]],
        [2.0, -1.0, 1.0],  # used to be accepted
        [1.0, np.nan, 1.0],
        [1.0, np.inf, 1.0],
        [0.0, 0.0, 0.0],  # used to raise ZeroDivisionError
    ])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="weights"):
            trajectory_frequencies(measure_from([[0, 0], [1, 1], [1, 1]]), weights)


class TestMixFrequencies:
    def test_convex_combination(self):
        mixed = mix_frequencies([(1.0, {b"a": 1.0}), (3.0, {b"a": 0.5, b"b": 0.5})])
        assert mixed == {b"a": 0.25 + 0.375, b"b": 0.375}
        assert math.fsum(mixed.values()) == 1.0

    def test_mixing_equal_laws_is_that_law(self):
        gen = np.random.default_rng(4)
        f = trajectory_frequencies(measure_from(gen.integers(0, 3, (50, 2))))
        mixed = mix_frequencies([(0.3, f), (0.7, f)])
        assert mixed.keys() == f.keys()
        assert frequency_tv(mixed, f) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("weights, what", [
        ((2.0, -1.0), "finite and >= 0"), ((1.0, math.nan), "finite and >= 0"),
        ((math.inf, 1.0), "finite and >= 0"), ((0.0, 0.0), "positive sum"),
    ])
    def test_bad_weights_rejected(self, weights, what):
        # (2, -1) returned {a: 2.0, b: -1.0}; a zero sum raised ZeroDivisionError
        with pytest.raises(ValueError, match=what):
            mix_frequencies([(weights[0], {b"a": 1.0}), (weights[1], {b"b": 1.0})])


class TestWasserstein:
    def test_identical_zero(self):
        gen = np.random.default_rng(2)
        for rows in (30, 1000):  # 1000 exceeds max_samples, so both sides are subsampled
            a = EmpiricalMeasure(gen.normal(0, 1, (rows, 5)), np.linspace(0, 1, 5))
            assert wasserstein1_paths(a, a, t=1.0, seed=7) == 0.0

    def test_constant_point_masses(self):
        times = np.linspace(0, 1, 4)
        a = EmpiricalMeasure(np.full((1, 4), 2.0), times)
        b = EmpiricalMeasure(np.full((1, 4), -1.5), times)
        assert abs(wasserstein1_paths(a, b, t=1.0) - 3.5) < 1e-12

    def test_translation(self):
        gen = np.random.default_rng(3)
        delta = 0.75
        times = np.linspace(0, 1, 6)
        for rows in (40, 1000):
            base = gen.normal(0, 1, (rows, 6))
            a = EmpiricalMeasure(base, times)
            b = EmpiricalMeasure(base + delta, times)
            assert abs(wasserstein1_paths(a, b, t=1.0, seed=1) - delta) < 1e-9

    @pytest.mark.parametrize("rows_a, rows_b", [(300, 500), (100, 400)])
    def test_unequal_counts_draw_their_own_subsample(self, rows_a, rows_b):
        # 300 and 500 paths are both cut to W1_MAX_SAMPLES; 100 against 400 cuts only the larger
        times = np.linspace(0, 1, 3)
        a = EmpiricalMeasure(np.zeros((rows_a, 3)), times)
        b = EmpiricalMeasure(np.full((rows_b, 3), 0.7), times)
        assert abs(wasserstein1_paths(a, b, t=1.0, seed=3) - 0.7) < 1e-12

    def test_triangle_inequality(self):
        gen = np.random.default_rng(4)
        times = np.linspace(0, 1, 4)
        ms = [EmpiricalMeasure(gen.normal(0, 1, (12, 4)), times) for _ in range(3)]
        for a, b, c in itertools.permutations(ms, 3):
            dab = wasserstein1_paths(a, b, t=1.0, seed=0)
            dbc = wasserstein1_paths(b, c, t=1.0, seed=0)
            dac = wasserstein1_paths(a, c, t=1.0, seed=0)
            assert dac <= dab + dbc + 1e-9

    def test_truncation_in_time(self):
        times = np.array([0.0, 0.5, 1.0])
        a = EmpiricalMeasure(np.array([[0.0, 0.0, 0.0]]), times)
        b = EmpiricalMeasure(np.array([[0.0, 0.0, 9.0]]), times)
        assert wasserstein1_paths(a, b, t=0.6) == 0.0
        assert wasserstein1_paths(a, b, t=1.0) == 9.0


class TestRootLawMonteCarlo:
    def test_single_vertex_trees(self):
        sampler = fixed_graph_sampler(RootedGraph(Graph(((),)), 0))
        m = root_law_monte_carlo(
            sampler, bernoulli_init(0.7), voter_model(), 3, 4000, seed=5
        )
        ones = float(np.mean(m.samples[:, 0] == 1))
        assert abs(ones - 0.7) < 0.03
        # isolated vertices hold their state
        assert np.all(m.samples == m.samples[:, :1])

    def test_depth_stability_discrete(self):
        rho = poisson_dist(1.5)
        model = voter_model()
        k = 2
        base = root_law_monte_carlo(
            ugw_forest_sampler(rho, k), bernoulli_init(0.5), model, k, 4000, seed=6
        )
        deeper = root_law_monte_carlo(
            ugw_forest_sampler(rho, k + 3), bernoulli_init(0.5), model, k, 4000, seed=7
        )
        assert tv_discrete(base, deeper) < 0.05

    def test_batching_invariance_of_law(self):
        rho = poisson_dist(1.0)
        model = voter_model()
        a = root_law_monte_carlo(
            gw_forest_sampler(rho, 2), bernoulli_init(0.5), model, 2, 3000, seed=8
        )
        b = root_law_monte_carlo(
            gw_forest_sampler(rho, 2), bernoulli_init(0.5), model, 2, 3000, seed=9,
            batch_size=700,
        )
        assert tv_discrete(a, b) < 0.06

    def test_bad_counts_rejected(self):
        sampler = fixed_graph_sampler(RootedGraph(Graph(((),)), 0))
        for replicas in (0, -3):  # 0 died in numpy's concatenate
            with pytest.raises(ValueError, match="replicas"):
                root_law_monte_carlo(sampler, bernoulli_init(0.5), voter_model(), 2, replicas, seed=1)
        with pytest.raises(ValueError, match="batch_size"):
            root_law_monte_carlo(sampler, bernoulli_init(0.5), voter_model(), 2, 10, seed=1, batch_size=-1)

    @pytest.mark.parametrize("factory, args", [
        (bernoulli_init, (1.5,)),  # marked every vertex 1
        (bernoulli_init, (-0.1,)),
        (bernoulli_init, (math.nan,)),  # marked every vertex 0
        (uniform_box_init, (1.0, 0.0)),  # failed only when called, inside numpy
        (uniform_box_init, (0.0, math.inf)),  # OverflowError when called
        (uniform_box_init, (math.nan, 1.0)),
    ])
    def test_init_factories_reject_parameters_they_cannot_honour(self, factory, args):
        with pytest.raises(ValueError, match=f"{factory.__name__} requires"):
            factory(*args)

    def test_zero_batch_size_returns_promptly(self):
        # batch_size=0 drew empty batches forever.  A child process turns a
        # hang into a failure instead of a stalled suite.
        code = (
            "from sparsedyn.dynamics import voter_model\n"
            "from sparsedyn.empirical import bernoulli_init, fixed_graph_sampler, root_law_monte_carlo\n"
            "from sparsedyn.graphs import Graph, RootedGraph\n"
            "sampler = fixed_graph_sampler(RootedGraph(Graph(((),)), 0))\n"
            "try:\n"
            "    root_law_monte_carlo(sampler, bernoulli_init(0.5), voter_model(), 2, 10, 1, batch_size=0)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(sparsedyn.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert "batch_size" in out

    @pytest.mark.parametrize("replicas", [200, 2000])
    def test_diffusion_depth_sensitivity_is_small(self, replicas):
        # base and deeper runs share seeds, so their root paths are coupled row by
        # row and differ only by what vertices past depth 3 feed in over 5 steps
        base, shift = diffusion_depth_sensitivity(
            poisson_dist(2.0), uniform_box_init(-1.0, 1.0), consensus_sde_model(sigma0=0.5),
            0.5, 0.1, 3, replicas, seed=7,
        )
        assert base.count == replicas
        assert 0.0 <= shift < 1e-3


class TestGiantFraction:
    def test_complete_graph(self):
        mean, err = giant_fraction(
            lambda n, s: gen_erdos_renyi(n, 1.0, s), n=30, replicas=3, seed=1
        )
        assert mean == 1.0

    def test_empty_graph(self):
        mean, err = giant_fraction(
            lambda n, s: gen_erdos_renyi(n, 0.0, s), n=30, replicas=3, seed=1
        )
        assert abs(mean - 1 / 30) < 1e-12

    def test_sampler_of_the_wrong_size_raises(self):
        # a sampler returning 2n vertices used to read a fraction near 2
        with pytest.raises(ValueError, match="60 vertices for n=30"):
            giant_fraction(lambda n, s: gen_erdos_renyi(2 * n, 1.0, s), n=30, replicas=3, seed=1)


class TestComponentFunctional:
    def test_constant_functional(self):
        vals = component_functional_distribution(
            lambda s: gen_erdos_renyi(50, 1.0 / 50, s),
            bernoulli_init(0.5),
            voter_model(),
            lambda block: np.ones(block.shape[1]),
            2,
            120,
            seed=3,
        )
        assert np.all(vals == 1.0)


class TestShiftAverage:
    def make_ts(self, marks, k=0):
        rg = gen_lattice_box(2, 6)
        return simulate_discrete(rg.graph, marks, voter_model(), k, seed=4)

    def test_constant_configuration(self):
        rg = gen_lattice_box(2, 6)
        n_v = rg.graph.vertex_count
        ts = self.make_ts(np.ones(n_v, dtype=np.int64), k=3)
        center = 9 // 2  # window radius 1 in 2d: (2*1+1)^2 = 9 cells
        vals = shift_average(ts, lambda block: float(block[-1, center]), 1, [1, 2, 4])
        assert vals == [1.0, 1.0, 1.0]

    def test_negative_window_rejected(self):
        # used to average over an empty window and return [nan]
        rg = gen_lattice_box(2, 6)
        ts = self.make_ts(np.zeros(rg.graph.vertex_count, dtype=np.int64))
        with pytest.raises(ValueError, match="window_radius"):
            shift_average(ts, lambda block: float(np.mean(block)), -1, [1])

    @pytest.mark.parametrize("window, boxes", [(1, [-1]), (1, [1.5]), (1.0, [1]), (1, [True]), ("1", [1])])
    def test_sizes_must_be_whole_numbers(self, window, boxes):
        # a negative box used to raise ZeroDivisionError, a float one numpy's TypeError
        rg = gen_lattice_box(2, 6)
        ts = self.make_ts(np.zeros(rg.graph.vertex_count, dtype=np.int64))
        with pytest.raises(ValueError, match="whole number"):
            shift_average(ts, lambda block: 0.0, window, boxes)

    def test_box_plus_window_must_fit(self):
        rg = gen_lattice_box(2, 6)
        ts = self.make_ts(np.zeros(rg.graph.vertex_count, dtype=np.int64))
        with pytest.raises(ValueError):
            shift_average(ts, lambda block: 0.0, 2, [5])

    def test_iid_variance_scales_with_box(self):
        box_sizes = [2, 4]
        rows = []
        for rep in range(200):
            rg = gen_lattice_box(2, 6)
            marks = np.random.default_rng(100 + rep).integers(0, 2, rg.graph.vertex_count)
            ts = simulate_discrete(rg.graph, marks, voter_model(), 0, seed=rep)
            rows.append(shift_average(ts, lambda block: float(block[0, 0]), 0, box_sizes))
        curve = ergodicity_variance_curve(rows, box_sizes)
        # single-site Bernoulli(1/2): exact variance 0.25 / |B_m|
        v2, v4 = curve[0][1], curve[1][1]
        assert abs(v2 - 0.25 / 25) < 0.006
        assert abs(v4 - 0.25 / 81) < 0.002
        assert v2 > v4

    def test_variance_curve_requirements(self):
        with pytest.raises(ValueError):
            ergodicity_variance_curve(np.zeros((5, 2)))

    def test_deterministic_dynamics_zero_variance(self):
        rows = []
        for rep in range(25):
            rg = gen_lattice_box(2, 4)
            marks = np.ones(rg.graph.vertex_count, dtype=np.int64)
            ts = simulate_discrete(rg.graph, marks, voter_model(), 2, seed=rep)
            rows.append(shift_average(ts, lambda block: float(block[-1, 0]), 0, [1, 2]))
        curve = ergodicity_variance_curve(rows, [1, 2])
        assert curve[0][1] == 0.0 and curve[1][1] == 0.0


_TV_SCRIPT = """
import numpy as np
from sparsedyn.empirical import EmpiricalMeasure, tv_discrete
from sparsedyn.localtopo import BallHistogram, histogram_tv

gen = np.random.default_rng(7)
t = np.arange(5)
a = EmpiricalMeasure(gen.integers(0, 3, (999, 5)), t)
b = EmpiricalMeasure(np.minimum(gen.integers(0, 4, (1110, 5)), 2), t)
ca = {bytes([i]): int(c) for i, c in enumerate(gen.integers(1, 50, 40))}
cb = {bytes([i + 20]): int(c) for i, c in enumerate(gen.integers(1, 70, 40))}
ha = BallHistogram(ca, 2, sum(ca.values()))
hb = BallHistogram(cb, 2, sum(cb.values()))
print(repr(tv_discrete(a, b)), repr(tv_discrete(b, a)), repr(histogram_tv(ha, hb)), repr(histogram_tv(hb, ha)))
"""


def test_tv_is_independent_of_the_hash_seed():
    # summing in set order gave a different last bit per PYTHONHASHSEED
    src = str(Path(sparsedyn.__file__).resolve().parent.parent)
    outs = set()
    for seed in range(4):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
        out = subprocess.run([sys.executable, "-c", _TV_SCRIPT], capture_output=True, text=True,
                             env=env, timeout=60, check=True).stdout.split()
        assert out[0] == out[1] and out[2] == out[3]
        outs.add(tuple(out))
    assert len(outs) == 1
