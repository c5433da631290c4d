import dataclasses
import math

import numpy as np
import pytest

from sparsedyn.dynamics import (
    DecayProfile,
    DiffusionModel,
    DiscreteModel,
    GraphAux,
    NumericalAbort,
    consensus_sde_model,
    coupled_triple,
    covariance_decay_profile,
    distances_to,
    kuramoto_model,
    noisy_majority_model,
    replica_paths_diffusion,
    replica_paths_discrete,
    simulate,
    simulate_diffusion,
    simulate_discrete,
    voter_model,
)
from sparsedyn import dynamics, rng
from sparsedyn.graphs import Graph, gen_lattice_box, gen_regular_tree

K2 = Graph.from_edges(2, [(0, 1)])
TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
C6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


class TestDiscreteEngine:
    def test_voter_consensus_absorbing(self):
        model = voter_model()
        ts = simulate_discrete(TRIANGLE, np.array([1, 1, 1]), model, 6, seed=1)
        assert np.all(ts.paths == 1)

    def test_majority_all_zeros_fixed(self):
        model = noisy_majority_model(epsilon=0.0)
        ts = simulate_discrete(TRIANGLE, np.array([0, 0, 0]), model, 5, seed=2)
        assert np.all(ts.paths == 0)

    def test_isolated_vertex_holds(self):
        g = Graph.from_edges(3, [(0, 1)])
        model = voter_model()
        ts = simulate_discrete(g, np.array([0, 1, 1]), model, 8, seed=3)
        assert np.all(ts.paths[:, 2] == 1)

    def test_batch_equals_scalar_bitwise(self):
        g = gen_lattice_box(2, 3).graph
        marks = (np.arange(g.vertex_count) * 7 % 2).astype(np.int64)
        for model in (voter_model(), noisy_majority_model(epsilon=0.2)):
            a = simulate_discrete(g, marks, model, 5, seed=9)
            b = simulate_discrete(g, marks, dataclasses.replace(model, batch_step=None), 5, seed=9)
            assert np.array_equal(a.paths, b.paths), model.name

    def test_determinism(self):
        model = voter_model()
        g = gen_regular_tree(3, 4).graph
        marks = np.array([v % 2 for v in range(g.vertex_count)])
        a = simulate_discrete(g, marks, model, 4, seed=11)
        b = simulate_discrete(g, marks, model, 4, seed=11)
        assert np.array_equal(a.paths, b.paths)
        c = simulate_discrete(g, marks, model, 4, seed=12)
        assert not np.array_equal(a.paths, c.paths)

    def test_neighbor_bundle_permutation_invariance(self):
        gen = np.random.default_rng(0)
        voter = voter_model(alphabet_size=3)
        maj = noisy_majority_model(epsilon=0.3)
        for _ in range(200):
            m = int(gen.integers(1, 8))
            nbs = gen.integers(0, 3, size=m)
            u = float(gen.random())
            own = np.array([1])
            shuffled = gen.permutation(nbs)
            assert voter.step(0, own, nbs, u) == voter.step(0, own, shuffled, u)
            nbs2 = (nbs % 2).astype(np.int64)
            assert maj.step(0, own, nbs2, u) == maj.step(0, own, gen.permutation(nbs2), u)

    def test_exact_locality_noise_outside_ball(self):
        # replacing noise outside B_k(v) with a fresh stream leaves X_v[0..k]
        # bitwise unchanged
        rg = gen_lattice_box(2, 4)
        g = rg.graph
        model = voter_model()
        marks = np.random.default_rng(17).integers(0, 2, g.vertex_count)
        gen = np.random.default_rng(5)
        for trial in range(6):
            v = int(gen.integers(0, g.vertex_count))
            k = int(gen.integers(1, 4))
            dist = distances_to(g, [v])
            streams = np.where(dist > k, 1, 0)
            base = simulate_discrete(g, marks, model, k, seed=21)
            swapped = simulate_discrete(g, marks, model, k, seed=21, streams=streams)
            assert np.array_equal(base.paths[:, v], swapped.paths[:, v])

    def test_automorphism_equivariance_bitwise(self):
        model = voter_model()
        n = 6
        phi = np.array([(v + 1) % n for v in range(n)])  # rotation of C6
        marks = np.array([0, 1, 1, 0, 1, 0])
        base = simulate_discrete(C6, marks, model, 5, seed=8)
        permuted = simulate_discrete(C6, marks[phi], model, 5, seed=8, noise_index=phi)
        for v in range(n):
            assert np.array_equal(permuted.paths[:, v], base.paths[:, phi[v]])


class TestDiffusionEngine:
    def test_zero_coefficients_constant(self):
        model = DiffusionModel(
            "still", 1, lambda t, x, nb: np.zeros(1), lambda t, x, nb: np.float64(0.0)
        )
        marks = np.array([0.3, -1.2])
        ts = simulate_diffusion(K2, marks, model, 1.0, 0.01, seed=4)
        assert np.allclose(ts.paths[:, :, 0], marks[None, :])

    def test_consensus_closed_form_on_k2(self):
        # d/dt (X1 - X2) = -2 (X1 - X2): gap(t) = 2 exp(-2t)
        model = consensus_sde_model(sigma0=0.0)
        dt = 1e-2
        ts = simulate_diffusion(K2, np.array([1.0, -1.0]), model, 1.0, dt, seed=5)
        gap = ts.paths[:, 0, 0] - ts.paths[:, 1, 0]
        expect = 2.0 * np.exp(-2.0 * ts.times)
        assert float(np.max(np.abs(gap - expect))) <= 5 * dt

    def test_consensus_error_shrinks_with_dt(self):
        model = consensus_sde_model(sigma0=0.0)
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            ts = simulate_diffusion(K2, np.array([1.0, -1.0]), model, 1.0, dt, seed=5)
            gap = ts.paths[:, 0, 0] - ts.paths[:, 1, 0]
            expect = 2.0 * np.exp(-2.0 * ts.times)
            errs.append(float(np.max(np.abs(gap - expect))))
        assert errs[0] > errs[1] > errs[2]

    def test_brownian_increment_variance(self):
        model = DiffusionModel(
            "bm", 1, lambda t, x, nb: np.zeros(1), lambda t, x, nb: np.float64(1.0),
            batch_drift=lambda t, s, aux: np.zeros_like(s), sigma_scale=1.0,
        )
        g = Graph.from_edges(1, [])
        dt = 1e-3
        ts = simulate_diffusion(g, np.array([0.0]), model, 100.0, dt, seed=6)
        inc = np.diff(ts.paths[:, 0, 0])
        assert abs(float(np.var(inc)) / dt - 1.0) < 0.02

    def test_batch_matches_scalar_closely(self):
        model = consensus_sde_model(sigma0=0.5)
        g = gen_regular_tree(3, 2).graph
        marks = np.linspace(-1, 1, g.vertex_count)
        a = simulate_diffusion(g, marks, model, 0.5, 0.01, seed=7)
        b = simulate_diffusion(g, marks, dataclasses.replace(model, batch_drift=None), 0.5, 0.01, seed=7)
        assert np.allclose(a.paths, b.paths, atol=1e-12)

    def test_equivariance_scalar_path(self):
        model = dataclasses.replace(kuramoto_model(coupling=1.0, sigma0=0.3), batch_drift=None)
        n = 6
        phi = np.array([(v + 1) % n for v in range(n)])
        marks = np.linspace(0, 2, n)
        base = simulate_diffusion(C6, marks, model, 0.3, 0.01, seed=9)
        permuted = simulate_diffusion(C6, marks[phi], model, 0.3, 0.01, seed=9, noise_index=phi)
        for v in range(n):
            assert np.array_equal(permuted.paths[:, v, 0], base.paths[:, phi[v], 0])

    def test_numerical_abort(self):
        model = DiffusionModel(
            "blowup", 1, lambda t, x, nb: x * 1e160, lambda t, x, nb: np.float64(0.0)
        )
        # the drift overflows to inf on purpose, which numpy reports as a warning
        with pytest.raises(NumericalAbort) as err, pytest.warns(RuntimeWarning, match="overflow"):
            simulate_diffusion(K2, np.array([1.0, 1.0]), model, 1.0, 0.1, seed=1)
        assert err.value.step >= 1

    def test_kuramoto_k0_independent(self):
        model = kuramoto_model(coupling=0.0, sigma0=1.0)
        block = replica_paths_diffusion(
            K2, np.zeros(2), model, 1.0, 0.01, seed=13, replicas=3000, record=[0, 1]
        )
        a = block[:, -1, 0]
        b = block[:, -1, 1]
        cov = float(np.mean((a - a.mean()) * (b - b.mean())))
        se = float(np.std((a - a.mean()) * (b - b.mean())) / math.sqrt(len(a)))
        assert abs(cov) < 4 * se


class TestBuiltinRegistry:
    def test_voter_invariant_state(self):
        model = voter_model()
        ts = simulate_discrete(TRIANGLE, np.array([1, 1, 1]), model, 3, seed=2)
        assert np.all(ts.paths == 1)

    def test_majority_eps0_all_ones(self):
        model = noisy_majority_model(epsilon=0.0)
        ts = simulate_discrete(TRIANGLE, np.array([1, 1, 1]), model, 3, seed=2)
        assert np.all(ts.paths == 1)


class TestReplicaBatching:
    def test_discrete_matches_stream_offset_runs(self):
        g = gen_lattice_box(1, 4).graph
        marks = np.array([v % 2 for v in range(g.vertex_count)])
        model = voter_model()
        block = replica_paths_discrete(g, marks, model, 4, seed=3, replicas=5, record=list(range(g.vertex_count)))
        for r in range(5):
            solo = simulate_discrete(g, marks, model, 4, seed=3, streams=2 * r)
            assert np.array_equal(block[r], solo.paths)

    def test_diffusion_matches_stream_offset_runs(self):
        model = consensus_sde_model(sigma0=0.4)
        marks = np.array([1.0, -1.0])
        block = replica_paths_diffusion(K2, marks, model, 0.3, 0.01, seed=5, replicas=4, record=[0, 1])
        for r in range(4):
            solo = simulate_diffusion(K2, marks, model, 0.3, 0.01, seed=5, streams=2 * r)
            assert np.array_equal(block[r], solo.paths[:, :, 0])

    @pytest.mark.parametrize("name, kwargs", [("voter", {"alphabet_size": 3}),
                                              ("noisy_majority", {"epsilon": 0.2})])
    def test_scalar_rule_runs_over_the_replica_axis(self, name, kwargs):
        g = gen_lattice_box(2, 2).graph
        marks = np.arange(g.vertex_count) % 2
        model = getattr(dynamics, f"{name}_model")(**kwargs)
        batch, scalar = (replica_paths_discrete(g, marks, m, 3, 4, 5, [0, 4, 8], replica_offset=2)
                         for m in (model, dataclasses.replace(model, batch_step=None)))
        assert np.array_equal(batch, scalar)

    def test_scalar_diffusion_runs_over_the_replica_axis(self):
        model = dataclasses.replace(kuramoto_model(sigma0=0.3), batch_drift=None)
        g = gen_regular_tree(2, 2).graph
        marks = np.linspace(-1.0, 1.0, g.vertex_count)
        block = replica_paths_diffusion(g, marks, model, 0.3, 0.1, seed=5, replicas=3, record=[0, 2, 4],
                                        replica_offset=1)
        for r in range(3):
            solo = simulate_diffusion(g, marks, model, 0.3, 0.1, seed=5, streams=2 * (r + 1))
            assert np.array_equal(block[r], solo.paths[:, [0, 2, 4], 0])

    def test_batch_rule_reads_the_current_state(self):
        # a rule that reads its input as the current state: X(k) = X(0) + k mod 5.
        # The replica engine used to hand batch_step a one-row history instead.
        step = lambda k, own, nb, u: (int(own[-1]) + 1) % 5
        model = dynamics.DiscreteModel("count", 5, step, lambda k, own, u: (int(own[-1]) + 1) % 5,
                                       batch_step=lambda k, cur, aux, u: (cur + 1) % 5)
        marks = np.array([0, 3, 4])
        expect = (marks[None, :] + np.arange(4)[:, None]) % 5
        assert np.array_equal(simulate_discrete(TRIANGLE, marks, model, 3, seed=1).paths, expect)
        block = replica_paths_discrete(TRIANGLE, marks, model, 3, seed=1, replicas=2, record=[0, 1, 2])
        assert np.array_equal(block, np.stack([expect, expect]))

    def test_offset_continuation(self):
        model = consensus_sde_model(sigma0=0.4)
        marks = np.array([1.0, -1.0])
        full = replica_paths_diffusion(K2, marks, model, 0.2, 0.01, seed=5, replicas=6, record=[0])
        tail = replica_paths_diffusion(
            K2, marks, model, 0.2, 0.01, seed=5, replicas=3, record=[0], replica_offset=3
        )
        assert np.array_equal(full[3:], tail)


class TestSimulate:
    def test_dispatches_to_the_family_engine(self):
        g = gen_lattice_box(2, 2).graph
        n = g.vertex_count
        noise = dict(streams=np.arange(n) % 2, noise_index=np.arange(n)[::-1])
        marks = np.arange(n) % 2
        voter = voter_model()
        assert np.array_equal(simulate(g, marks, voter, 4, 3, **noise).paths,
                              simulate_discrete(g, marks, voter, 4, 3, **noise).paths)
        kuramoto = kuramoto_model(sigma0=0.5)
        assert np.array_equal(simulate(g, marks, kuramoto, 0.4, 3, dt=0.1, **noise).paths,
                              simulate_diffusion(g, marks, kuramoto, 0.4, 0.1, 3, **noise).paths)

    def test_diffusion_needs_dt(self):
        model = consensus_sde_model()
        marks = np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="dt is required"):
            simulate(K2, marks, model, 1.0, 1)
        with pytest.raises(ValueError, match="dt is required"):
            coupled_triple(K2, marks, [0], [1], model, 1.0, 1)
        with pytest.raises(ValueError, match="dt is required"):
            covariance_decay_profile(K2, marks, model, [([0], [1], 1)], lambda p: 0.0, 1.0, 100, seed=1)

    @pytest.mark.parametrize("horizon", [2.7, -1, float("nan"), float("inf")])
    def test_discrete_horizon_never_truncates(self, horizon):
        # coupled_triple(..., horizon=2.7) used to run 2 steps, and
        # simulate_discrete(..., k_max=-1) to die with an IndexError
        voter = voter_model()
        marks = np.array([0, 1])
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate(K2, marks, voter, horizon, 1)
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate_discrete(K2, marks, voter, horizon, 1)
        with pytest.raises(ValueError, match="whole number of steps"):
            coupled_triple(K2, marks, [0], [1], voter, horizon, 1)
        with pytest.raises(ValueError, match="whole number of steps"):
            replica_paths_discrete(K2, marks, voter, horizon, 1, replicas=2, record=[0])
        with pytest.raises(ValueError, match="whole number of steps"):
            covariance_decay_profile(K2, marks, voter, [([0], [1], 1)], lambda p: 0.0, horizon, 100, seed=1)

    def test_integral_float_horizon_is_accepted(self):
        voter = voter_model()
        a = simulate(TRIANGLE, np.array([0, 1, 1]), voter, 4.0, 2)
        assert np.array_equal(a.paths, simulate_discrete(TRIANGLE, np.array([0, 1, 1]), voter, 4, 2).paths)


SINGLE = Graph(((),))
EDGELESS = Graph.from_edges(4, [])


def _mark_final(p):
    return float(p[-1, 0])


@pytest.mark.parametrize("g", [SINGLE, EDGELESS], ids=["n1", "edgeless"])
class TestEdgeCases:
    @pytest.mark.parametrize("name, kwargs", [("voter", {}), ("noisy_majority", {"epsilon": 0.3})])
    @pytest.mark.parametrize("k", [0, 3])
    def test_discrete(self, g, name, kwargs, k):
        n = g.vertex_count
        marks = np.arange(n) % 2
        model = getattr(dynamics, f"{name}_model")(**kwargs)
        ts = simulate(g, marks, model, k, 1)
        assert ts.paths.shape == (k + 1, n) and ts.times.tolist() == list(range(k + 1))
        if name == "voter":  # isolated vertices hold
            assert np.array_equal(ts.paths, np.tile(marks, (k + 1, 1)))
        for replicas in (1, 3):
            block = replica_paths_discrete(g, marks, model, k, 1, replicas, list(range(n)))
            assert block.shape == (replicas, k + 1, n)
            for r in range(replicas):
                assert np.array_equal(block[r], simulate(g, marks, model, k, 1, streams=2 * r).paths)
        prof = covariance_decay_profile(g, marks, model, [([0], [n - 1], 0)], _mark_final, k, 100, seed=1)
        assert prof.estimates.shape == prof.ci_half_widths.shape == (1,)
        if k == 0:  # deterministic paths have no covariance
            assert prof.estimates[0] == 0.0 and prof.ci_half_widths[0] == 0.0
        with pytest.raises(ValueError, match=">= 100"):
            covariance_decay_profile(g, marks, model, [([0], [n - 1], 0)], _mark_final, k, 1, seed=1)

    @pytest.mark.parametrize("name", ["consensus_sde", "kuramoto"])
    def test_single_step_diffusion(self, g, name):
        n = g.vertex_count
        marks = np.linspace(-1.0, 1.0, n)
        model = getattr(dynamics, f"{name}_model")(sigma0=0.5)
        ts = simulate(g, marks, model, 0.1, 1, dt=0.1)
        assert ts.paths.shape == (2, n, 1) and ts.times.tolist() == [0.0, 0.1]
        for replicas in (1, 3):
            block = replica_paths_diffusion(g, marks, model, 0.1, 0.1, 1, replicas, list(range(n)))
            assert block.shape == (replicas, 2, n)
            for r in range(replicas):
                solo = simulate(g, marks, model, 0.1, 1, dt=0.1, streams=2 * r)
                assert np.array_equal(block[r], solo.paths[:, :, 0])
        prof = covariance_decay_profile(g, marks, model, [([0], [n - 1], 0)], _mark_final, 0.1, 100,
                                        seed=1, dt=0.1)
        assert prof.estimates.shape == (1,) and np.isfinite(prof.estimates[0])
        for horizon in (0.0, 0.05):
            with pytest.raises(ValueError, match="horizon >= dt"):
                simulate(g, marks, model, horizon, 1, dt=0.1)


class TestCoupledTriple:
    def test_whole_set_tie_rule(self):
        g = TRIANGLE
        marks = np.array([0, 1, 0])
        model = voter_model()
        x, y, z = coupled_triple(g, marks, [0, 1, 2], [0, 1, 2], model, 5, seed=6)
        assert np.array_equal(z.paths, x.paths)  # Z keeps the base stream everywhere
        fresh = simulate_discrete(g, marks, model, 5, seed=6, streams=1)
        assert np.array_equal(y.paths, fresh.paths)

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        model = voter_model()
        x, y, z = coupled_triple(g, np.array([1]), [0], [0], model, 4, seed=7)
        assert np.array_equal(z.paths, x.paths)

    def test_same_marginal_law(self):
        g = gen_regular_tree(3, 2).graph
        marks = np.array([v % 2 for v in range(g.vertex_count)])
        model = voter_model()
        root_means = []
        for which in range(3):
            vals = []
            for rep in range(1500):
                triple = coupled_triple(
                    g, marks, [0], [5], model, 3, seed=rng.stream_key(30, rep)
                )
                vals.append(int(triple[which].paths[-1, 0]))
            root_means.append(float(np.mean(vals)))
        se = math.sqrt(0.25 / 1500)
        assert max(root_means) - min(root_means) < 5 * se

    def test_partition_matches_paper_rule(self):
        g = gen_lattice_box(1, 5).graph  # path of 11
        model = voter_model()
        marks = np.array([v % 2 for v in range(11)])
        x, y, z = coupled_triple(g, marks, [0], [10], model, 2, seed=8)
        d1 = distances_to(g, [0])
        d2 = distances_to(g, [10])
        base = simulate_discrete(g, marks, model, 2, seed=8)
        swap = d1 >= d2
        y_expected = simulate_discrete(g, marks, model, 2, seed=8, streams=np.where(swap, 1, 0))
        assert np.array_equal(y.paths, y_expected.paths)
        assert np.array_equal(z.paths[:, ~swap], base.paths[:, ~swap] * 0 + z.paths[:, ~swap])


class TestCovarianceProfile:
    def test_zero_distance_positive_variance(self):
        g = gen_lattice_box(1, 6).graph
        # irregular marks keep the voter picks genuinely random near the center
        marks = np.array([0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0])
        model = voter_model()
        prof = covariance_decay_profile(
            g, marks, model, [([6], [6], 0)], lambda p: float(p[-1, 0]), 3, 400, seed=9
        )
        assert prof.estimates[0] > 0.05

    def test_discrete_exact_independence_beyond_horizon(self):
        g = gen_lattice_box(1, 10).graph  # path of 21
        marks = np.random.default_rng(23).integers(0, 2, g.vertex_count)
        model = voter_model()
        k = 2
        prof = covariance_decay_profile(
            g,
            marks,
            model,
            [([10 - 3], [10 + 3], 6)],  # distance 6 > 2k = 4
            lambda p: float(p[-1, 0]),
            k,
            600,
            seed=10,
            ci_z=3.0,
        )
        assert abs(prof.estimates[0]) <= prof.ci_half_widths[0]

    def test_profile_requires_increasing_distances(self):
        with pytest.raises(ValueError):
            DecayProfile(np.array([2, 2]), np.zeros(2), np.zeros(2))

    def test_replica_floor(self):
        g = K2
        model = voter_model()
        with pytest.raises(ValueError):
            covariance_decay_profile(
                g, np.array([0, 1]), model, [([0], [1], 1)], lambda p: 0.0, 2, 50, seed=1
            )


class TestEngineBoundary:
    @pytest.mark.parametrize("horizon, dt", [(1.0, 0.3), (0.25, 0.1)])
    def test_horizon_not_a_multiple_of_dt_raises(self, horizon, dt):
        # 1.0 with dt 0.3 used to end silently at 0.8999999999999999
        model = consensus_sde_model(sigma0=0.5)
        marks = np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate_diffusion(K2, marks, model, horizon, dt, seed=1)
        with pytest.raises(ValueError, match="whole number of steps"):
            replica_paths_diffusion(K2, marks, model, horizon, dt, seed=1, replicas=2, record=[0])
        with pytest.raises(ValueError, match="whole number of steps"):
            covariance_decay_profile(K2, marks, model, [([0], [1], 1)], lambda p: 0.0, horizon, 100,
                                     seed=1, dt=dt)

    @pytest.mark.parametrize("horizon, dt, steps", [(0.3, 0.01, 30), (2.0, 0.1, 20), (100.0, 1e-3, 100_000)])
    def test_rounding_noise_in_the_ratio_is_accepted(self, horizon, dt, steps):
        assert dynamics._step_count(horizon, dt) == steps

    @pytest.mark.parametrize("scalar", [False, True])
    @pytest.mark.parametrize("bad", [2, -1])
    def test_marks_outside_the_alphabet_raise_on_both_paths(self, scalar, bad):
        # the voter batch path used to die in a reshape; the scalar path accepted them
        g = gen_lattice_box(1, 4).graph
        marks = np.zeros(g.vertex_count, dtype=np.int64)
        marks[3] = bad
        model = voter_model()
        if scalar:
            model = dataclasses.replace(model, batch_step=None)
        with pytest.raises(ValueError, match="alphabet|lie in"):
            simulate_discrete(g, marks, model, 3, seed=1)

    def test_replica_marks_outside_the_alphabet_raise(self):
        g = gen_lattice_box(1, 4).graph
        marks = np.zeros(g.vertex_count, dtype=np.int64)
        marks[0] = 2
        with pytest.raises(ValueError, match="lie in"):
            replica_paths_discrete(g, marks, voter_model(), 3, seed=1, replicas=2, record=[0])

    def test_float_marks_are_not_symbols(self):
        model = dataclasses.replace(noisy_majority_model(epsilon=0.0), batch_step=None)
        ts = simulate_discrete(TRIANGLE, np.array([0.0, 1.0, 1.0]), model, 2, seed=1)
        assert ts.paths.dtype == np.float64

    @pytest.mark.parametrize("bad", [-1, -2, 3, 5])
    @pytest.mark.parametrize("entry", ["replica_discrete", "replica_diffusion", "decay_pair"])
    def test_vertex_indices_out_of_range_raise(self, entry, bad):
        # -1 used to record vertex 2 of this 3-vertex graph; 5 died late with a bare IndexError
        g = Graph.from_edges(3, [(0, 1)])
        voter, sde = voter_model(), consensus_sde_model(sigma0=0.5)
        calls = {
            "replica_discrete": lambda: replica_paths_discrete(g, [0, 1, 1], voter, 2, 1, 2, [bad]),
            "replica_diffusion": lambda: replica_paths_diffusion(g, [0.0, 1.0, 1.0], sde, 0.2, 0.1, 1, 2,
                                                                 [0, bad]),
            "decay_pair": lambda: covariance_decay_profile(g, [0, 1, 1], voter, [([bad], [0], 1)],
                                                           lambda p: 0.0, 2, 100, 1),
        }
        with pytest.raises(ValueError, match=r"vertex index out of range \[0, 3\)"):
            calls[entry]()

    def test_marks_are_required_on_a_plain_graph(self):
        # used to die with IndexError: tuple index out of range
        for run in (lambda: simulate_discrete(TRIANGLE, None, voter_model(), 2, seed=1),
                    lambda: simulate(TRIANGLE, None, voter_model(), 2, 1),
                    lambda: simulate(TRIANGLE, None, consensus_sde_model(), 0.2, 1, dt=0.1)):
            with pytest.raises(ValueError, match="marks are required"):
                run()

    @pytest.mark.parametrize("batch", [False, True])
    def test_float_marks_replica_equals_its_single_run(self, batch):
        # replica_paths_discrete used to cast float marks and states to int64 (all zeros here)
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        marks = [0.25, 0.5, 0.75]
        model = DiscreteModel("drift", 2, lambda k, h, nb, u: h[-1] + u, lambda k, h, u: h[-1] + u,
                              (lambda k, cur, aux, u: cur + u) if batch else None)
        block = replica_paths_discrete(g, marks, model, 3, 5, 4, [0, 1, 2], replica_offset=2)
        assert block.dtype == np.float64
        for r in range(4):
            solo = simulate_discrete(g, marks, model, 3, 5, streams=2 * (r + 2))
            assert np.array_equal(block[r], solo.paths)
        assert not np.array_equal(block[0], block[1])

    @pytest.mark.parametrize("marks", [[0, 1], [0, 1, 1, 0], [[0, 1, 1]]])
    def test_marks_of_the_wrong_length_raise_in_every_engine(self, marks):
        # the replica engines used to fail inside numpy (a matmul or reshape error)
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        voter, sde = voter_model(), kuramoto_model(sigma0=0.5)
        fmarks = np.asarray(marks, dtype=np.float64)
        for run in (lambda: simulate_discrete(g, marks, voter, 2, 1),
                    lambda: replica_paths_discrete(g, marks, voter, 2, 1, 2, [0]),
                    lambda: simulate_diffusion(g, fmarks, sde, 0.2, 0.1, 1),
                    lambda: replica_paths_diffusion(g, fmarks, sde, 0.2, 0.1, 1, 2, [0])):
            with pytest.raises(ValueError, match="marks"):
                run()
