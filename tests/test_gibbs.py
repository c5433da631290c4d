import math

import numpy as np
import pytest

from sparsedyn.gibbs import (
    GibbsSpec,
    boundary_of,
    conditional_kernel,
    exact_gibbs,
    glauber_marginals,
    glauber_sample,
    glauber_trace,
    iid_sample,
    log_unnormalized_weight,
    unnormalized_weight,
)
from sparsedyn.graphs import Graph, gen_erdos_renyi, gen_lattice_box

EDGE = Graph.from_edges(2, [(0, 1)])
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def product_spec(lam):
    return GibbsSpec.independent(lam)


class TestWeights:
    def test_psi_one_gives_product(self):
        spec = product_spec([0.3, 0.7])
        g = PATH3
        for c in ([0, 1, 0], [1, 1, 1], [0, 0, 0]):
            expect = math.prod(spec.lam[x] for x in c)
            assert abs(unnormalized_weight(g, spec, c) - expect) < 1e-14

    def test_empty_graph(self):
        spec = product_spec([0.25, 0.75])
        g = Graph.from_edges(3, [])
        assert abs(unnormalized_weight(g, spec, [1, 0, 1]) - 0.75 * 0.25 * 0.75) < 1e-15

    def test_ising_edge_ratio(self):
        beta = 0.7
        spec = GibbsSpec.ising(beta)
        w_pp = unnormalized_weight(EDGE, spec, [1, 1])
        w_pm = unnormalized_weight(EDGE, spec, [1, 0])
        assert abs(w_pp / w_pm - math.exp(2 * beta)) < 1e-12

    def test_zero_weight_symbol(self):
        spec = GibbsSpec((0, 1), np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5]))
        assert unnormalized_weight(EDGE, spec, [0, 1]) == 0.0
        assert log_unnormalized_weight(EDGE, spec, [0, 1]) == -math.inf


class TestExactGibbs:
    def test_single_vertex_is_lambda(self):
        spec = product_spec([0.2, 0.8])
        dist = exact_gibbs(Graph.from_edges(1, []), spec)
        assert np.allclose(dist.marginal(0), [0.2, 0.8])

    def test_psi_one_product_measure(self):
        spec = product_spec([0.4, 0.6])
        dist = exact_gibbs(PATH3, spec)
        for c in dist.configurations:
            expect = math.prod(spec.lam[x] for x in c)
            assert abs(dist.probability_of(c) - expect) < 1e-12

    def test_single_edge_ising(self):
        dist = exact_gibbs(EDGE, GibbsSpec.ising(0.5))
        # frozen oracle: e^{0.5} / (2 e^{0.5} + 2 e^{-0.5})
        assert abs(dist.probability_of([1, 1]) - 0.365529289315003) < 1e-12
        # symbol indices outside [0, 2) have no row and no mass
        assert dist.probability_of([0, 2]) == 0.0 and dist.probability_of([-1, 1]) == 0.0

    def test_state_cap(self):
        with pytest.raises(ValueError):
            exact_gibbs(gen_lattice_box(2, 2).graph, GibbsSpec.ising(0.1))

    def test_probabilities_sum_to_one(self):
        dist = exact_gibbs(PATH3, GibbsSpec.ising(0.3, field_plus=0.6))
        assert abs(float(dist.probabilities.sum()) - 1.0) < 1e-12


class TestConditionalKernel:
    def test_isolated_vertex_is_lambda(self):
        g = Graph.from_edges(3, [(0, 1)])
        spec = product_spec([0.3, 0.7])
        ker = conditional_kernel(g, spec, [2], {})
        assert np.allclose(ker.probabilities, [0.3, 0.7])

    def test_psi_one_ignores_boundary(self):
        spec = product_spec([0.3, 0.7])
        for b in (0, 1):
            ker = conditional_kernel(PATH3, spec, [1], {0: b, 2: b})
            assert np.allclose(ker.probabilities, [0.3, 0.7])

    def test_single_site_ising(self):
        beta = 0.4
        ker = conditional_kernel(EDGE, GibbsSpec.ising(beta), [0], {1: 1})
        expect = math.exp(beta) / (math.exp(beta) + math.exp(-beta))
        assert abs(ker.probabilities[1] - expect) < 1e-12

    def test_boundary_must_match(self):
        with pytest.raises(ValueError):
            conditional_kernel(PATH3, GibbsSpec.ising(0.1), [1], {0: 0})

    def test_full_region_reproduces_exact(self):
        spec = GibbsSpec.ising(0.35, field_plus=0.65)
        full = conditional_kernel(PATH3, spec, [0, 1, 2], {})
        dist = exact_gibbs(PATH3, spec)
        assert np.allclose(full.probabilities, dist.probabilities, atol=1e-12)


    @pytest.mark.parametrize("which", ["ising_triangle", "potts_er9"])
    def test_full_region_equals_exact_bitwise(self, which):
        if which == "ising_triangle":
            g, spec = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), GibbsSpec.ising(0.3)
        else:
            gen = np.random.default_rng(5)
            psi = gen.random((3, 3))
            lam = gen.random(3)
            g = gen_erdos_renyi(9, 0.35, 4)
            spec = GibbsSpec((0, 1, 2), psi + psi.T, lam / lam.sum())
        full = conditional_kernel(g, spec, range(g.vertex_count), {})
        dist = exact_gibbs(g, spec)
        assert np.array_equal(full.configurations, dist.configurations)
        assert np.array_equal(full.probabilities, dist.probabilities)
        assert full.log_z == dist.log_z

    def test_zero_mass_raises(self):
        # both used to return NaN probabilities and log_z = nan: psi forbids
        # equal neighbors, and a triangle cannot be properly 2-colored
        spec = GibbsSpec((0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
        tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="zero mass"):
            exact_gibbs(tri, spec)
        with pytest.raises(ValueError, match="zero mass"):
            conditional_kernel(tri, spec, [0, 1, 2], {})
        with pytest.raises(ValueError, match="zero mass"):
            conditional_kernel(PATH3, spec, [1], {0: 0, 2: 1})


def brute_conditional_from_exact(dist, region, complement_values):
    """Oracle: condition the exact distribution on the full complement."""
    configs = dist.configurations
    mask = np.ones(len(configs), dtype=bool)
    for v, val in complement_values.items():
        mask &= configs[:, v] == val
    sub = configs[mask]
    probs = dist.probabilities[mask]
    probs = probs / probs.sum()
    out = {}
    for row, p in zip(sub, probs):
        key = tuple(int(row[v]) for v in region)
        out[key] = out.get(key, 0.0) + float(p)
    return out


class TestMarkovProperty:
    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 2), (2, 3), (3, 4)],
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)],
        ],
    )
    def test_conditional_depends_only_on_boundary(self, edges):
        g = Graph.from_edges(5, edges)
        spec = GibbsSpec.ising(0.45, field_plus=0.6)
        dist = exact_gibbs(g, spec)
        region = [1, 2]
        bset = boundary_of(g, region)
        complement = [v for v in range(5) if v not in region]
        for bits in range(2 ** len(complement)):
            values = {v: (bits >> i) & 1 for i, v in enumerate(complement)}
            oracle = brute_conditional_from_exact(dist, region, values)
            ker = conditional_kernel(g, spec, region, {v: values[v] for v in bset})
            for row, p in zip(ker.configurations, ker.probabilities):
                key = tuple(int(x) for x in row)
                assert abs(oracle.get(key, 0.0) - float(p)) < 1e-12


class TestDetailedBalance:
    def test_single_site_moves(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        spec = GibbsSpec.ising(0.5, field_plus=0.55)
        dist = exact_gibbs(g, spec)
        for idx in range(len(dist.configurations)):
            c = dist.configurations[idx]
            pc = float(dist.probabilities[idx])
            for v in range(5):
                ker = conditional_kernel(g, spec, [v], {u: int(c[u]) for u in g.adjacency[v]})
                c2 = np.array(c, dtype=np.int64)
                c2[v] = 1 - c2[v]
                p_c2 = dist.probability_of(c2)
                k_fwd = float(ker.probabilities[c2[v]])
                k_bwd = float(ker.probabilities[c[v]])
                assert abs(pc * k_fwd - p_c2 * k_bwd) < 1e-12


class TestGlauber:
    def test_iid_case_matches_lambda(self):
        spec = product_spec([0.35, 0.65])
        g = Graph.from_edges(2, [])
        marg = glauber_marginals(g, spec, sweeps=4000, burn_in=10, seed=5)
        assert np.allclose(marg[:, 1], 0.65, atol=0.03)

    def test_disconnected_independent(self):
        spec = GibbsSpec.ising(0.8, field_plus=0.5)
        g = Graph.from_edges(2, [])
        trace = glauber_trace(g, spec, sweeps=6000, burn_in=50, seed=7)
        a = 2 * trace[:, 0] - 1
        b = 2 * trace[:, 1] - 1
        # independent symmetric spins: correlation near zero
        assert abs(float(np.mean(a * b)) - float(np.mean(a)) * float(np.mean(b))) < 0.05

    def test_matches_exact_on_cycle(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        spec = GibbsSpec.ising(0.6, field_plus=0.7)
        dist = exact_gibbs(g, spec)
        exact = np.array([dist.marginal(v)[1] for v in range(4)])
        marg = glauber_marginals(g, spec, sweeps=30_000, burn_in=300, seed=11)
        assert np.max(np.abs(marg[:, 1] - exact)) < 0.02

    def test_sample_deterministic(self):
        g = PATH3
        spec = GibbsSpec.ising(0.4)
        a = glauber_sample(g, spec, sweeps=50, burn_in=10, seed=3)
        b = glauber_sample(g, spec, sweeps=50, burn_in=10, seed=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("run", [glauber_sample, glauber_trace, glauber_marginals])
    def test_zero_sweeps_rejected(self, run):
        # glauber_marginals used to report the burn-in state as its one sample
        with pytest.raises(ValueError, match="sweeps"):
            run(PATH3, GibbsSpec.ising(0.4), 0, 10, 3)


class TestIidSample:
    def test_degenerate_laws(self):
        g = Graph.from_edges(6, [])
        assert np.all(iid_sample(g, [0.0, 1.0], seed=1) == 1)
        assert np.all(iid_sample(g, [1.0, 0.0], seed=1) == 0)

    def test_binomial_mean(self):
        g = Graph.from_edges(100_000, [])
        x = iid_sample(g, [0.5, 0.5], seed=9)
        sigma = 0.5 / math.sqrt(len(x))
        assert abs(float(x.mean()) - 0.5) < 3 * sigma


class TestSpec:
    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GibbsSpec((0, 1), np.array([[1.0, 2.0], [0.5, 1.0]]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            GibbsSpec((0, 1), np.ones((2, 2)), np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            GibbsSpec((0, 1), np.zeros((2, 2)), np.array([0.5, 0.5]))
