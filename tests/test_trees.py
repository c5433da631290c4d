import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import sparsedyn
from sparsedyn import rng
from sparsedyn.localtopo import canonical_code
from sparsedyn.graphs import gen_regular_tree
from sparsedyn.trees import (
    DegreeDist,
    degree_dist,
    delta_dist,
    dual_alpha,
    dual_distribution,
    duality_function,
    extinction_root,
    poisson_dist,
    poisson_dual,
    population_survives,
    sample_forest,
    sample_gw,
    sample_ugw,
    size_biased,
    survival_prob,
    theta,
)

# Frozen oracle values (fixed-point iteration on s = 1 - exp(-theta s), and
# bisection on t exp(-t) = theta exp(-theta) over (0, 1)).
SURVIVAL = {1.5: 0.582811643866, 2.0: 0.796812130020, 3.0: 0.940479790707}
# at theta = 50 the root t = theta e^{-theta} e^t has e^t = 1 in double precision
POISSON_DUAL = {1.5: 0.625782534201, 2.0: 0.406375739960, 3.0: 0.178560627878, 50.0: 50.0 * math.exp(-50.0)}


def tv(p, q):
    n = max(len(p), len(q))
    pp = np.zeros(n)
    qq = np.zeros(n)
    pp[: len(p)] = p
    qq[: len(q)] = q
    return 0.5 * float(np.abs(pp - qq).sum())


def chain_tree_size(root_dist, child_dist, seed, depth_cap=200, size_budget=4000):
    """Total size of one sampled tree via its generation-size chain.

    Returns None when the tree is treated as infinite (still alive at the
    depth cap or past the size budget).
    """
    gen = rng.generator(seed, 0x54455354)
    cdf_root = np.cumsum(root_dist.probabilities)
    cdf_child = np.cumsum(child_dist.probabilities)
    z, total = 1, 1
    for depth in range(depth_cap):
        cdf = cdf_root if depth == 0 else cdf_child
        if z == 0:
            return total
        z = int(np.searchsorted(cdf, gen.random(z), side="right").sum())
        total += z
        if total > size_budget:
            return None
    return None if z > 0 else total


class TestDegreeDist:
    def test_poisson_truncation_normalized(self):
        rho = poisson_dist(2.0)
        assert abs(float(rho.probabilities.sum()) - 1.0) < 1e-14
        assert abs(rho.mean() - 2.0) < 1e-10

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            DegreeDist(np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            DegreeDist(np.array([1.5, -0.5]))

    def test_nan_laws_rejected(self):
        # NaN entries passed every check, and sample_forest then drew zero children
        with pytest.raises(ValueError, match="finite"):
            DegreeDist(np.array([np.nan, np.nan]))
        with pytest.raises(ValueError, match="finite"):
            degree_dist([0.5, np.nan, 0.5])
        for theta_value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                poisson_dist(theta_value)

    def test_mapping_constructor(self):
        rho = degree_dist({0: 0.5, 2: 0.5})
        assert list(rho.probabilities) == [0.5, 0.0, 0.5]


class TestSizeBiased:
    def test_delta(self):
        assert list(size_biased(delta_dist(4)).probabilities) == [0.0, 0.0, 0.0, 1.0]

    def test_poisson_invariance(self):
        rho = poisson_dist(1.7)
        assert tv(size_biased(rho).probabilities, rho.probabilities) < 1e-10

    def test_half_half(self):
        hat = size_biased(degree_dist({0: 0.5, 2: 0.5}))
        assert list(hat.probabilities) == [0.0, 1.0]

    def test_pgf_identity(self):
        for rho in (poisson_dist(1.7), degree_dist({0: 0.2, 1: 0.3, 3: 0.5})):
            hat = size_biased(rho)
            m = rho.mean()
            for s in np.linspace(0.0, 1.0, 21):
                assert abs(hat.pgf(s) - rho.pgf_derivative(s) / m) < 1e-10


class TestTheta:
    def test_delta(self):
        assert theta(delta_dist(5)) == 4.0

    def test_poisson(self):
        assert abs(theta(poisson_dist(1.3)) - 1.3) < 1e-9

    def test_half_half(self):
        assert abs(theta(degree_dist({0: 0.5, 2: 0.5})) - 1.0) < 1e-15


class TestSamplers:
    def test_delta0_single_vertex(self):
        rg = sample_ugw(delta_dist(0), depth=3, seed=1)
        assert rg.vertex_count == 1 and not rg.truncated

    def test_delta3_is_regular_tree(self):
        rg = sample_ugw(delta_dist(3), depth=2, seed=1)
        assert rg.vertex_count == 10
        assert canonical_code(rg) == canonical_code(gen_regular_tree(3, 2))

    def test_gw_delta2_depth2(self):
        rg = sample_gw(delta_dist(2), depth=2, seed=1)
        assert rg.vertex_count == 7

    def test_root_degree_chi_square(self):
        rho = poisson_dist(2.0)
        forest = sample_forest(rho, size_biased(rho), depth=1, count=100_000, seed=3)
        deg = np.asarray(forest.graph.degrees)[forest.roots]
        kmax = 12
        obs = np.bincount(np.minimum(deg, kmax), minlength=kmax + 1)
        pmf = np.array([math.exp(-2.0) * 2.0**k / math.factorial(k) for k in range(kmax)])
        probs = np.append(pmf, 1.0 - pmf.sum())
        res = stats.chisquare(obs, probs * obs.sum())
        assert res.pvalue > 1e-3

    def test_determinism(self):
        a = sample_ugw(poisson_dist(1.5), depth=4, seed=42)
        b = sample_ugw(poisson_dist(1.5), depth=4, seed=42)
        assert a.graph.adjacency == b.graph.adjacency

    def test_budget_truncation_flag(self):
        rg = sample_ugw(delta_dist(3), depth=12, seed=1, vertex_budget=100)
        assert rg.truncated
        assert rg.vertex_count <= 100

    def test_forest_layout(self):
        forest = sample_forest(poisson_dist(1.0), poisson_dist(1.0), depth=3, count=50, seed=9)
        assert list(forest.roots) == list(range(50))
        forest.graph.validate()
        assert forest.truncated.shape == (50,) and not forest.truncated.any()


class TestSurvival:
    def test_subcritical_and_critical_zero(self):
        assert survival_prob(poisson_dist(0.5)) == 0.0
        assert survival_prob(poisson_dist(1.0)) == 0.0
        assert survival_prob(degree_dist({0: 0.4, 1: 0.3, 2: 0.3})) == 0.0

    def test_delta2_always_survives(self):
        assert survival_prob(delta_dist(2)) == 1.0

    def test_degenerate_line_law(self):
        # theta = 1 but every non-root vertex has exactly one child, so the
        # tree is infinite exactly when the root branches at all
        assert survival_prob(degree_dist({0: 0.5, 2: 0.5})) == 0.5

    def test_theta_one_up_to_rounding(self):
        # theta is exactly 1 but evaluates to 1.0000000000000002; the monotone
        # fixed-point iteration crawled to the double root and raised after 1e5 steps
        rho = degree_dist([0.6, 0.3, 0, 0.1])
        assert theta(rho) > 1.0
        start = time.perf_counter()
        assert abs(survival_prob(rho)) < 1e-9
        assert abs(extinction_root(rho) - 1.0) < 1e-9
        assert time.perf_counter() - start < 1.0

    def test_barely_supercritical(self):
        # size-biased law a + (1 - a) q^2 has extinction root a / (1 - a) and
        # theta = 2(1 - a); monotone iteration contracts by only 1 - 2e-7 per step here
        a = 0.5 - 1e-7
        rho = degree_dist({1: a / (a + (1 - a) / 3), 3: (1 - a) / 3 / (a + (1 - a) / 3)})
        q = a / (1 - a)
        assert abs(extinction_root(rho) - q) < 1e-12
        assert abs(survival_prob(rho) - (1.0 - rho.pgf(q))) < 1e-12

    @pytest.mark.parametrize("th", [1.5, 2.0, 3.0])
    def test_poisson_fixed_point(self, th):
        assert abs(survival_prob(poisson_dist(th)) - SURVIVAL[th]) < 1e-9

    def test_simulation_agreement(self):
        rho = poisson_dist(2.0)
        alive = population_survives(rho, size_biased(rho), depth=25, count=3000, seed=7)
        assert abs(float(alive.mean()) - SURVIVAL[2.0]) < 0.03


class TestDuality:
    def test_h_endpoint_identities(self):
        for rho in (poisson_dist(2.0), degree_dist({0: 0.2, 1: 0.2, 3: 0.6})):
            m = rho.mean()
            assert abs(float(duality_function(rho, 0.0))) < 1e-12
            assert abs(float(duality_function(rho, m / 2.0))) < 1e-12

    def test_alpha_matches_extinction_root(self):
        # independent route: beta = sqrt(1 - 2 alpha / m) must equal the
        # smallest fixed point of the size-biased pgf
        for rho in (poisson_dist(2.0), degree_dist({0: 0.2, 1: 0.2, 3: 0.6})):
            alpha = dual_alpha(rho)
            beta = math.sqrt(1.0 - 2.0 * alpha / rho.mean())
            assert abs(beta - extinction_root(rho)) < 1e-9

    def test_subcritical_rejected(self):
        with pytest.raises(ValueError):
            dual_alpha(poisson_dist(0.9))

    @pytest.mark.parametrize("th", [1.5, 2.0, 3.0, 50.0])
    def test_poisson_dual_values(self, th):
        td = poisson_dual(th)
        target = th * math.exp(-th)
        assert td == pytest.approx(POISSON_DUAL[th], rel=1e-10, abs=0.0)
        assert td * math.exp(-td) == pytest.approx(target, rel=1e-12, abs=0.0)

    def test_poisson_dual_continuity_at_critical(self):
        assert abs(poisson_dual(1.001) - 1.0) < 0.05
        with pytest.raises(ValueError):
            poisson_dual(1.0)

    def test_theta_beta_identity(self):
        for th in (1.5, 2.0, 3.0):
            rho = poisson_dist(th)
            report = dual_distribution(rho)
            assert abs(th * report.beta - poisson_dual(th)) < 1e-8

    def test_dual_of_poisson_is_poisson(self):
        report = dual_distribution(poisson_dist(2.0))
        td = poisson_dual(2.0)
        k = np.arange(len(report.dual.probabilities))
        pmf = np.exp(-td) * td**k / np.array([math.factorial(int(i)) for i in k])
        assert tv(report.dual.probabilities, pmf) < 1e-8
        assert report.dual_theta <= 1.0 + 1e-8

    def test_survival_one_rejected(self):
        with pytest.raises(ValueError):
            dual_distribution(delta_dist(3))

    def test_poisson_15_report(self):
        report = dual_distribution(poisson_dist(1.5))
        assert abs(report.survival - SURVIVAL[1.5]) < 1e-9
        assert report.dual_theta < 1.0

    def test_three_point_law_normalization(self):
        rho = degree_dist({0: 0.2, 1: 0.2, 3: 0.6})
        assert abs(theta(rho) - 1.8) < 1e-12
        report = dual_distribution(rho)  # internal 1e-8 normalization assert
        assert abs(float(report.dual.probabilities.sum()) - 1.0) < 1e-8
        assert report.dual_theta <= 1.0 + 1e-8

    def test_report_json_roundtrip(self):
        report = dual_distribution(poisson_dist(2.0))
        assert f"{report.survival:.5f}" == "0.79681"

    def test_size_distribution_duality_ks(self):
        # law of the supercritical tree conditioned on extinction matches the
        # dual tree: compare total-size samples via independent size chains
        rho = poisson_dist(2.0)
        hat = size_biased(rho)
        report = dual_distribution(rho)
        dual_hat = size_biased(report.dual)
        finite_sizes = []
        for i in range(4000):
            size = chain_tree_size(rho, hat, seed=rng.stream_key(11, i))
            if size is not None:
                finite_sizes.append(size)
        dual_sizes = []
        for i in range(4000):
            size = chain_tree_size(report.dual, dual_hat, seed=rng.stream_key(13, i))
            if size is not None:
                dual_sizes.append(size)
        a = np.array([s for s in finite_sizes if s <= 50])
        b = np.array([s for s in dual_sizes if s <= 50])
        assert len(a) > 500 and len(b) > 2000
        res = stats.ks_2samp(a, b)
        assert res.statistic < 0.06


class TestPoissonDist:
    def test_theta_two_is_pinned(self):
        # the benchmark's root-law digests depend on these exact bits
        expected = [
            0.13533528323670035, 0.2706705664734007, 0.2706705664734007, 0.1804470443156005,
            0.09022352215780025, 0.0360894088631201, 0.012029802954373366, 0.00343708655839239,
            0.0008592716395980975, 0.00019094925324402166, 3.818985064880433e-05,
            6.943609208873515e-06, 1.157268201478919e-06, 1.7804126176598756e-07,
            2.543446596656965e-08, 3.3912621288759533e-09, 4.2390776610949416e-10,
            4.98715018952346e-11, 5.5412779883594e-12,
        ]
        assert poisson_dist(2.0).probabilities.tolist() == expected

    def test_large_theta_and_tiny_tolerance_return_promptly(self):
        # exp(-800) underflows to 0, and a tail tolerance below float resolution
        # was never met: both looped forever.  A child process turns a hang
        # into a failure instead of a stalled suite.
        code = (
            "import numpy as np; from sparsedyn.trees import poisson_dist\n"
            "for t, tol in ((700.0, 1e-12), (708.5, 1e-12), (745.5, 1e-12), (800.0, 1e-12),"
            " (2000.0, 1e-12), (30.0, 1e-30)):\n"
            "    d = poisson_dist(t, tol); k = np.arange(d.k_max + 1)\n"
            "    print(t, d.mean(), float(np.dot((k - t) ** 2, d.probabilities)), d.k_max)\n"
            "try:\n    poisson_dist(2e6)\nexcept ValueError as exc:\n    print(exc)\n"
        )
        src = str(Path(sparsedyn.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        *lines, cap = out.splitlines()
        assert "maximum" in cap
        for line in lines:
            t, mean, var, k_max = (float(x) for x in line.split())
            assert abs(mean - t) < 1e-6 * t and abs(var - t) < 1e-6 * t
            assert t < k_max < t + 12 * t**0.5 + 20
