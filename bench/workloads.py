"""The benchmark's workloads: the paper's experiments as repeatable ops.

Each workload has a set-up (fixed inputs built once per run from the seed),
an op (one timed call chain into the package, inputs drawn from
``stream_key(seed, op_index)``), a sample count per completed op, and a
check run outside the timed window that validates the op's output and
returns a digest of its outputs.  See NOTES.md for why each one exists.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sparsedyn import dynamics, empirical, graphs, localtopo, rng, trees

RHO = trees.poisson_dist(2.0)
_DEG_TAG = 0x44454721  # degree-sequence draws
_CHECK_TAG = 0x43484B21  # which replica / vertex / limit sample a check looks at


class CheckFailed(AssertionError):
    """An op returned an output that its check rejects."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def poisson_degrees(n: int, key: int) -> np.ndarray:
    """I.i.d. Poisson(2) degrees capped below n, with an even sum."""
    deg = np.minimum(rng.generator(key, _DEG_TAG).poisson(2.0, n), n - 1)
    if deg.sum() % 2:
        deg[int(np.argmin(deg))] += 1
    return deg


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict  # sizes of a benchmark run
    quick: dict  # sizes of the quick smoke run
    setup: Callable  # (seed, size) -> state
    op: Callable  # (state, key, tracer) -> result
    samples: Callable  # (state) -> Monte Carlo samples per completed op
    check: Callable  # (state, key, result) -> digest; raises CheckFailed


# ---------------------------------------------------------------------------
# root_law: global empirical law on a configuration model against the root
# law of the unimodular Galton-Watson limit tree (exact: depth >= horizon)
# ---------------------------------------------------------------------------

_HORIZON = 4


@dataclass(frozen=True)
class RootLawState:
    n: int
    trees: int
    voter: dynamics.DiscreteModel
    init: Callable


def _root_law_setup(seed, size):
    return RootLawState(size["n"], size["trees"], dynamics.voter_model(2), empirical.bernoulli_init(0.5))


def _root_law_op(st: RootLawState, key, tracer):
    voter = tracer.model(st.voter)
    init = tracer.fn("empirical.init", st.init)
    g = graphs.gen_configuration_model(poisson_degrees(st.n, key), key)
    ts = dynamics.simulate_discrete(g, init(g, key), voter, _HORIZON, key)
    graph_law = empirical.global_empirical(ts)
    root_law = empirical.root_law_monte_carlo(
        empirical.ugw_forest_sampler(RHO, _HORIZON), init, voter, _HORIZON, st.trees, key
    )
    return graph_law, root_law, empirical.tv_discrete(graph_law, root_law)


def tv_tolerance(atoms: int, n_a: int, n_b: int) -> float:
    """Twice the bound 0.5 * sqrt(atoms / n) on the mean TV between an
    empirical law of n samples and its limit, summed over both sides."""
    return 2 * 0.5 * (math.sqrt(atoms / n_a) + math.sqrt(atoms / n_b))


def _root_law_check(st: RootLawState, key, result):
    graph_law, root_law, tv = result
    _require(graph_law.count == st.n and root_law.count == st.trees, "sample counts")
    for m in (graph_law, root_law):
        _require(m.samples.shape[1] == _HORIZON + 1, "path length")
        _require(bool(np.all((m.samples == 0) | (m.samples == 1))), "binary states")
    atoms = len({row.tobytes() for m in (graph_law, root_law) for row in m.samples})
    tol = tv_tolerance(atoms, st.n, st.trees)
    _require(0.0 <= tv <= tol, f"tv {tv} above tolerance {tol}")
    return _digest(graph_law.samples, root_law.samples)


# ---------------------------------------------------------------------------
# decay / sde_decay: covariance of a functional of two vertices against their
# graph distance on one random 3-regular graph
# ---------------------------------------------------------------------------

_DISTANCES = range(1, 7)


@dataclass(frozen=True)
class DecayState:
    graph: graphs.Graph
    pairs: list
    needed: list
    replicas: int
    model: object
    init: Callable
    f: Callable


def _decay_pairs(seed, n):
    g = graphs.gen_random_regular(n, 3, seed)
    dist = dynamics.distances_to(g, [0])
    gen = rng.generator(seed, 0x50414952)
    pairs = [([0], [int(gen.choice(np.flatnonzero(dist == d)))], d) for d in _DISTANCES]
    needed = sorted({v for a, b, _ in pairs for v in (*a, *b)})
    return g, pairs, needed


def _mean_final(block):
    return float(block[-1].mean())


def _mean_cos_final(block):
    return float(np.cos(block[-1]).mean())


def _decay_setup(seed, size):
    g, pairs, needed = _decay_pairs(seed, size["n"])
    return DecayState(g, pairs, needed, size["replicas"], dynamics.noisy_majority_model(0.1),
                      empirical.bernoulli_init(0.5), _mean_final)


def _sde_setup(seed, size):
    g, pairs, needed = _decay_pairs(seed, size["n"])
    return DecayState(g, pairs, needed, size["replicas"], dynamics.kuramoto_model(1.0, 0.5),
                      empirical.uniform_box_init(-math.pi, math.pi), _mean_cos_final)


_STEPS = 8
_SDE_HORIZON, _SDE_DT = 2.0, 0.1


def _decay_op(st: DecayState, key, tracer):
    marks = tracer.fn("empirical.init", st.init)(st.graph, key)
    f = tracer.fn("dynamics.functional", st.f)
    discrete = isinstance(st.model, dynamics.DiscreteModel)
    horizon = _STEPS if discrete else _SDE_HORIZON
    profile = dynamics.covariance_decay_profile(
        st.graph, marks, tracer.model(st.model), st.pairs, f, horizon, st.replicas, key,
        dt=None if discrete else _SDE_DT,
    )
    return marks, profile


def _decay_check(st: DecayState, key, result):
    marks, profile = result
    discrete = isinstance(st.model, dynamics.DiscreteModel)
    _require(list(profile.distances) == list(_DISTANCES), "distances")
    bound = 0.25 if discrete else 1.0  # f takes values in [0, 1] resp. [-1, 1]
    _require(bool(np.all(np.isfinite(profile.estimates))), "finite estimates")
    _require(bool(np.all(np.abs(profile.estimates) <= bound)), "estimates within bound")
    _require(bool(np.all(profile.ci_half_widths >= 0)), "nonnegative CI")
    # one sampled replica equals the single run on its noise stream 2r
    r = int(rng.generator(key, _CHECK_TAG).integers(0, st.replicas))
    if discrete:
        rep = dynamics.replica_paths_discrete(
            st.graph, marks, st.model, _STEPS, key, 1, st.needed, replica_offset=r)[0]
        solo = dynamics.simulate_discrete(st.graph, marks, st.model, _STEPS, key, streams=2 * r)
        _require(np.array_equal(rep, solo.paths[:, st.needed]), f"replica {r} differs from its single run")
    else:
        rep = dynamics.replica_paths_diffusion(
            st.graph, marks, st.model, _SDE_HORIZON, _SDE_DT, key, 1, st.needed, replica_offset=r)[0]
        solo = dynamics.simulate_diffusion(
            st.graph, marks, st.model, _SDE_HORIZON, _SDE_DT, key, streams=2 * r)
        _require(np.allclose(rep, solo.paths[:, st.needed, 0], rtol=0, atol=1e-9),
                 f"replica {r} differs from its single run")
    # estimates are numpy reductions in a fixed order: their bits are hash-seed free
    return _digest(profile.distances, profile.estimates, profile.ci_half_widths)


# ---------------------------------------------------------------------------
# lw_balls / lw_regular: radius-2 ball-type histogram of a random graph
# against a Monte Carlo histogram of its local limit tree
# ---------------------------------------------------------------------------

_RADIUS = 2


@dataclass(frozen=True)
class BallsState:
    n: int
    limit_samples: int
    graph: Callable  # (n, key) -> Graph
    limit: Callable  # key -> RootedGraph


def _lw_balls_setup(seed, size):
    return BallsState(
        size["n"], size["limit_samples"],
        lambda n, key: graphs.gen_configuration_model(poisson_degrees(n, key), key),
        lambda key: trees.sample_ugw(RHO, _RADIUS, key),
    )


def _lw_regular_setup(seed, size):
    three = trees.delta_dist(3)
    return BallsState(
        size["n"], size["limit_samples"],
        lambda n, key: graphs.gen_random_regular(n, 3, key),
        lambda key: trees.sample_ugw(three, _RADIUS, key),
    )


def _balls_op(st: BallsState, key, tracer):
    """``lw_deficiency(g, st.limit, r, limit_samples, key)`` step by step, so
    that the check can read both histograms instead of recomputing them."""
    g = st.graph(st.n, key)
    hist = localtopo.neighborhood_histogram(g, _RADIUS)
    draws = (st.limit(rng.stream_key(key, i)) for i in range(st.limit_samples))
    limit = localtopo.histogram_of_samples(draws, _RADIUS)
    return g, hist, limit, localtopo.histogram_tv(hist, limit)


def _balls_check(st: BallsState, key, result):
    g, hist, limit, tv = result
    _require(0.0 <= tv <= 1.0, f"tv {tv} outside [0, 1]")
    _require(hist.total == g.vertex_count == sum(hist.counts.values()), "histogram total")
    _require(limit.total == st.limit_samples == sum(limit.counts.values()), "limit histogram total")
    # a sampled vertex with a tree ball: the code the histogram counted for it
    # is the canonical code of its ball cut from its component
    gen = rng.generator(key, _CHECK_TAG)
    for v in map(int, gen.permutation(g.vertex_count)):
        code = localtopo._ball_code_from(g, v, _RADIUS)
        if code.startswith(b"("):
            ball = graphs.ball(graphs.component_of(g, v), _RADIUS)
            _require(code == localtopo.canonical_code(ball) and code in hist.counts,
                     f"ball code of vertex {v}")
            break
    # and one limit sample, drawn as the op drew it
    j = int(gen.integers(0, st.limit_samples))
    tree = st.limit(rng.stream_key(key, j))
    (code,) = localtopo.histogram_of_samples([tree], _RADIUS).counts
    _require(code == localtopo.canonical_code(graphs.ball(tree, _RADIUS)) and code in limit.counts,
             f"ball code of limit sample {j}")
    codes = sorted(hist.counts)
    limit_codes = sorted(limit.counts)
    return _digest(np.frombuffer(b"|".join(codes + limit_codes), dtype=np.uint8),
                   np.array([hist.counts[c] for c in codes] + [limit.counts[c] for c in limit_codes],
                            dtype=np.int64))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("root_law", {"n": 2500, "trees": 2500}, {"n": 300, "trees": 300},
                 _root_law_setup, _root_law_op, lambda st: st.trees, _root_law_check),
        Workload("decay", {"n": 2000, "replicas": 300}, {"n": 200, "replicas": 100},
                 _decay_setup, _decay_op, lambda st: st.replicas, _decay_check),
        Workload("sde_decay", {"n": 2000, "replicas": 100}, {"n": 200, "replicas": 100},
                 _sde_setup, _decay_op, lambda st: st.replicas, _decay_check),
        Workload("lw_regular", {"n": 2000, "limit_samples": 500}, {"n": 200, "limit_samples": 50},
                 _lw_regular_setup, _balls_op, lambda st: st.n + st.limit_samples, _balls_check),
        Workload("lw_balls", {"n": 1000, "limit_samples": 1000}, {"n": 200, "limit_samples": 50},
                 _lw_balls_setup, _balls_op, lambda st: st.n + st.limit_samples, _balls_check),
    )
}
