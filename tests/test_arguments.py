"""Count and index arguments across the package: every count goes through
``graphs._check_whole`` and every vertex, stream or symbol array through
``graphs._check_indices``, so nothing is truncated silently."""

import re

import numpy as np
import pytest

from sparsedyn import localtopo
from sparsedyn.dynamics import (
    consensus_sde_model,
    covariance_decay_profile,
    distances_to,
    replica_paths_diffusion,
    replica_paths_discrete,
    simulate_discrete,
    voter_model,
)
from sparsedyn.empirical import (
    bernoulli_init,
    component_empirical,
    component_functional_distribution,
    constant_init,
    fixed_graph_sampler,
    giant_fraction,
    root_law_monte_carlo,
    shift_average,
)
from sparsedyn.gibbs import (
    GibbsSpec,
    boundary_of,
    conditional_kernel,
    exact_gibbs,
    glauber_trace,
    log_unnormalized_weight,
)
from sparsedyn.graphs import (
    Graph,
    MarkedGraph,
    RootedGraph,
    ball,
    component_of,
    gen_canopy_truncation,
    gen_configuration_model,
    gen_erdos_renyi,
    gen_gnm,
    gen_lattice_box,
    gen_random_regular,
    gen_regular_tree,
)
from sparsedyn.localtopo import (
    d_star_marked,
    d_star_unmarked,
    histogram_of_samples,
    lw_deficiency,
    neighborhood_histogram,
    two_root_independence_gap,
)
from sparsedyn.trees import delta_dist, population_survives, sample_forest

K2 = Graph.from_edges(2, [(0, 1)])
SPEC = GibbsSpec.ising(0.3)
RHO = delta_dist(2)
VOTER = voter_model()
SDE = consensus_sde_model(sigma0=0.5)
ONE_VERTEX = fixed_graph_sampler(RootedGraph(Graph(((),)), 0))
LINE = gen_lattice_box(1, 2).graph  # the path -2..2
LINE_RUN = simulate_discrete(LINE, np.zeros(5, dtype=np.int64), VOTER, 1, 1)
MARKED_K2 = MarkedGraph(RootedGraph(K2, 0), np.array([0, 1]))


def mean(block):
    return float(np.mean(block))


# (argument, call with the value, name the error gives, lowest value, a valid value)
COUNTS = [
    ("gen_erdos_renyi.n", lambda x: gen_erdos_renyi(x, 0.5, 1), "n", 1, 4),
    ("gen_gnm.n", lambda x: gen_gnm(x, 1, 1), "n", 1, 3),
    ("gen_gnm.m", lambda x: gen_gnm(4, x, 1), "m", 0, 2),  # named "m=<value>"
    ("gen_configuration_model.max_pairing_attempts",
     lambda x: gen_configuration_model([1, 1], 1, max_pairing_attempts=x), "max_pairing_attempts", 0, 3),
    ("gen_random_regular.n", lambda x: gen_random_regular(x, 1, 1), "n", 1, 4),
    ("gen_random_regular.k", lambda x: gen_random_regular(4, x, 1), "k", 0, 1),
    ("gen_lattice_box.dim", lambda x: gen_lattice_box(x, 1), "dim", 1, 2),
    ("gen_lattice_box.n", lambda x: gen_lattice_box(2, x), "n", 0, 1),
    ("gen_regular_tree.k", lambda x: gen_regular_tree(x, 2), "k", 2, 3),
    ("gen_regular_tree.height", lambda x: gen_regular_tree(3, x), "height", 0, 2),
    ("gen_canopy_truncation.d", lambda x: gen_canopy_truncation(x, 2, 1), "d", 3, 3),
    ("gen_canopy_truncation.levels", lambda x: gen_canopy_truncation(3, x, 1), "levels", 1, 2),
    ("gen_canopy_truncation.base_width", lambda x: gen_canopy_truncation(3, 2, x), "base_width", 1, 2),
    ("gen_canopy_truncation.root_level",
     lambda x: gen_canopy_truncation(3, 2, 1, root_level=x), "root_level", 0, 1),
    ("Graph.from_edges.n", lambda x: Graph.from_edges(x, []), "n", 0, 3),
    ("ball.k", lambda x: ball(RootedGraph(K2, 0), x), "radius", 0, 1),
    ("delta_dist.k", delta_dist, "k", 0, 3),
    ("sample_forest.depth", lambda x: sample_forest(RHO, RHO, x, 2, 1), "depth", 0, 2),
    ("sample_forest.count", lambda x: sample_forest(RHO, RHO, 2, x, 1), "count", 1, 2),
    ("sample_forest.vertex_budget",
     lambda x: sample_forest(RHO, RHO, 2, 2, 1, vertex_budget=x), "vertex_budget", 1, 5),
    ("population_survives.depth", lambda x: population_survives(RHO, RHO, x, 2, 1), "depth", 0, 2),
    ("population_survives.count", lambda x: population_survives(RHO, RHO, 2, x, 1), "count", 1, 2),
    ("root_law_monte_carlo.replicas",
     lambda x: root_law_monte_carlo(ONE_VERTEX, bernoulli_init(0.5), VOTER, 1, x, 1), "replicas", 1, 2),
    ("root_law_monte_carlo.batch_size",
     lambda x: root_law_monte_carlo(ONE_VERTEX, bernoulli_init(0.5), VOTER, 1, 2, 1, batch_size=x),
     "batch_size", 1, 1),
    ("giant_fraction.n", lambda x: giant_fraction(lambda n, s: gen_erdos_renyi(n, 0.5, s), x, 2, 1), "n", 1, 4),
    ("giant_fraction.replicas",
     lambda x: giant_fraction(lambda n, s: gen_erdos_renyi(n, 0.5, s), 4, x, 1), "replicas", 1, 2),
    ("component_functional_distribution.root_draws",
     lambda x: component_functional_distribution(lambda s: K2, constant_init(0), VOTER, lambda p: p[-1], 1, x, 1),
     "root_draws", 100, 100),
    ("shift_average.window_radius", lambda x: shift_average(LINE_RUN, mean, x, [0], dim=1), "window_radius", 0, 1),
    ("shift_average.box_size", lambda x: shift_average(LINE_RUN, mean, 0, [x], dim=1), "box size", 0, 1),
    ("shift_average.dim", lambda x: shift_average(LINE_RUN, mean, 0, [0], dim=x), "dim", 1, 1),
    ("d_star_unmarked.k_max", lambda x: d_star_unmarked(RootedGraph(K2, 0), RootedGraph(K2, 1), x), "k_max", 1, 2),
    ("d_star_marked.k_max", lambda x: d_star_marked(MARKED_K2, MARKED_K2, x), "k_max", 1, 2),
    ("_ball_code_from.r", lambda x: localtopo._ball_code_from(K2, 0, x), "radius", 0, 1),
    ("neighborhood_histogram.r", lambda x: neighborhood_histogram(K2, x), "radius", 0, 1),
    ("histogram_of_samples.r", lambda x: histogram_of_samples([RootedGraph(K2, 0)], x), "radius", 0, 1),
    ("lw_deficiency.n_samples", lambda x: lw_deficiency(K2, lambda s: RootedGraph(K2, 0), 1, x, 1), "n_samples", 1, 2),
    ("two_root_independence_gap.n_pairs", lambda x: two_root_independence_gap(lambda s: K2, 1, x, 1), "n_pairs", 1, 2),
    ("two_root_independence_gap.r", lambda x: two_root_independence_gap(lambda s: K2, x, 2, 1), "radius", 0, 1),
    ("glauber_trace.sweeps", lambda x: glauber_trace(K2, SPEC, x, 0, 1), "sweeps", 1, 2),
    ("glauber_trace.burn_in", lambda x: glauber_trace(K2, SPEC, 2, x, 1), "burn_in", 0, 1),
    ("glauber_trace.record_every", lambda x: glauber_trace(K2, SPEC, 2, 0, 1, record_every=x), "record_every", 0, 1),
    ("voter_model.alphabet_size", voter_model, "alphabet_size", 1, 3),
    ("consensus_sde_model.dim", lambda x: consensus_sde_model(dim=x), "dim", 1, 2),
    ("covariance_decay_profile.replicas",
     lambda x: covariance_decay_profile(K2, [0, 1], VOTER, [([0], [1], 1)], mean, 1, x, 1), "replicas", 100, 100),
    ("replica_paths_discrete.replicas", lambda x: replica_paths_discrete(K2, [0, 1], VOTER, 2, 1, x, [0]),
     "replicas", 1, 2),
    ("replica_paths_discrete.replica_offset",
     lambda x: replica_paths_discrete(K2, [0, 1], VOTER, 2, 1, 2, [0], replica_offset=x), "replica_offset", 0, 3),
    ("replica_paths_diffusion.replicas",
     lambda x: replica_paths_diffusion(K2, [0.0, 1.0], SDE, 0.2, 0.1, 1, x, [0]), "replicas", 1, 2),
    ("replica_paths_diffusion.replica_offset",
     lambda x: replica_paths_diffusion(K2, [0.0, 1.0], SDE, 0.2, 0.1, 1, 2, [0], replica_offset=x),
     "replica_offset", 0, 3),
]
COUNT_IDS = [row[0] for row in COUNTS]
COUNT_ROWS = [row[1:] for row in COUNTS]


@pytest.mark.parametrize("bad", ["fraction", "bool", "string", "below"])
@pytest.mark.parametrize("call, name, low, ok", COUNT_ROWS, ids=COUNT_IDS)
def test_bad_count_raises_naming_the_argument(call, name, low, ok, bad):
    # most of these raised a numpy TypeError, or truncated 2.5 and True, before
    value = {"fraction": 2.5, "bool": True, "string": "3", "below": low - 1}[bad]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}\b.* must be a whole number >= {low}, got "):
        call(value)


@pytest.mark.parametrize("call, name, low, ok", COUNT_ROWS, ids=COUNT_IDS)
def test_numpy_integer_count_passes(call, name, low, ok):
    call(np.int64(ok))
    call(ok)


def _floats_as_origin():
    comp = RootedGraph(K2, 0, origin=(0.0, 1.5))
    return component_empirical(simulate_discrete(K2, [0, 1], VOTER, 1, 1), comp)


# each of these used to truncate, wrap or alias an index, or to die in numpy
INDEX_PROBES = {
    "streams_fraction": (lambda: simulate_discrete(K2, [0, 1], VOTER, 5, 1, streams=1.5), "streams must be given"),
    "streams_bool": (lambda: simulate_discrete(K2, [0, 1], VOTER, 5, 1, streams=True), "streams must be given"),
    "noise_index_fraction": (lambda: simulate_discrete(K2, [0, 1], VOTER, 5, 1, noise_index=[0.9, 1.2]),
                             "noise_index must be given"),
    "record_fraction": (lambda: replica_paths_discrete(K2, [0, 1], VOTER, 5, 1, 2, [0.7]),
                        "vertex index must be given"),
    "replica_offset_fraction": (lambda: replica_paths_discrete(K2, [0, 1], VOTER, 5, 1, 2, [0], replica_offset=0.5),
                                "replica_offset must be a whole number"),
    "replicas_zero": (lambda: replica_paths_discrete(K2, [0, 1], VOTER, 5, 1, 0, [0]), "replicas must be a whole"),
    "replicas_negative": (lambda: replica_paths_discrete(K2, [0, 1], VOTER, 5, 1, -1, [0]),
                          "replicas must be a whole"),
    "decay_pair_fraction": (lambda: covariance_decay_profile(K2, [0, 1], VOTER, [([0.5], [1], 1)], mean, 1, 100, 1),
                            "vertex index must be given"),
    "distances_region_fraction": (lambda: distances_to(K2, [0.7]), "vertex index must be given"),
    "from_edges_fraction": (lambda: Graph.from_edges(3, [(0, 1.5)]), "edge endpoint must be given"),
    "adjacency_fraction": (lambda: Graph(((1.5,), (0,))), "neighbor index must be given"),
    "component_of_fraction": (lambda: component_of(K2, 1.5), "vertex must be given"),
    "rooted_graph_fraction": (lambda: RootedGraph(K2, 1.5), "root must be given"),
    "rooted_graph_bool": (lambda: RootedGraph(K2, True), "root must be given"),
    "origin_fraction": (_floats_as_origin, "component vertex must be given"),
    "weight_symbols_fraction": (lambda: log_unnormalized_weight(K2, SPEC, [0.7, 1.2]), "symbols must be given"),
    "probability_of_fraction": (lambda: exact_gibbs(K2, SPEC).probability_of([0.7, 1.2]), "symbols must be given"),
    "boundary_of_fraction": (lambda: boundary_of(K2, [0.5]), "region vertex must be given"),
    "kernel_boundary_vertex_bool": (lambda: conditional_kernel(K2, SPEC, [0], {True: 1}), "boundary vertex must be"),
    "kernel_boundary_vertex_float": (lambda: conditional_kernel(K2, SPEC, [0], {1.0: 1}), "boundary vertex must be"),
    "kernel_boundary_symbol_fraction": (lambda: conditional_kernel(K2, SPEC, [0], {1: 0.6}),
                                        "boundary symbols must be given"),
    "marginal_negative": (lambda: exact_gibbs(K2, SPEC).marginal(-1), "vertex out of range"),
    "marginal_fraction": (lambda: exact_gibbs(K2, SPEC).marginal(0.5), "vertex must be given"),
    "index_of_outside_alphabet": (lambda: exact_gibbs(K2, SPEC).index_of([0, 2]), "symbols out of range"),
    "regular_whole_float_n": (lambda: gen_random_regular(10.0, 3, 1), "n must be a whole number"),
    "canopy_fractional_width": (lambda: gen_canopy_truncation(3, 2, 1.5), "base_width must be a whole number"),
}


@pytest.mark.parametrize("probe", sorted(INDEX_PROBES))
def test_bad_index_raises(probe):
    call, message = INDEX_PROBES[probe]
    with pytest.raises(ValueError, match=message):
        call()


class TestIntegerIndicesPass:
    def test_integer_arrays_equal_lists_and_scalars(self):
        run = lambda **kw: simulate_discrete(K2, [0, 1], VOTER, 5, 1, **kw).paths  # noqa: E731
        assert np.array_equal(run(streams=np.array([1, 1], dtype=np.int32)), run(streams=1))
        assert np.array_equal(run(streams=np.uint8(1)), run(streams=1))
        assert np.array_equal(run(noise_index=np.array([0, 1], dtype=np.uint16)), run())
        block = replica_paths_discrete(K2, [0, 1], VOTER, 5, 1, 3, np.array([1, 0], dtype=np.int16))
        assert np.array_equal(block, replica_paths_discrete(K2, [0, 1], VOTER, 5, 1, 3, [1, 0]))
        assert distances_to(K2, np.array([1], dtype=np.int8)).tolist() == [1, 0]
        assert Graph.from_edges(3, np.array([[0, 1]], dtype=np.uint32)) == Graph.from_edges(3, [(0, 1)])
        assert component_of(K2, np.int64(1)).origin == (1, 0)
        root = RootedGraph(K2, np.int32(1)).root
        assert root == 1 and type(root) is int
        assert log_unnormalized_weight(K2, SPEC, np.array([0, 1], dtype=np.int8)) == log_unnormalized_weight(
            K2, SPEC, [0, 1])
        kernel = conditional_kernel(K2, SPEC, np.array([0]), {1: np.int64(1)})
        assert np.array_equal(kernel.probabilities, conditional_kernel(K2, SPEC, [0], {1: 1}).probabilities)

    def test_symbols_outside_the_alphabet_have_probability_zero(self):
        assert exact_gibbs(K2, SPEC).probability_of([0, 2]) == 0.0

    def test_empty_record_gives_an_empty_block(self):
        block = replica_paths_discrete(K2, [0, 1], VOTER, 3, 1, 2, [])
        assert block.shape == (2, 4, 0) and block.dtype == np.int64

    def test_empty_region_still_raises(self):
        with pytest.raises(ValueError, match="region must be nonempty"):
            distances_to(K2, [])
