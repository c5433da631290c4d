"""Golden hashes of seeded outputs.

Every seeded output is a pure function of its arguments, so a refactor of the
graph storage, the samplers or the traversals must reproduce these sha256
digests bit for bit.  The digests cover dtype, shape and raw bytes of each
array.  To add a case, compute its digest on the commit before the change.
The dynamics cases pin both the vectorised rules and the scalar per-vertex
rules (reached by dropping ``batch_step`` or ``batch_drift``).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from sparsedyn import dynamics, empirical, gibbs, graphs, localtopo, rng, trees

RHO = trees.poisson_dist(2.0)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _edges(g) -> str:
    return _digest(g.edges(), np.array([g.vertex_count], dtype=np.int64))


def _rooted(rg) -> str:
    return _digest(rg.graph.edges(), np.array([rg.vertex_count, rg.root], dtype=np.int64))


def _poisson_degrees(n, seed):
    deg = np.minimum(np.random.default_rng(seed).poisson(2.0, n), n - 1)
    if deg.sum() % 2:
        deg[int(np.argmin(deg))] += 1
    return deg


def _erased():
    # simple 6-regular pairings on 8 vertices are rare enough that all 100
    # attempts fail and the erased fallback fires
    g = graphs.gen_random_regular(8, 6, 3)
    assert g.erased_fallback
    return _edges(g)


def _forest(count, seed, **kwargs):
    f = trees.sample_forest(RHO, trees.size_biased(RHO), 4, count, seed, **kwargs)
    return _digest(f.graph.edges(), f.roots, f.truncated, np.array([f.graph.vertex_count], dtype=np.int64))


def _forest_partly_truncated():
    # deeper than the other forest cases, so trees meet the budget at later generations
    f = trees.sample_forest(RHO, trees.size_biased(RHO), 6, 8, 60, vertex_budget=150)
    assert 0 < f.truncated.sum() < 8
    return _digest(f.graph.indptr, f.graph.indices, f.roots, f.truncated)


def _ugw_draws():
    parts = []
    for rho in (trees.delta_dist(3), RHO):
        for depth in (2, 4):
            for i in range(200):
                rg = trees.sample_ugw(rho, depth, rng.stream_key(58, i))
                parts += [rg.graph.indptr, rg.graph.indices, np.array([rg.root, rg.truncated], dtype=np.int64)]
    return _digest(*parts)


def _fixed_forest():
    rg = graphs.gen_canopy_truncation(3, 3, 1, root_level=1)
    f = empirical.fixed_graph_sampler(rg)(7, 0)
    return _digest(f.graph.edges(), f.roots)


def _root_law():
    m = empirical.root_law_monte_carlo(
        empirical.ugw_forest_sampler(RHO, 4), empirical.bernoulli_init(0.5),
        dynamics.voter_model(2), 4, 700, 11, batch_size=300)
    return _digest(m.samples, m.times)


def _histogram(g, r):
    h = localtopo.neighborhood_histogram(g, r)
    codes = sorted(h.counts)
    return _digest(np.frombuffer(b"|".join(codes), dtype=np.uint8),
                   np.array([h.counts[c] for c in codes], dtype=np.int64))


def _traversals():
    g = graphs.gen_erdos_renyi(300, 1.5 / 300, 5)
    return _digest(graphs.component_labels(g), dynamics.distances_to(g, [0, 7, 42]),
                   np.array(graphs.largest_component(g).origin, dtype=np.int64))


def _box_noise(n):
    # non-default streams and a permuted noise index
    return np.arange(n) % 3, np.random.default_rng(12).permutation(n)


def _sim_discrete(model, scalar=False):
    g = graphs.gen_lattice_box(2, 4).graph
    marks = np.random.default_rng(13).integers(0, model.alphabet_size, g.vertex_count)
    if scalar:
        model = dataclasses.replace(model, batch_step=None)
    streams, noise = _box_noise(g.vertex_count)
    ts = dynamics.simulate_discrete(g, marks, model, 6, 31, streams=streams, noise_index=noise)
    return _digest(ts.paths, ts.times)


def _sim_diffusion(model, scalar=False):
    g = graphs.gen_configuration_model(_poisson_degrees(120, 14), 14)
    shape = (g.vertex_count, model.dim) if model.dim > 1 else (g.vertex_count,)
    marks = np.random.default_rng(15).uniform(-1.0, 1.0, shape)
    if scalar:
        model = dataclasses.replace(model, batch_drift=None)
    streams, noise = _box_noise(g.vertex_count)
    ts = dynamics.simulate_diffusion(g, marks, model, 0.5, 0.05, 32, streams=streams, noise_index=noise)
    return _digest(ts.paths, ts.times)


def _replicas_discrete():
    g = graphs.gen_random_regular(100, 3, 16)
    marks = np.random.default_rng(17).integers(0, 2, 100)
    record = [0, 5, 17, 50, 99]
    return _digest(*(dynamics.replica_paths_discrete(g, marks, m, 5, 33, 7, record, replica_offset=3)
                     for m in (dynamics.voter_model(2), dynamics.noisy_majority_model(0.2))))


def _replicas_diffusion():
    g = graphs.gen_random_regular(100, 3, 18)
    marks = np.random.default_rng(19).uniform(-1.0, 1.0, 100)
    record = [0, 5, 17, 50, 99]
    return _digest(*(dynamics.replica_paths_diffusion(g, marks, m, 0.6, 0.1, 34, 7, record, replica_offset=2)
                     for m in (dynamics.consensus_sde_model(0.5), dynamics.kuramoto_model(1.0, 0.5))))


def _coupled(model, marks, **kwargs):
    g = graphs.gen_lattice_box(1, 8).graph
    return _digest(*(ts.paths for ts in dynamics.coupled_triple(g, marks, [0], [16], model, **kwargs)))


def _decay(model, horizon, f, **kwargs):
    g = graphs.gen_random_regular(100, 3, 20)
    dist = dynamics.distances_to(g, [0])
    pairs = [([0], [int(np.flatnonzero(dist == d)[0])], d) for d in (1, 2, 3)]
    marks = (np.random.default_rng(21).integers(0, 2, 100) if isinstance(model, dynamics.DiscreteModel)
             else np.random.default_rng(21).uniform(-np.pi, np.pi, 100))
    p = dynamics.covariance_decay_profile(g, marks, model, pairs, f, horizon, 120, 35, **kwargs)
    return _digest(p.distances, p.estimates, p.ci_half_widths)


def _component_functional():
    sampler = lambda key: graphs.gen_erdos_renyi(30, 1.5 / 30, key)
    discrete = empirical.component_functional_distribution(
        sampler, empirical.bernoulli_init(0.5), dynamics.voter_model(2), lambda p: p[-1], 3, 100, 36)
    diffusion = empirical.component_functional_distribution(
        sampler, empirical.uniform_box_init(-1.0, 1.0), dynamics.consensus_sde_model(0.5),
        lambda p: p[-1, :, 0], 0.4, 100, 37, dt=0.1)
    return _digest(discrete, diffusion)


def _root_law_diffusion():
    m = empirical.root_law_monte_carlo(
        empirical.ugw_forest_sampler(RHO, 3), empirical.uniform_box_init(-np.pi, np.pi),
        dynamics.kuramoto_model(1.0, 0.5), 0.5, 200, 38, dt=0.1, batch_size=70)
    return _digest(m.samples, m.times)


def _relabeled(rg, seed):
    """The same rooted graph with its vertices renumbered by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(rg.vertex_count)
    g = graphs.Graph.from_edges(rg.vertex_count, perm[rg.graph.edges()])
    return graphs.RootedGraph(g, int(perm[rg.root])), perm


def _code_cases():
    tree = trees.sample_ugw(RHO, 4, 41)
    rr_ball = graphs.ball(graphs.component_of(graphs.gen_random_regular(60, 3, 42), 0), 3)
    cycle = graphs.RootedGraph(graphs.Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]), 2)
    return [graphs.gen_regular_tree(3, 3), tree, _relabeled(tree, 43)[0],
            graphs.gen_lattice_box(2, 2), rr_ball, _relabeled(rr_ball, 44)[0], cycle]


def _canonical_codes():
    codes = [localtopo.canonical_code(rg) for rg in _code_cases()]
    assert codes[1] == codes[2] and codes[4] == codes[5]
    return _digest(np.frombuffer(b"|".join(codes), dtype=np.uint8))


def _d_star_unmarked():
    cases = _code_cases()
    pairs = [(cases[0], cases[1]), (cases[1], cases[2]), (cases[1], trees.sample_ugw(RHO, 4, 45)),
             (cases[3], cases[4]), (cases[4], cases[5]), (cases[0], cases[6]),
             (cases[0], graphs.gen_regular_tree(3, 2)), (cases[0], cases[4])]
    values = [localtopo.d_star_unmarked(a, b, 4) for a, b in pairs]
    return _digest(np.array([[iv.lower, iv.upper] for iv in values]))


def _d_star_marked():
    gen = np.random.default_rng(46)
    tree = graphs.gen_regular_tree(3, 3)
    moved, perm = _relabeled(tree, 47)
    ugw = trees.sample_ugw(RHO, 4, 48)
    bits = gen.integers(0, 2, ugw.vertex_count)
    flipped = bits.copy()
    flipped[-1] ^= 1
    grid = graphs.gen_lattice_box(2, 1)
    pairs = [
        (graphs.MarkedGraph(tree, gen.uniform(0.0, 1.0, tree.vertex_count)),
         graphs.MarkedGraph(tree, gen.uniform(0.0, 1.0, tree.vertex_count))),
        (graphs.MarkedGraph(tree, gen.normal(0.0, 0.3, (tree.vertex_count, 2))),
         graphs.MarkedGraph(tree, gen.normal(0.0, 0.3, (tree.vertex_count, 2)))),
        (graphs.MarkedGraph(tree, (marks := gen.uniform(0.0, 1.0, tree.vertex_count))),
         graphs.MarkedGraph(moved, marks[np.argsort(perm)] + gen.normal(0.0, 0.05, tree.vertex_count))),
        (graphs.MarkedGraph(ugw, bits), graphs.MarkedGraph(ugw, flipped)),
        (graphs.MarkedGraph(grid, gen.uniform(0.0, 1.0, 9)), graphs.MarkedGraph(grid, gen.uniform(0.0, 1.0, 9))),
    ]
    values = [localtopo.d_star_marked(a, b, 4) for a, b in pairs]
    return _digest(np.array([[iv.lower, iv.upper] for iv in values]))


def _limit_histogram():
    samples = (trees.sample_ugw(RHO, 3, rng.stream_key(49, i)) for i in range(300))
    h = localtopo.histogram_of_samples(samples, 2)
    codes = sorted(h.counts)
    return _digest(np.frombuffer(b"|".join(codes), dtype=np.uint8),
                   np.array([h.counts[c] for c in codes] + [h.total], dtype=np.int64))


def _limit_histogram_regular():
    samples = (trees.sample_ugw(trees.delta_dist(3), 2, rng.stream_key(56, i)) for i in range(300))
    h = localtopo.histogram_of_samples(samples, 2)
    codes = sorted(h.counts)
    return _digest(np.frombuffer(b"|".join(codes), dtype=np.uint8),
                   np.array([h.counts[c] for c in codes] + [h.total], dtype=np.int64))


def _limit_histogram_mixed():
    # trees deeper than r, a truncated tree, a single vertex, cycles and a
    # lattice ball; codes are digested in insertion order
    cut = trees.sample_ugw(RHO, 6, 61, vertex_budget=12)
    assert cut.truncated
    cycle = graphs.RootedGraph(graphs.Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]), 3)
    path = graphs.RootedGraph(graphs.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 1)
    samples = [trees.sample_ugw(RHO, 4, rng.stream_key(62, i)) for i in range(40)]
    samples[3:3] = [cut, graphs.RootedGraph(graphs.Graph(((),)), 0), cycle, graphs.gen_lattice_box(2, 2), path]
    samples += [cycle, graphs.ball(graphs.component_of(graphs.gen_random_regular(60, 3, 63), 5), 3)]
    h = localtopo.histogram_of_samples(iter(samples), 2)
    codes = list(h.counts)
    return _digest(np.frombuffer(b"|".join(codes), dtype=np.uint8),
                   np.array([h.counts[c] for c in codes] + [h.total], dtype=np.int64))


def _stream_keys():
    # seeds and parts that are negative, at least 2**64 or numpy integers
    gen = np.random.default_rng(57)
    keys = []
    for i in range(200):
        wide = int(gen.integers(0, 2**63))
        kinds = [wide, -wide - 1, wide + 2**64, np.int64(i - 100), np.uint64(wide + 2**63), i]
        seed = kinds[i % 6]
        parts = [kinds[(i + j + 1) % 6] for j in range(i % 4)]
        keys.append(rng.stream_key(seed, *parts))
    return _digest(np.array(keys, dtype=np.uint64))


def _two_root_gap():
    sampler = lambda key: graphs.gen_erdos_renyi(200, 2.0 / 200, key)
    return _digest(np.array([localtopo.two_root_independence_gap(sampler, r, 60, 50) for r in (1, 2)]))


def _path_laws():
    g = graphs.gen_configuration_model(_poisson_degrees(400, 51), 51)
    init = empirical.bernoulli_init(0.5)
    law = empirical.global_empirical(dynamics.simulate(g, init(g, 52), dynamics.voter_model(2), 3, 53))
    root = empirical.root_law_monte_carlo(empirical.ugw_forest_sampler(RHO, 3), init,
                                          dynamics.voter_model(2), 3, 300, 54)
    freqs = empirical.trajectory_frequencies(law, np.arange(law.count) % 5 + 1.0)
    keys = sorted(freqs)
    return _digest(np.array([empirical.tv_discrete(law, root)]),
                   np.frombuffer(b"".join(keys), dtype=np.uint8), np.array([freqs[k] for k in keys]))


def _potts_spec():
    # psi + psi.T is exactly symmetric, so every reader of psi sees one table
    gen = np.random.default_rng(64)
    psi = gen.random((3, 3))
    lam = gen.random(3)
    return gibbs.GibbsSpec((0, 1, 2), psi + psi.T, lam / lam.sum())


def _iid_sample():
    g = graphs.gen_erdos_renyi(400, 0.01, 65)
    laws = ([0.25, 0.0, 0.75, 0.0], [0.1] * 10, _potts_spec().lam)  # 0.1 * 10 sums to 1 - 2**-53
    return _digest(*(gibbs.iid_sample(g, lam, 66) for lam in laws))


def _glauber():
    g = graphs.gen_erdos_renyi(12, 0.3, 67)
    box = graphs.gen_lattice_box(2, 2).graph
    return _digest(gibbs.glauber_trace(g, _potts_spec(), 30, 4, 68, record_every=3),
                   gibbs.glauber_trace(box, gibbs.GibbsSpec.ising(0.45, field_plus=0.6), 20, 2, 69),
                   gibbs.glauber_marginals(g, _potts_spec(), 40, 5, 70),
                   gibbs.glauber_sample(box, gibbs.GibbsSpec.ising(0.2), 15, 3, 71))


def _exact_gibbs():
    parts = []
    for g, spec in ((graphs.gen_erdos_renyi(8, 0.4, 72), _potts_spec()),
                    (graphs.gen_lattice_box(2, 1).graph, gibbs.GibbsSpec.ising(0.35, field_plus=0.65))):
        dist = gibbs.exact_gibbs(g, spec)
        parts += [dist.probabilities, np.array([dist.log_z])]
    return _digest(*parts)


def _conditional_kernel():
    g = graphs.gen_erdos_renyi(10, 0.35, 73)
    parts = []
    for region in ([6, 1, 4], [0, 9, 2, 5, 3]):
        boundary = {u: u % 3 for u in gibbs.boundary_of(g, region)}
        ker = gibbs.conditional_kernel(g, _potts_spec(), region, boundary)
        parts += [ker.probabilities, np.array([ker.log_z])]
    return _digest(*parts)


CASES = {
    "erdos_renyi": lambda: _edges(graphs.gen_erdos_renyi(300, 0.02, 1)),
    "erdos_renyi_complete": lambda: _edges(graphs.gen_erdos_renyi(9, 1.0, 1)),
    "gnm_sparse": lambda: _edges(graphs.gen_gnm(200, 300, 2)),
    "gnm_dense": lambda: _edges(graphs.gen_gnm(20, 150, 3)),
    "configuration": lambda: _edges(graphs.gen_configuration_model(_poisson_degrees(500, 4), 4)),
    "configuration_erased": _erased,
    "random_regular": lambda: _edges(graphs.gen_random_regular(500, 3, 5)),
    "lattice_box": lambda: _rooted(graphs.gen_lattice_box(2, 6)),
    "regular_tree": lambda: _rooted(graphs.gen_regular_tree(3, 5)),
    "canopy": lambda: _rooted(graphs.gen_canopy_truncation(3, 4, 1, root_level=2)),
    "canopy_component": lambda: _rooted(graphs.gen_canopy_truncation(3, 4, 3, root_level=1)),
    "ball": lambda: _rooted(graphs.ball(graphs.component_of(graphs.gen_random_regular(400, 3, 6), 9), 3)),
    "sample_forest": lambda: _forest(400, 7),
    "sample_forest_truncated": lambda: _forest(20, 8, vertex_budget=40),
    "sample_forest_partly_truncated": _forest_partly_truncated,
    "sample_ugw_draws": _ugw_draws,
    "fixed_graph_sampler": _fixed_forest,
    "root_law_monte_carlo": _root_law,
    "neighborhood_histogram": lambda: _histogram(
        graphs.gen_configuration_model(_poisson_degrees(300, 9), 9), 2),
    "traversals": _traversals,
    "simulate_voter": lambda: _sim_discrete(dynamics.voter_model(3)),
    "simulate_voter_scalar": lambda: _sim_discrete(dynamics.voter_model(3), scalar=True),
    "simulate_majority": lambda: _sim_discrete(dynamics.noisy_majority_model(0.2)),
    "simulate_majority_scalar": lambda: _sim_discrete(dynamics.noisy_majority_model(0.2), scalar=True),
    "simulate_consensus_d2": lambda: _sim_diffusion(dynamics.consensus_sde_model(0.5, dim=2)),
    "simulate_consensus_d2_scalar": lambda: _sim_diffusion(dynamics.consensus_sde_model(0.5, dim=2), scalar=True),
    "simulate_kuramoto": lambda: _sim_diffusion(dynamics.kuramoto_model(1.0, 0.5)),
    "simulate_kuramoto_scalar": lambda: _sim_diffusion(dynamics.kuramoto_model(1.0, 0.5), scalar=True),
    "replica_paths_discrete": _replicas_discrete,
    "replica_paths_diffusion": _replicas_diffusion,
    "coupled_triple_discrete": lambda: _coupled(
        dynamics.voter_model(2), np.arange(17) % 2, horizon=4, seed=39),
    "coupled_triple_diffusion": lambda: _coupled(
        dynamics.consensus_sde_model(0.5), np.linspace(-1.0, 1.0, 17), horizon=0.5, seed=40, dt=0.1),
    "decay_discrete": lambda: _decay(dynamics.noisy_majority_model(0.1), 4, lambda b: float(b[-1].mean())),
    "decay_diffusion": lambda: _decay(
        dynamics.kuramoto_model(1.0, 0.5), 0.5, lambda b: float(np.cos(b[-1]).mean()), dt=0.1),
    "component_functional": _component_functional,
    "root_law_diffusion": _root_law_diffusion,
    "canonical_codes": _canonical_codes,
    "d_star_unmarked": _d_star_unmarked,
    "d_star_marked": _d_star_marked,
    "limit_histogram": _limit_histogram,
    "two_root_gap": _two_root_gap,
    "histogram_regular_r1": lambda: _histogram(graphs.gen_random_regular(500, 3, 55), 1),
    "histogram_regular_r2": lambda: _histogram(graphs.gen_random_regular(500, 3, 55), 2),
    "histogram_regular_r3": lambda: _histogram(graphs.gen_random_regular(500, 3, 55), 3),
    "histogram_lattice": lambda: _histogram(graphs.gen_lattice_box(2, 4).graph, 2),
    "limit_histogram_regular": _limit_histogram_regular,
    "limit_histogram_mixed": _limit_histogram_mixed,
    "stream_keys": _stream_keys,
    "path_laws": _path_laws,
    "gibbs_iid_sample": _iid_sample,
    "gibbs_glauber": _glauber,
    "gibbs_exact": _exact_gibbs,
    "gibbs_conditional_kernel": _conditional_kernel,
}

GOLDEN = {
    "ball": "7c8dcf1f51968744a299bc011894f7bfe3640939b64304f24d4f0cff4831e78f",
    "canonical_codes": "211ada93ca230eb13f526a7e178f826c3b2470e3280e34fbaee38ba3ec52540e",
    "canopy": "16631a2fea18fed62544d4b807a394f0613bccb360c2aa374afd8b15fa163300",
    "canopy_component": "aad60c4edd594cace5f5da712a73b372a0b2c0ef40abc391455ebc7538ccdb71",
    "component_functional": "b79bf8ddc7c55fd1e9697793240241684fafd0bc9606411aecd9e9c3e6e8173a",
    "configuration": "72c08611d9b6f57981386155c28b82af087699b678e75fb60df07e43692c4168",
    "configuration_erased": "dc999f25767c6ef7f5ba04ef7be7bf1ec205879ebd002f168837e7f9c6a64d09",
    "coupled_triple_diffusion": "0e71b5d8a717ce18547889cf8a8269f32fe01441f96e4e9ab078fef769028d08",
    "coupled_triple_discrete": "a97118c908f3d5424ed60917063fa2d133245b0841b7f0ce970c28002284f920",
    "d_star_marked": "2f2ba937c44b8ab8d7467151ba4244366a13ae2c3581fdc36e694e7286a1c3ff",
    "d_star_unmarked": "7a7ed94ca5f4cc44cf73071ff6653680ef7cd383a67e3b2180c675caf00439c9",
    "decay_diffusion": "63ea8ef0dfc8913be8cbe12b0184789f5885357fff1f1b8d25d3b8e83ade0d12",
    "decay_discrete": "9a00473f71b94cb1325cd07e97b59acf7f634b9c5d09a277a2864f8faa7cb75f",
    "erdos_renyi": "074cd047612e2d9ff0c4f25e167408b9f08b543de2d4c672834463c9b4ea68e7",
    "erdos_renyi_complete": "d4a36c9a1c4542a41c6970929b1e5a6de1f05ec44ce0a7984d7cdaafaceb3d4b",
    "fixed_graph_sampler": "cf0592e54124d36e85f760c4f1bd695222eb543320a31963eb139d4dad3a7445",
    "gnm_dense": "e2795a6cf2c11730e92b4bd97a622069bc722ff669cacf4c6f3dd091c109a814",
    "gnm_sparse": "83a2a3c4bcd94c7a4450ae0da2e6db104f8fe7a1cfad10ea4255f8911b8ba373",
    "gibbs_conditional_kernel": "a79b2a8a9c9dc388a93747f41afe426b58ca5a5e38a65fed85161a7a9f0eb41c",
    "gibbs_exact": "bb37d33ccd5b12a91de99db3684c6403b81eb25bea8cbff43a51adf15ca7002d",
    "gibbs_glauber": "19ed75211401c7b174523b52cf258427497566e495729d8ed435cc58a3b0da8a",
    "gibbs_iid_sample": "5c70ec76a04b213f38d624d6565589720dc8cbc8dd6a955d5242ae000db1cfe6",
    "histogram_lattice": "7610f07cd9ff046f967da9130d9839cbf20d80d314a23c08c5833aedc7aa61aa",
    "histogram_regular_r1": "11b33be134798df140f3d88716e9f62d3c73eabd6ef37faee7c4c575cc188f3d",
    "histogram_regular_r2": "364ca408dea4e1a8ae935c2028ecaa0b9b2f4186518100816f53a30f38022b59",
    "histogram_regular_r3": "67eedaf7b83b1b675ef73312dcf6b9a529817ad9fe4692fff91c89c69dfedd21",
    "lattice_box": "ad3f490503148e3b13ba309b526e49c35e25521a6b776aa3fbf21dcd11f42045",
    "limit_histogram": "f30b7119ff56b2a47ae2208d2fa57cf3f9ebaaeef4a48ce9abf6f12c9590d3dc",
    "limit_histogram_mixed": "d2e95369d8353ada111e2322edbcf01765fce2ede9ef9c5efbb7a4c60477c9a8",
    "limit_histogram_regular": "2ce34c4a234d2fa31d3c983d3439eccbde58a1b5d0dd95a7ab257195a7d5495f",
    "neighborhood_histogram": "adb318c41e639d434c0ae1ab36a416f28f6ef3acf04617ef39d5aea0fedfee2f",
    "path_laws": "613e185b8b9f2764eb4b97708341552a77af7270d9accc50e8f8facc9f813541",
    "random_regular": "49fbb1417f36d1eae10477364bac92d58c9c52d025ad6efc6947d68a15973f6c",
    "regular_tree": "f77ca33399961bb46e99aea994282d65791d54bf0b02ba469359496e7f5d661b",
    "replica_paths_diffusion": "66af0bd6efe4cdd233009d94710ffac5bf23f03a48f0f16ed0f7e083acdb8182",
    "replica_paths_discrete": "73cc037abe66b209c5fcfff165e935371f128dda3b1db04b3d97016a9e00aa65",
    "root_law_diffusion": "357d9838b72cffbb76cc35a30ce5118ad1f88dd94600eff100e5004b8faa2e77",
    "root_law_monte_carlo": "fc2d660205299738de91ca4958682b15c57d484883859d052b6d14697c447f1e",
    "sample_forest": "6f332a9f5d6d26263543ace73c06a4c2956b12d1668ce0074f3021b1dab96741",
    "sample_forest_partly_truncated": "1e136f558ccec820fb5e354825a58c7d55bfb2d5d12fb6079ef6863f4afc5af4",
    "sample_forest_truncated": "f27ddb169ef162beb2e94a56f2c9baf0f10b3fc9ee620edef98148afd0418f25",
    "sample_ugw_draws": "915759a72bf7ba6dc3da8798b3bcd0acef052d5d8ec12dfaee0caea18789862e",
    "simulate_consensus_d2": "e4d01dd46d65c69424296278491016dd6b5d96a89696e5807713f7dc0b46eb9f",
    "simulate_consensus_d2_scalar": "40ca8bcf2a3effc17ce53d8548596a427756bcb1aed85fe695670703eb56caf3",
    "simulate_kuramoto": "4b73172342141eea623cab5a779838f07ec835b9109df95079a9795eb2025c1b",
    "simulate_kuramoto_scalar": "f3763410a72f04908af3c74c64ecef99e26dd2370aa091470989b8d5632e8927",
    "simulate_majority": "e0df9bcd11958bef2f83d40f5912533987fe5b33cc226755d6deb5aaba71bfea",
    "simulate_majority_scalar": "e0df9bcd11958bef2f83d40f5912533987fe5b33cc226755d6deb5aaba71bfea",
    "simulate_voter": "213027166df4cc68e1d79794b1850acabebc880fc93ed3e5a9b75a097af3acd9",
    "simulate_voter_scalar": "213027166df4cc68e1d79794b1850acabebc880fc93ed3e5a9b75a097af3acd9",
    "stream_keys": "22854c77a6e02063c2bc939d75760fcc14a9bd31f88e6fb306c386cbdc367351",
    "traversals": "dd3f6fef8c05e4a3740e2dd92e016ada40c2ef3e281cae218d53da499da74d1e",
    "two_root_gap": "54b137de7101225c3581a228ce297cb1605ea9928ce48da416d14badb194c4f0",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_matches_golden(name):
    assert CASES[name]() == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{CASES[name]()}",')
