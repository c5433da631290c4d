"""Golden hashes of seeded outputs.

Every seeded output is a pure function of its arguments, so a refactor of the
graph storage, the samplers or the traversals must reproduce these sha256
digests bit for bit.  The digests cover dtype, shape and raw bytes of each
array.  To add a case, compute its digest on the commit before the change.
"""

import hashlib

import numpy as np
import pytest

from sparsedyn import dynamics, empirical, graphs, localtopo, trees

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
    return _digest(f.graph.edges(), f.roots, f.truncated, f.depths, f.tree_ids,
                   np.array([f.graph.vertex_count], dtype=np.int64))


def _fixed_forest():
    rg = graphs.gen_canopy_truncation(3, 3, 1, root_level=1)
    f = empirical.fixed_graph_sampler(rg)(7, 0)
    return _digest(f.graph.edges(), f.roots, f.depths, f.tree_ids)


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
    "fixed_graph_sampler": _fixed_forest,
    "root_law_monte_carlo": _root_law,
    "neighborhood_histogram": lambda: _histogram(
        graphs.gen_configuration_model(_poisson_degrees(300, 9), 9), 2),
    "traversals": _traversals,
}

GOLDEN = {
    "ball": "7c8dcf1f51968744a299bc011894f7bfe3640939b64304f24d4f0cff4831e78f",
    "canopy": "16631a2fea18fed62544d4b807a394f0613bccb360c2aa374afd8b15fa163300",
    "canopy_component": "aad60c4edd594cace5f5da712a73b372a0b2c0ef40abc391455ebc7538ccdb71",
    "configuration": "72c08611d9b6f57981386155c28b82af087699b678e75fb60df07e43692c4168",
    "configuration_erased": "dc999f25767c6ef7f5ba04ef7be7bf1ec205879ebd002f168837e7f9c6a64d09",
    "erdos_renyi": "074cd047612e2d9ff0c4f25e167408b9f08b543de2d4c672834463c9b4ea68e7",
    "erdos_renyi_complete": "d4a36c9a1c4542a41c6970929b1e5a6de1f05ec44ce0a7984d7cdaafaceb3d4b",
    "fixed_graph_sampler": "9e464a7c8a575583fccbfc0c41600ee03183c9935ff832ef83dd519881063958",
    "gnm_dense": "e2795a6cf2c11730e92b4bd97a622069bc722ff669cacf4c6f3dd091c109a814",
    "gnm_sparse": "83a2a3c4bcd94c7a4450ae0da2e6db104f8fe7a1cfad10ea4255f8911b8ba373",
    "lattice_box": "ad3f490503148e3b13ba309b526e49c35e25521a6b776aa3fbf21dcd11f42045",
    "neighborhood_histogram": "f612c22848c80d356d9250d9798d28e43fb1ed603e1b7e17219b96f7b9b1eb89",
    "random_regular": "49fbb1417f36d1eae10477364bac92d58c9c52d025ad6efc6947d68a15973f6c",
    "regular_tree": "f77ca33399961bb46e99aea994282d65791d54bf0b02ba469359496e7f5d661b",
    "root_law_monte_carlo": "fc2d660205299738de91ca4958682b15c57d484883859d052b6d14697c447f1e",
    "sample_forest": "c28c82ee83947009d332c7fc8ed20c0d0df73e01660af3e04363d9154caeb24e",
    "sample_forest_truncated": "52d169bcdd5dc2a0597675c568b309da34c7e16e4469560937e96a28416677e5",
    "traversals": "dd3f6fef8c05e4a3740e2dd92e016ada40c2ef3e281cae218d53da499da74d1e",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_matches_golden(name):
    assert CASES[name]() == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{CASES[name]()}",')
