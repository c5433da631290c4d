import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedyn import graphs, rng, trees
from sparsedyn.dynamics import distances_to
from sparsedyn.graphs import (
    Graph,
    RootedGraph,
    SizeCapError,
    ball,
    component_of,
    gen_canopy_truncation,
    gen_configuration_model,
    gen_erdos_renyi,
    gen_gnm,
    gen_lattice_box,
    gen_random_regular,
    gen_regular_tree,
    largest_component,
    uniform_root_component,
)


def giant_fraction_fixed_point(theta, tol=1e-13):
    """Independent oracle: survival s solves s = 1 - exp(-theta * s)."""
    s = 0.5
    for _ in range(10000):
        s_new = 1.0 - math.exp(-theta * s)
        if abs(s_new - s) < tol:
            return s_new
        s = s_new
    raise RuntimeError("no convergence")


def poisson_pmf(k, lam):
    return math.exp(-lam) * lam**k / math.factorial(k)


def _reference_erdos_renyi(n, p, seed):
    """The scalar skip-sampling loop gen_erdos_renyi replaced: one draw and one
    math.log per edge, walking (w, v) over the pairs w < v by v, then w."""
    if p == 0.0 or n == 1:
        return []
    if p == 1.0:
        return [(w, v) for v in range(n) for w in range(v)]
    gen = rng.generator(seed, 0x4552)
    edges = []
    lq = math.log(1.0 - p) if 1.0 - p < 1.0 else math.log1p(-p)
    v, w = 1, -1
    while v < n:
        gap = math.log(1.0 - gen.random()) / lq
        if gap >= n * n:
            break
        w += 1 + int(math.floor(gap))
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges


class TestErdosRenyi:
    def test_p_one_complete(self):
        g = gen_erdos_renyi(4, 1.0, seed=1)
        assert g.edge_count == 6
        assert all(len(a) == 3 for a in g.adjacency)

    def test_p_zero_empty(self):
        g = gen_erdos_renyi(5, 0.0, seed=1)
        assert g.edge_count == 0

    def test_giant_component_near_fixed_point(self):
        # oracle: s = 1 - e^{-2 s}  =>  s ~ 0.7968
        s = giant_fraction_fixed_point(2.0)
        assert abs(s - 0.7968) < 5e-4
        n = 10000
        fracs = []
        for seed in range(3):
            g = gen_erdos_renyi(n, 2.0 / n, seed=seed)
            fracs.append(largest_component(g).vertex_count / n)
        assert abs(np.mean(fracs) - s) < 0.03

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 400), st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-3), st.floats(0.0, 1e-300)),
           st.integers(0, 2**32 - 1))
    def test_matches_the_scalar_loop(self, n, p, seed):
        g, ref = gen_erdos_renyi(n, p, seed), Graph.from_edges(n, _reference_erdos_renyi(n, p, seed))
        assert np.array_equal(g.indptr, ref.indptr) and np.array_equal(g.indices, ref.indices)

    def test_determinism(self):
        a = gen_erdos_renyi(200, 0.02, seed=7)
        b = gen_erdos_renyi(200, 0.02, seed=7)
        assert a.adjacency == b.adjacency
        c = gen_erdos_renyi(200, 0.02, seed=8)
        assert a.adjacency != c.adjacency

    def test_edge_density(self):
        n, p = 300, 0.05
        m = gen_erdos_renyi(n, p, seed=3).edge_count
        mean = p * n * (n - 1) / 2
        sd = math.sqrt(mean * (1 - p))
        assert abs(m - mean) < 5 * sd


class TestGnm:
    def test_triangle(self):
        g = gen_gnm(3, 3, seed=1)
        assert g.adjacency == ((1, 2), (0, 2), (0, 1))

    def test_empty(self):
        assert gen_gnm(3, 0, seed=1).edge_count == 0

    def test_m_too_large_rejected(self):
        with pytest.raises(ValueError):
            gen_gnm(3, 4, seed=1)

    def test_negative_m_rejected(self):
        # used to return an empty graph
        with pytest.raises(ValueError, match="m=-1"):
            gen_gnm(3, -1, seed=1)

    def test_exact_edge_count_and_simplicity(self):
        for seed in range(5):
            g = gen_gnm(50, 400, seed=seed)
            assert g.edge_count == 400
            g.validate()

    def test_degree_distribution_tv_close_to_poisson(self):
        # 2m/n = 2: degree law approaches Poisson(2); exact pmf as oracle
        n = 2000
        g = gen_gnm(n, n, seed=11)
        counts = np.bincount(g.degrees, minlength=30)
        tv = 0.5 * sum(
            abs(counts[k] / n - poisson_pmf(k, 2.0)) for k in range(len(counts))
        )
        tv += 0.5 * (1.0 - sum(poisson_pmf(k, 2.0) for k in range(len(counts))))
        assert tv < 0.06

    def test_dense_branch(self):
        g = gen_gnm(8, 25, seed=2)
        assert g.edge_count == 25
        g.validate()


class TestConfigurationModel:
    def test_single_edge(self):
        g = gen_configuration_model([1, 1], seed=1)
        assert g.adjacency == ((1,), (0,))

    def test_triangle(self):
        g = gen_configuration_model([2, 2, 2], seed=1)
        assert g.adjacency == ((1, 2), (0, 2), (0, 1))

    def test_odd_sum_rejected(self):
        with pytest.raises(ValueError):
            gen_configuration_model([1, 1, 1], seed=1)

    def test_conditioned_path_preserves_degrees(self):
        deg = [3, 2, 2, 1, 1, 1, 2, 2, 1, 1]
        for seed in range(10):
            g = gen_configuration_model(deg, seed=seed)
            if not g.erased_fallback:
                assert list(g.degrees) == deg
            g.validate()

    def test_degree_at_least_n_rejected(self):
        with pytest.raises(ValueError):
            gen_configuration_model([4, 4], seed=0)

    def test_erased_path_degrees_dominated(self):
        # [3, 3, 1, 1] is not graphic, so every pairing fails the simplicity check
        deg = [3, 3, 1, 1]
        g = gen_configuration_model(deg, seed=0, max_pairing_attempts=5)
        assert g.erased_fallback
        assert all(d_out <= d_in for d_out, d_in in zip(g.degrees, deg))
        g.validate()

    def test_attempt_budget(self):
        # with no attempts left the one pairing drawn is the erased fallback,
        # flagged even when it happens to be simple
        g = gen_configuration_model([1, 1], seed=1, max_pairing_attempts=0)
        assert g.adjacency == ((1,), (0,)) and g.erased_fallback
        assert not gen_configuration_model([1, 1], seed=1, max_pairing_attempts=1).erased_fallback
        with pytest.raises(ValueError, match="max_pairing_attempts"):
            gen_configuration_model([1, 1], seed=1, max_pairing_attempts=-1)

    @pytest.mark.parametrize("deg", [[1.5, 1.5], [2.9, 1.2, 1.0], [math.nan, 1.0], [math.inf, 1.0],
                                     [True, True], ["1", "1"]])
    def test_degrees_must_be_whole_numbers(self, deg):
        # [1.5, 1.5] built the edge 0-1 and [2.9, 1.2, 1.0] ran as (2, 1, 1)
        with pytest.raises(ValueError, match="whole numbers"):
            gen_configuration_model(deg, seed=1)

    def test_whole_float_degrees_equal_integer_ones(self):
        g = gen_configuration_model([3.0, 2.0, 2.0, 1.0, 1.0, 1.0], seed=3)
        assert g.adjacency == gen_configuration_model(np.array([3, 2, 2, 1, 1, 1]), seed=3).adjacency


class TestRandomRegular:
    def test_k1_edge(self):
        g = gen_random_regular(2, 1, seed=1)
        assert g.adjacency == ((1,), (0,))

    def test_k3_complete(self):
        g = gen_random_regular(4, 3, seed=1)
        assert g.edge_count == 6

    def test_regularity_many_seeds(self):
        for seed in range(5):
            g = gen_random_regular(60, 3, seed=seed)
            if not g.erased_fallback:
                assert set(g.degrees) == {3}
            g.validate()

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            gen_random_regular(5, 3, seed=1)

    @pytest.mark.parametrize("k", [2.5, -1, True])
    def test_degree_must_be_a_whole_number(self, k):
        # k = 2.5 used to report "n*k must be even"
        with pytest.raises(ValueError, match="k must be a whole number"):
            gen_random_regular(10, k, seed=1)


class TestLattice:
    def test_path(self):
        rg = gen_lattice_box(1, 2)
        assert rg.vertex_count == 5
        assert rg.graph.edge_count == 4
        assert rg.root == 2

    def test_3x3_grid(self):
        rg = gen_lattice_box(2, 1)
        assert rg.vertex_count == 9
        assert rg.graph.edge_count == 12

    def test_vertex_count_arithmetic(self):
        assert gen_lattice_box(2, 32).vertex_count == 65**2

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            gen_lattice_box(3, 200)

    def test_coord_roundtrip(self):
        n, dim = 3, 2
        rg = gen_lattice_box(dim, n)
        assert graphs.lattice_index((0, 0), n, dim) == rg.root
        for idx in [0, 5, 17, 48]:
            c = graphs.lattice_coord(idx, n, dim)
            assert graphs.lattice_index(c, n, dim) == idx


class TestRegularTree:
    def test_height2_has_10_vertices(self):
        rg = gen_regular_tree(3, 2)
        assert rg.vertex_count == 10
        deg = rg.graph.degrees
        assert deg[rg.root] == 3

    def test_height0_single_vertex(self):
        assert gen_regular_tree(3, 0).vertex_count == 1

    def test_formula_k4_h3(self):
        assert gen_regular_tree(4, 3).vertex_count == 1 + 4 * (3**3 - 1) // 2

    def test_leaf_depths(self):
        rg = gen_regular_tree(3, 4)
        dist = distances_to(rg.graph, [rg.root])
        leaves = [v for v in range(rg.vertex_count) if len(rg.graph.adjacency[v]) == 1]
        assert all(dist[v] == 4 for v in leaves)

    def test_path_case(self):
        rg = gen_regular_tree(2, 3)
        assert rg.vertex_count == 7
        assert sorted(rg.graph.degrees) == [1, 1, 2, 2, 2, 2, 2]


class TestCanopy:
    def test_smallest_slab(self):
        rg = gen_canopy_truncation(3, 1, 1, root_level=0)
        assert rg.vertex_count == 3
        assert sorted(rg.graph.degrees) == [1, 1, 2]

    def test_row0_root_is_leaf(self):
        rg = gen_canopy_truncation(3, 4, 1, root_level=0)
        assert rg.graph.degrees[rg.root] == 1

    def test_interior_degree_is_d(self):
        for d in (3, 4):
            rg = gen_canopy_truncation(d, 5, 1, root_level=2)
            assert rg.graph.degrees[rg.root] == d

    def test_tree_structure(self):
        rg = gen_canopy_truncation(3, 5, 1)
        assert rg.graph.edge_count == rg.vertex_count - 1
        rg.graph.validate()


class TestComponents:
    def test_isolated_vertex(self):
        g = Graph.from_edges(3, [])
        comp = component_of(g, 1)
        assert comp.vertex_count == 1
        assert comp.origin == (1,)

    def test_triangle_full(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        comp = component_of(g, 0)
        assert comp.vertex_count == 3
        assert comp.root == 0

    def test_disjoint_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        comp = component_of(g, 2)
        assert comp.vertex_count == 2
        assert set(comp.origin) == {2, 3}
        assert comp.origin[comp.root] == 2

    def test_same_component_same_vertex_set(self):
        g = gen_erdos_renyi(80, 0.03, seed=5)
        for u in range(0, 80, 17):
            cu = component_of(g, u)
            for v in cu.origin:
                assert set(component_of(g, int(v)).origin) == set(cu.origin)

    def test_uniform_root_deterministic(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        a = uniform_root_component(g, seed=3)
        b = uniform_root_component(g, seed=3)
        assert a.origin == b.origin and a.root == b.root

    def test_uniform_root_of_an_empty_graph_raises(self):
        # used to die in numpy's Generator.integers(0, 0) with "high <= 0"
        with pytest.raises(ValueError, match="no vertices"):
            uniform_root_component(Graph(()), seed=3)


class TestLargestComponent:
    def test_sizes_3_and_2(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert largest_component(g).vertex_count == 3

    def test_tie_break_smallest_vertex(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        comp = largest_component(g)
        assert set(comp.origin) == {0, 1}
        assert comp.origin[comp.root] == 0

    def test_connected_graph(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert largest_component(g).vertex_count == 3


class TestBall:
    def test_radius_zero(self):
        rg = gen_regular_tree(3, 3)
        assert ball(rg, 0).vertex_count == 1

    def test_path_center(self):
        rg = gen_lattice_box(1, 2)
        b = ball(rg, 1)
        assert b.vertex_count == 3
        assert b.graph.edge_count == 2

    def test_regular_tree_ball_count(self):
        rg = gen_regular_tree(3, 5)
        assert ball(rg, 2).vertex_count == 10

    @pytest.mark.parametrize("k", [1.5, True, -1, "2", None])
    def test_radius_must_be_a_whole_number(self, k):
        # 1.5 used to run as radius 2 (13 vertices), True as radius 1
        with pytest.raises(ValueError, match="radius"):
            ball(gen_lattice_box(2, 3), k)


class TestInvariantsAndSerialization:
    def test_generator_outputs_validate(self):
        for seed in range(4):
            gen_erdos_renyi(150, 0.03, seed=seed).validate()
            gen_gnm(100, 180, seed=seed).validate()
            gen_configuration_model([2] * 30 + [3] * 10 + [1] * 10, seed=seed).validate()
        # these skip the connectivity walk of RootedGraph: each must be connected by construction
        built = [gen_lattice_box(dim, n) for dim in (1, 2, 3) for n in (0, 1, 3)]
        built += [gen_regular_tree(k, h) for k in (2, 3, 4) for h in (0, 1, 4)]
        built += [gen_canopy_truncation(d, 3, 1, root_level=i) for d in (3, 4) for i in range(4)]
        for rg in built:
            rg.graph.validate()
            assert 0 <= rg.root < rg.vertex_count
            assert not graphs.component_labels(rg.graph).any()

    def test_rooted_requires_connected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            RootedGraph(g, 0)

    def test_from_edges_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 5)])

    def test_pair_decode_matches_bruteforce(self):
        n = 9
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        idx = np.arange(len(pairs), dtype=np.int64)
        decoded = graphs._pair_decode(idx, n)
        assert [tuple(row) for row in decoded] == pairs


# ---------------------------------------------------------------------------
# CSR storage: invariants of every generator, derived views, references
# ---------------------------------------------------------------------------

SEEDS = st.integers(0, 2**32 - 1)

# adjacency sequences that break one invariant each, with the word naming it
BROKEN_ADJACENCY = [
    (((1,), ()), "symmetric"),
    (((1, 2), (0,), (0,), (3,)), "self-loop"),
    (((2, 1), (0,), (0,)), "sorted"),
    (((1, 1), (0, 0)), "sorted"),
    (((5,), (0,)), "range"),
]


@st.composite
def _degree_sequences(draw):
    n = draw(st.integers(2, 30))
    deg = draw(st.lists(st.integers(0, min(n - 1, 5)), min_size=n, max_size=n))
    if sum(deg) % 2:
        deg[deg.index(min(deg))] += 1
    return deg


def _regular(draw):
    n = draw(st.integers(2, 30))
    k = draw(st.integers(1, min(n - 1, 5)).filter(lambda k: n * k % 2 == 0))
    return gen_random_regular(n, k, draw(SEEDS))


def _canopy(draw):
    levels = draw(st.integers(1, 3))
    return gen_canopy_truncation(draw(st.integers(3, 4)), levels, draw(st.integers(1, 3)),
                                 root_level=draw(st.integers(0, levels))).graph


def _forest(draw):
    rho = trees.poisson_dist(draw(st.floats(0.0, 3.0)))
    child = trees.size_biased(rho) if rho.mean() > 0 else trees.delta_dist(0)
    return trees.sample_forest(rho, child, draw(st.integers(0, 4)), draw(st.integers(1, 20)),
                               draw(SEEDS), vertex_budget=draw(st.integers(5, 100))).graph


@st.composite
def generated_graphs(draw):
    kind = draw(st.sampled_from(["er", "gnm", "cm", "regular", "lattice", "tree", "canopy", "forest", "ball"]))
    if kind == "er":
        return gen_erdos_renyi(draw(st.integers(1, 40)), draw(st.floats(0.0, 1.0)), draw(SEEDS))
    if kind == "gnm":
        n = draw(st.integers(1, 25))
        return gen_gnm(n, draw(st.integers(0, n * (n - 1) // 2)), draw(SEEDS))
    if kind == "cm":
        return gen_configuration_model(draw(_degree_sequences()), draw(SEEDS), max_pairing_attempts=3)
    if kind == "regular":
        return _regular(draw)
    if kind == "lattice":
        return gen_lattice_box(draw(st.integers(1, 3)), draw(st.integers(0, 3))).graph
    if kind == "tree":
        return gen_regular_tree(draw(st.integers(2, 4)), draw(st.integers(0, 4))).graph
    if kind == "canopy":
        return _canopy(draw)
    if kind == "forest":
        return _forest(draw)
    g = gen_erdos_renyi(draw(st.integers(1, 40)), 0.1, draw(SEEDS))
    return ball(component_of(g, draw(st.integers(0, g.vertex_count - 1))), draw(st.integers(0, 3))).graph


def _reference_edges(g):
    return [(u, v) for u in range(g.vertex_count) for v in g.adjacency[u] if u < v]


def _reference_labels(g):
    labels = [-1] * g.vertex_count
    for v in range(g.vertex_count):
        if labels[v] < 0:
            stack, labels[v] = [v], v
            while stack:
                for w in g.adjacency[stack.pop()]:
                    if labels[w] < 0:
                        labels[w] = v
                        stack.append(w)
    return labels


def _reference_bfs(g, sources, depth):
    """BFS by its definition: the distinct sources in increasing order, then
    each level in the order in which the rows of the level before, read in
    turn, first meet it; and the number of vertices within each distance up
    to ``depth``."""
    order = sorted(set(sources))
    seen, ends = set(order), [len(order)]
    for _ in range(depth):
        for u in order[ends[-2] if len(ends) > 1 else 0 : ends[-1]]:
            for w in g.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        ends.append(len(order))
    return order, ends


def _reference_distances(g, region):
    big = np.iinfo(np.int64).max
    dist = [big] * g.vertex_count
    frontier = sorted(set(region))
    for v in frontier:
        dist[v] = 0
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for w in g.adjacency[u]:
                if dist[w] == big:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return dist


class TestCsrStorage:
    @settings(max_examples=150)
    @given(generated_graphs())
    def test_generators_satisfy_the_invariants(self, g):
        g.validate()
        assert g.indptr.dtype == g.indices.dtype == np.int64
        assert g.edge_count == len(_reference_edges(g))

    @settings(max_examples=100)
    @given(generated_graphs())
    def test_views_round_trip(self, g):
        h = Graph(g.adjacency)
        assert h.adjacency == g.adjacency
        assert h == g and hash(h) == hash(g)
        assert [tuple(e) for e in g.edges().tolist()] == _reference_edges(g)
        assert Graph.from_edges(g.vertex_count, g.edges()) == g
        assert list(g.degrees) == [len(a) for a in g.adjacency]

    @settings(max_examples=100)
    @given(generated_graphs(), st.data())
    def test_traversals_match_loop_references(self, g, data):
        assert graphs.component_labels(g).tolist() == _reference_labels(g)
        region = data.draw(st.lists(st.integers(0, g.vertex_count - 1), min_size=1, max_size=3))
        assert distances_to(g, region).tolist() == _reference_distances(g, region)
        v = data.draw(st.integers(0, g.vertex_count - 1))
        order, ends = graphs._levels(g, [v], 2)
        assert (order.tolist(), ends) == _reference_bfs(g, [v], 2)

    @settings(max_examples=100)
    @given(generated_graphs(), st.data())
    def test_components_and_balls_keep_the_bfs_order(self, g, data):
        v = data.draw(st.integers(0, g.vertex_count - 1))
        k = data.draw(st.integers(0, 4))
        comp = component_of(g, v)
        assert list(comp.origin) == _reference_bfs(g, [v], g.vertex_count)[0]
        assert all(type(u) is int for u in comp.origin)
        assert list(ball(comp, k).origin) == _reference_bfs(comp.graph, [0], k)[0]

    @settings(max_examples=100)
    @given(st.lists(generated_graphs(), max_size=4))
    def test_disjoint_union_shifts_each_edge_list(self, parts):
        union, first = graphs._disjoint_union(parts)
        sizes = [g.vertex_count for g in parts]
        assert first.tolist() == [sum(sizes[:i]) for i in range(len(parts))]
        edges = [(u + f, v + f) for g, f in zip(parts, first.tolist()) for u, v in g.edges().tolist()]
        assert union == Graph.from_edges(sum(sizes), edges)
        union.validate()

    @pytest.mark.parametrize("sizes", [[], [1], [3, 1, 2], [0, 2]])
    def test_disjoint_union_of_edgeless_parts(self, sizes):
        union, first = graphs._disjoint_union([Graph.from_edges(n, []) for n in sizes])
        assert union == Graph.from_edges(sum(sizes), [])
        assert first.dtype == np.int64 and first.tolist() == [sum(sizes[:i]) for i in range(len(sizes))]

    def test_induced_renumbers_in_the_given_order(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert graphs._induced(g, [3, 0, 4]) == Graph.from_edges(3, [(0, 2), (1, 2)])
        assert graphs._induced(g, []) == Graph.from_edges(0, [])

    def test_equality_ignores_erased_fallback(self):
        a = Graph(((1,), (0,)))
        b = graphs._from_csr(a.indptr, a.indices, True)
        assert a == b and hash(a) == hash(b) and b.erased_fallback
        assert a != Graph(((), ())) and a != Graph(((1,), (0,), ()))

    def test_graph_is_immutable(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(AttributeError):
            g.indices = np.zeros(4, dtype=np.int64)
        for arr in (g.indptr, g.indices, g.degrees, g.edge_src):
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize("adjacency, message", BROKEN_ADJACENCY)
    def test_validate_rejects_broken_storage(self, adjacency, message):
        indptr = np.cumsum([0, *map(len, adjacency)])
        indices = np.array([v for row in adjacency for v in row], dtype=np.int64)
        with pytest.raises(AssertionError, match=message):
            graphs._from_csr(indptr, indices).validate()

    @pytest.mark.parametrize("adjacency, message", BROKEN_ADJACENCY)
    def test_constructor_rejects_broken_adjacency(self, adjacency, message):
        # Graph(((1,), ())) used to run voter as a directed graph, and
        # Graph(((5,), (0,))) to fail later with an IndexError
        with pytest.raises(ValueError, match=message):
            Graph(adjacency)

    def test_empty_and_edgeless(self):
        for g in (Graph(()), Graph(((), (), ())), gen_gnm(4, 0, seed=1)):
            g.validate()
            assert g.edges().shape == (0, 2) and g.edge_count == 0
        assert graphs.component_labels(Graph(((), (), ()))).tolist() == [0, 1, 2]

    def test_distances_reject_bad_regions(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert distances_to(g, [0]).tolist() == [0, 1, np.iinfo(np.int64).max]
        for region in ([], [3], [-1]):
            with pytest.raises(ValueError):
                distances_to(g, region)


class TestLevels:
    """``graphs._levels``, the one BFS, against the loop references ``_reference_bfs``
    (visit order and level ends) and ``_reference_distances``."""

    @settings(max_examples=150)
    @given(generated_graphs(), st.data())
    def test_matches_capped_distances(self, g, data):
        n = g.vertex_count
        depth = data.draw(st.none() | st.integers(0, 5))
        # a prefix 0..s-1 takes the id-range path, as forest roots do; a list may repeat and be unsorted
        if data.draw(st.booleans()):
            sources = list(range(data.draw(st.integers(1, n))))
        else:
            sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
        order, ends = graphs._levels(g, np.array(sources), depth)
        assert order.tolist() == _reference_bfs(g, sources, n if depth is None else depth)[0]
        dist = _reference_distances(g, sources)
        last = max(d for d in dist if d < n) if depth is None else depth  # None walks to the last level
        assert ends == [sum(d <= j for d in dist) for j in range(last + 1)]

    def test_range_path_falls_back_to_index_arrays(self):
        # 0 - 2 - 1: the range after level {0} would be {1}, whose smallest neighbour is not below it
        g = Graph.from_edges(4, [(0, 2), (2, 1), (1, 3)])
        order, ends = graphs._levels(g, np.array([0]), 3)
        assert order.tolist() == [0, 2, 1, 3] and ends == [1, 2, 3, 4]
        order, ends = graphs._levels(g, np.array([0]), 1)
        assert order.tolist() == [0, 2] and ends == [1, 2]
        # 0 - 3, 1 - 2: the level after {0, 1} is the range {2, 3}, but row 0 meets 3 first
        order, ends = graphs._levels(Graph.from_edges(4, [(0, 3), (1, 2)]), np.arange(2), 2)
        assert order.tolist() == [0, 1, 3, 2] and ends == [2, 4, 4]

    def test_forest_levels_are_generations(self):
        rho = trees.poisson_dist(2.0)
        f = trees.sample_forest(rho, trees.size_biased(rho), 4, 50, 3)
        order, ends = graphs._levels(f.graph, f.roots, 4)
        # numbered generation by generation, each in its parents' order: the visit order is 0..n-1
        assert np.array_equal(order, np.arange(f.graph.vertex_count))
        assert (order.tolist(), ends) == _reference_bfs(f.graph, f.roots.tolist(), 4)
