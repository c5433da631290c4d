import collections
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedyn import localtopo, trees
from sparsedyn.graphs import (
    Graph,
    MarkedGraph,
    RootedGraph,
    ball,
    component_of,
    gen_erdos_renyi,
    gen_configuration_model,
    gen_lattice_box,
    gen_random_regular,
    gen_regular_tree,
)
from sparsedyn.localtopo import (
    BallHistogram,
    canonical_code,
    d_star_marked,
    d_star_unmarked,
    histogram_of_samples,
    histogram_tv,
    lw_deficiency,
    neighborhood_histogram,
    rooted_isomorphic,
)


def brute_force_isomorphic(a: RootedGraph, b: RootedGraph) -> bool:
    """Oracle: try every root-fixing bijection."""
    na, nb = a.vertex_count, b.vertex_count
    if na != nb:
        return False
    adj_a = [set(x) for x in a.graph.adjacency]
    adj_b = [set(x) for x in b.graph.adjacency]
    others_a = [v for v in range(na) if v != a.root]
    others_b = [v for v in range(nb) if v != b.root]
    for perm in itertools.permutations(others_b):
        phi = {a.root: b.root}
        phi.update(dict(zip(others_a, perm)))
        if all({phi[w] for w in adj_a[v]} == adj_b[phi[v]] for v in range(na)):
            return True
    return False


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestCanonicalCode:
    def test_single_vertex_fixed(self):
        c1 = canonical_code(RootedGraph(Graph(((),)), 0))
        c2 = canonical_code(RootedGraph(Graph(((),)), 0))
        assert c1 == c2

    def test_path3_center_vs_end(self):
        g = path_graph(3)
        assert canonical_code(RootedGraph(g, 1)) != canonical_code(RootedGraph(g, 0))

    def test_relabel_invariance_regular_tree(self):
        rg = gen_regular_tree(3, 2)
        n = rg.vertex_count
        perm = np.random.default_rng(5).permutation(n)
        edges = [(int(perm[u]), int(perm[v])) for u, v in rg.graph.edges()]
        relabeled = RootedGraph(Graph.from_edges(n, edges), int(perm[rg.root]))
        assert canonical_code(rg) == canonical_code(relabeled)

    def test_general_code_cycle_vs_chord(self):
        cyc = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        chord = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
        assert canonical_code(RootedGraph(cyc, 0)) != canonical_code(RootedGraph(chord, 0))

    def test_size_cap(self):
        n = localtopo.GENERAL_CODE_CAP + 2
        edges = [(i, (i + 1) % n) for i in range(n)]
        rg = RootedGraph(Graph.from_edges(n, edges), 0)
        with pytest.raises(localtopo.CodeSizeError):
            canonical_code(rg)

    def test_sparse_cycle_ball_ok_beyond_24(self):
        # near-tree graphs past the tree class still encode quickly, and the
        # code stays relabel-invariant
        n = 30
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, 5)]
        perm = np.random.default_rng(3).permutation(n)
        relabeled = [(int(perm[u]), int(perm[v])) for u, v in edges]
        a = RootedGraph(Graph.from_edges(n, edges), 0)
        b = RootedGraph(Graph.from_edges(n, relabeled), int(perm[0]))
        assert canonical_code(a) == canonical_code(b)

    def test_tree_any_size_ok(self):
        rg = gen_regular_tree(3, 8)  # 766 vertices, fine for the tree path
        assert canonical_code(rg) == canonical_code(gen_regular_tree(3, 8))


class TestCodeAgreesWithBruteForce:
    def all_connected_rooted(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = Graph.from_edges(n, edges)
            labels = [-1] * n
            stack, labels[0] = [0], 0
            while stack:
                u = stack.pop()
                for v in g.adjacency[u]:
                    if labels[v] < 0:
                        labels[v] = 0
                        stack.append(v)
            if all(x == 0 for x in labels):
                yield g

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small(self, n):
        buckets = {}
        for g in self.all_connected_rooted(n):
            for root in range(n):
                rg = RootedGraph(g, root)
                buckets.setdefault(canonical_code(rg), []).append(rg)
        # same code  =>  brute-force isomorphic
        for members in buckets.values():
            head = members[0]
            for other in members[1:3]:
                assert brute_force_isomorphic(head, other)
        # different code  =>  brute-force non-isomorphic (sampled pairs)
        reps = [members[0] for members in buckets.values()]
        for i in range(len(reps)):
            for j in range(i + 1, min(i + 4, len(reps))):
                assert not brute_force_isomorphic(reps[i], reps[j])

    def test_exhaustive_n5_sampled(self):
        gen = np.random.default_rng(0)
        buckets = {}
        graphs5 = list(self.all_connected_rooted(5))
        for g in graphs5:
            root = int(gen.integers(0, 5))
            rg = RootedGraph(g, root)
            buckets.setdefault(canonical_code(rg), []).append(rg)
        for members in buckets.values():
            head = members[0]
            for other in members[1:2]:
                assert brute_force_isomorphic(head, other)
        reps = [m[0] for m in buckets.values()]
        idx = gen.integers(0, len(reps), size=(60, 2))
        for i, j in idx:
            if i != j:
                assert not brute_force_isomorphic(reps[i], reps[j])

    @pytest.mark.parametrize("n", [6, 7])
    def test_relabel_invariance_random(self, n):
        gen = np.random.default_rng(n)
        for trial in range(25):
            g = gen_erdos_renyi(n, 0.45, seed=trial)
            labels = [-1] * n
            stack, labels[0] = [0], 0
            while stack:
                u = stack.pop()
                for v in g.adjacency[u]:
                    if labels[v] < 0:
                        labels[v] = 0
                        stack.append(v)
            if any(x < 0 for x in labels):
                continue
            perm = gen.permutation(n)
            edges = [(int(perm[u]), int(perm[v])) for u, v in g.edges()]
            g2 = Graph.from_edges(n, edges)
            root = int(gen.integers(0, n))
            assert canonical_code(RootedGraph(g, root)) == canonical_code(
                RootedGraph(g2, int(perm[root]))
            )


def random_connected(n, extra, gen):
    """Random connected graph: a random recursive tree plus ``extra`` chords."""
    edges = {(int(gen.integers(0, i)), i) for i in range(1, n)}
    pairs = [p for p in itertools.combinations(range(n), 2) if p not in edges]
    for i in gen.permutation(len(pairs))[:extra]:
        edges.add(pairs[i])
    return Graph.from_edges(n, sorted(edges))


def poisson_cm(n, seed):
    """Configuration model with i.i.d. Poisson(2) degrees (an even sum forced)."""
    deg = np.minimum(np.random.default_rng(seed).poisson(2.0, n), n - 1)
    if deg.sum() % 2:
        deg[int(np.argmin(deg))] += 1
    return gen_configuration_model(deg, seed)


def relabeled(rg, gen):
    perm = gen.permutation(rg.vertex_count)
    return RootedGraph(Graph.from_edges(rg.vertex_count, perm[rg.graph.edges()]), int(perm[rg.root]))


class TestNetworkxOracle:
    """``rooted_isomorphic`` against networkx's VF2 with the root as a node flag."""

    @staticmethod
    def expected(a, b):
        nx = pytest.importorskip("networkx")

        def as_nx(rg):
            h = nx.Graph()
            h.add_nodes_from((v, {"root": v == rg.root}) for v in range(rg.vertex_count))
            h.add_edges_from(rg.graph.edges().tolist())
            return h

        return nx.is_isomorphic(as_nx(a), as_nx(b), node_match=lambda x, y: x["root"] == y["root"])

    @pytest.mark.parametrize("extra", [0, 1, 3])
    def test_random_connected_rooted_graphs(self, extra):
        gen = np.random.default_rng(100 + extra)
        outcomes = []
        for _ in range(60):
            n = int(gen.integers(2, 10))
            extra_n = min(extra, n * (n - 1) // 2 - (n - 1))
            a = RootedGraph(random_connected(n, extra_n, gen), int(gen.integers(0, n)))
            # a relabeled copy rooted anywhere, and a fresh graph of the same size
            moved = relabeled(a, gen)
            others = [RootedGraph(moved.graph, int(gen.integers(0, n))),
                      RootedGraph(random_connected(n, extra_n, gen), int(gen.integers(0, n)))]
            assert rooted_isomorphic(a, moved) and self.expected(a, moved)
            for b in others:
                outcomes.append(self.expected(a, b))
                assert rooted_isomorphic(a, b) == outcomes[-1]
        assert any(outcomes) and not all(outcomes)

    @pytest.mark.parametrize("r", [1, 2])
    def test_balls_of_random_graphs(self, r):
        outcomes, cyclic = [], 0
        for seed in range(3):
            g = gen_erdos_renyi(40, 3.5 / 40, seed=seed)
            balls = [ball(component_of(g, v), r) for v in range(g.vertex_count)]
            cyclic += sum(b.graph.edge_count >= b.vertex_count for b in balls)
            by_size = {}
            for b in balls:
                by_size.setdefault((b.vertex_count, b.graph.edge_count), []).append(b)
            for group in by_size.values():
                for a, b in itertools.combinations(group[:6], 2):
                    outcomes.append(self.expected(a, b))
                    assert rooted_isomorphic(a, b) == outcomes[-1]
        assert any(outcomes) and not all(outcomes) and cyclic

    def test_r3_balls_of_poisson_graphs(self):
        outcomes, cyclic = [], 0
        for seed in range(3):
            g = poisson_cm(200, seed)
            balls = [ball(component_of(g, v), 3) for v in range(g.vertex_count)]
            cyclic += sum(b.graph.edge_count >= b.vertex_count for b in balls)
            by_size = {}
            for b in balls:
                by_size.setdefault((b.vertex_count, b.graph.edge_count), []).append(b)
            for group in by_size.values():
                for a, b in itertools.combinations(group[:5], 2):
                    outcomes.append(self.expected(a, b))
                    assert rooted_isomorphic(a, b) == outcomes[-1]
        assert any(outcomes) and not all(outcomes) and cyclic


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
    return Graph.from_edges(n, sorted(chosen))


class TestBallCodeProperty:
    @settings(max_examples=150)
    @given(small_graphs(), st.integers(0, 4), st.randoms(use_true_random=False))
    def test_ball_code_is_the_code_of_the_cut_ball(self, g, r, rnd):
        # cyclic balls included; relabeling the graph leaves every code unchanged
        perm = np.array(rnd.sample(range(g.vertex_count), g.vertex_count), dtype=np.int64)
        moved = Graph.from_edges(g.vertex_count, perm[g.edges()])
        for v in range(g.vertex_count):
            code = localtopo._ball_code_from(g, v, r)
            assert code == canonical_code(ball(component_of(g, v), r))
            assert code == localtopo._ball_code_from(moved, int(perm[v]), r)

    @settings(max_examples=20)
    @given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
    def test_r3_balls_of_poisson_graphs(self, seed, rnd):
        g = poisson_cm(120, seed)
        perm = np.array(rnd.sample(range(g.vertex_count), g.vertex_count), dtype=np.int64)
        moved = Graph.from_edges(g.vertex_count, perm[g.edges()])
        for v in range(g.vertex_count):
            code = localtopo._ball_code_from(g, v, 3)
            assert code == canonical_code(ball(component_of(g, v), 3))
            assert code == localtopo._ball_code_from(moved, int(perm[v]), 3)


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def histogram_cases(draw):
    """A radius in 0..4 and a small ER graph, Poisson configuration model,
    dense small graph, edgeless graph, or cycle of length 2r+1 or 2r+2."""
    r = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["er", "poisson", "dense", "edgeless", "odd_cycle", "even_cycle"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "er":
        g = gen_erdos_renyi(draw(st.integers(1, 40)), draw(st.floats(0.0, 0.3)), seed)
    elif kind == "poisson":
        g = poisson_cm(draw(st.integers(2, 60)), seed)
    elif kind == "dense":
        g = draw(small_graphs())
    elif kind == "edgeless":
        g = Graph.from_edges(draw(st.integers(1, 10)), [])
    else:
        g = cycle_graph(max(3, 2 * r + (1 if kind == "odd_cycle" else 2)))
    return g, r


class TestBulkHistogram:
    """neighborhood_histogram codes tree balls in bulk; it must count exactly
    the codes that coding every ball on its own gives."""

    @settings(max_examples=200)
    @given(histogram_cases())
    def test_counts_equal_the_per_vertex_tally(self, case):
        g, r = case
        codes = [localtopo._ball_code_from(g, v, r) for v in range(g.vertex_count)]
        h = neighborhood_histogram(g, r)
        assert h.counts == collections.Counter(codes) and h.total == g.vertex_count
        assert list(h.counts) == list(dict.fromkeys(codes))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_cycles_just_inside_and_outside_the_ball(self, r):
        # C_{2r+1} closes with an edge between the two vertices at depth r
        (odd,) = neighborhood_histogram(cycle_graph(2 * r + 1), r).counts
        (even,) = neighborhood_histogram(cycle_graph(2 * r + 2), r).counts
        assert odd.startswith(b"G") and even == canonical_code(ball(RootedGraph(path_graph(2 * r + 1), r), r))

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_tree_test_across_vertex_blocks(self, r):
        g = poisson_cm(3 * localtopo._TREE_TEST_BLOCK + 17, 5)
        want = [len(localtopo._ball(g, v, r)[3]) == 1 for v in range(g.vertex_count)]
        assert localtopo._tree_balls(g, r, np.arange(g.vertex_count)).tolist() == want
        assert r < 2 or not all(want)


@st.composite
def forests(draw):
    """A forest on up to 15 vertices: each vertex hangs from an earlier one or starts a tree."""
    n = draw(st.integers(1, 15))
    parents = [draw(st.integers(-1, i - 1)) for i in range(1, n)]
    return Graph.from_edges(n, [(p, i) for i, p in enumerate(parents, 1) if p >= 0])


class TestRootCodes:
    """_root_codes cuts the graph to the roots' balls and codes them in bulk;
    it must return the code of each root's ball on its own, in root order."""

    @settings(max_examples=300)
    @given(st.one_of(small_graphs(), forests()), st.integers(0, 4), st.data())
    def test_equals_the_per_root_codes(self, g, r, data):
        order = data.draw(st.permutations(range(g.vertex_count)))
        roots = order[: data.draw(st.integers(0, g.vertex_count))]
        want = [localtopo._ball_code_from(g, v, r) for v in roots]
        assert localtopo._root_codes(g, roots, r) == want

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_roots_far_apart_in_a_poisson_graph(self, r):
        g = poisson_cm(400, 11)
        roots = np.random.default_rng(r).permutation(g.vertex_count)[:37]
        want = [localtopo._ball_code_from(g, int(v), r) for v in roots]
        assert localtopo._root_codes(g, roots, r) == want

    def test_a_star_is_coded_in_memory_that_grows_with_its_edges(self):
        n = 5001
        g = Graph.from_edges(n, np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)]))
        tracemalloc.start()
        try:
            codes = localtopo._unrolled_codes(g, 2, np.arange(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an n x (largest degree) int64 matrix alone would be 200 MB
        assert peak < 20e6
        assert codes[0] == localtopo._ball_code_from(g, 0, 2)
        assert codes[1:] == [localtopo._ball_code_from(g, 1, 2)] * (n - 1)


@st.composite
def rooted_samples(draw):
    """A UGW tree (often deeper than the radius), a tree cut at its vertex
    budget, a single vertex, a tree renumbered and rooted anywhere, or a
    component of a small dense graph (often cyclic)."""
    kind = draw(st.sampled_from(["ugw", "truncated", "vertex", "relabeled", "component"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "ugw":
        rho = draw(st.sampled_from([trees.poisson_dist(2.0), trees.delta_dist(3), trees.poisson_dist(0.7)]))
        return trees.sample_ugw(rho, draw(st.integers(0, 6)), seed)
    if kind == "truncated":
        return trees.sample_ugw(trees.poisson_dist(3.0), 6, seed, vertex_budget=draw(st.integers(1, 15)))
    if kind == "vertex":
        return RootedGraph(Graph(((),)), 0)
    if kind == "relabeled":
        tree = trees.sample_ugw(trees.poisson_dist(2.0), draw(st.integers(1, 5)), seed)
        perm = np.random.default_rng(seed).permutation(tree.vertex_count)
        g = Graph.from_edges(tree.vertex_count, perm[tree.graph.edges()])
        return RootedGraph(g, draw(st.integers(0, tree.vertex_count - 1)))
    g = draw(small_graphs())
    return component_of(g, draw(st.integers(0, g.vertex_count - 1)))


class TestSampleHistogram:
    """histogram_of_samples codes tree samples in bulk; it must count exactly
    the codes that coding every sample's ball on its own gives."""

    @settings(max_examples=200)
    @given(st.lists(rooted_samples(), max_size=12), st.integers(0, 4), st.booleans())
    def test_counts_equal_the_per_sample_tally(self, samples, r, lazy):
        codes = [localtopo._ball_code_from(rg.graph, rg.root, r) for rg in samples]
        h = histogram_of_samples((rg for rg in samples) if lazy else samples, r)
        assert h.counts == collections.Counter(codes) and h.total == len(samples)
        assert list(h.counts) == list(dict.fromkeys(codes))

    @pytest.mark.parametrize("r", [0, 2])
    def test_empty_iterable(self, r):
        h = histogram_of_samples(iter(()), r)
        assert h.counts == {} and h.total == 0


class TestPeeledCoder:
    """Balls are coded from their core once the hanging trees are peeled."""

    def test_every_ball_of_poisson_graphs_codes(self):
        # at r >= 2 whole-ball searches gave up on such balls at the effort cap
        cyclic = 0
        for seed in range(3):
            g = poisson_cm(1000, seed)
            for r in (2, 3, 4):
                cyclic += sum(localtopo._ball_code_from(g, v, r).startswith(b"G")
                              for v in range(g.vertex_count))
        assert cyclic > 1000

    def test_tree_ball_core_is_the_root(self):
        order, kids, codes, core = localtopo._ball(gen_regular_tree(3, 3).graph, 0, 2)
        assert core == {0: []} and codes[0] == canonical_code(gen_regular_tree(3, 2))
        assert sorted(i for ks in kids for i in ks) == list(range(1, len(order)))

    def test_core_of_a_cycle_with_a_tail(self):
        # a 4-cycle through the root, a path of 3 hanging from the far corner
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6)])
        order, kids, codes, core = localtopo._ball(g, 0, None)
        assert sorted(order[i] for i in core) == [0, 1, 2, 3]
        assert codes[order.index(2)] == b"(((())))"

    def test_marked_distance_on_a_large_ball_with_a_small_core(self):
        # a triangle whose corners carry 4 leaves each: 15 vertices, core of 3
        edges = [(0, 1), (1, 2), (2, 0)] + [(c, 3 + 4 * c + i) for c in range(3) for i in range(4)]
        g = Graph.from_edges(15, edges)
        marks = np.random.default_rng(7).uniform(0.0, 1.0, 15)
        perm = np.random.default_rng(8).permutation(15)
        moved = RootedGraph(Graph.from_edges(15, perm[g.edges()]), int(perm[1]))
        a = MarkedGraph(RootedGraph(g, 1), marks)
        b = MarkedGraph(moved, marks[np.argsort(perm)])
        assert d_star_marked(a, b, 3).lower == 0.0
        shifted = MarkedGraph(moved, marks[np.argsort(perm)] + 0.25)
        assert abs(d_star_marked(a, shifted, 3).lower - 0.25 * (1 - 2.0**-3)) < 1e-12


class TestRadiusCheck:
    @pytest.mark.parametrize("r", [-1, 1.5, "2", None, True])  # True used to run as radius 1
    def test_bad_radius_raises(self, r):
        g = path_graph(4)
        rooted = RootedGraph(g, 0)
        if r is not None:  # None asks _ball for a whole component
            with pytest.raises(ValueError, match="radius"):
                localtopo._ball_code_from(g, 0, r)
        with pytest.raises(ValueError, match="radius"):
            neighborhood_histogram(g, r)
        with pytest.raises(ValueError, match="radius"):
            histogram_of_samples([rooted], r)
        with pytest.raises(ValueError, match="radius"):
            lw_deficiency(g, lambda s: rooted, r, 5, 0)
        with pytest.raises(ValueError, match="radius"):
            localtopo.two_root_independence_gap(lambda s: g, r, 5, 0)

    def test_fractional_or_outside_vertex_raises(self):
        # the ball walk cast the start with int(), so 0.5 coded vertex 0's ball, and -1 coded a lone vertex
        g = path_graph(3)
        with pytest.raises(ValueError, match="vertex must be given as integers"):
            localtopo._ball_code_from(g, 0.5, 1)
        for v in (-1, 3):
            with pytest.raises(ValueError, match="vertex out of range"):
                localtopo._ball_code_from(g, v, 1)
        assert localtopo._ball_code_from(g, np.int64(1), 1) == localtopo._ball_code_from(g, 1, 1)

    def test_whole_radii_pass(self):
        g = path_graph(4)
        assert neighborhood_histogram(g, np.int64(1)).counts == neighborhood_histogram(g, 1).counts
        assert len(neighborhood_histogram(g, 0).counts) == 1


class TestEmptyHistograms:
    def test_tv_of_an_empty_histogram_raises(self):
        full = BallHistogram({b"A": 1}, 1, 1)
        empty = histogram_of_samples([], 1)
        for a, b in ((full, empty), (empty, full), (empty, empty)):
            with pytest.raises(ValueError, match="total 0"):
                histogram_tv(a, b)

    def test_lw_deficiency_without_samples_raises(self):
        single = RootedGraph(Graph(((),)), 0)
        with pytest.raises(ValueError, match="n_samples"):
            lw_deficiency(Graph.from_edges(4, []), lambda s: single, 2, 0, 0)

    def test_two_root_gap_without_pairs_raises(self):
        with pytest.raises(ValueError, match="n_pairs must be a whole number >= 1"):
            localtopo.two_root_independence_gap(lambda s: path_graph(4), 1, 0, 0)


class TestRootedIsomorphic:
    def test_examples(self):
        g = path_graph(3)
        assert not rooted_isomorphic(RootedGraph(g, 1), RootedGraph(g, 0))
        assert rooted_isomorphic(RootedGraph(g, 0), RootedGraph(g, 2))
        assert rooted_isomorphic(gen_regular_tree(3, 2), gen_regular_tree(3, 2))

    def test_ball_idempotence_up_to_isomorphism(self):
        rg = gen_erdos_renyi(60, 0.05, seed=3)
        comp = None
        from sparsedyn.graphs import largest_component

        comp = largest_component(rg)
        for k in (1, 2, 3):
            assert rooted_isomorphic(ball(comp, k), ball(ball(comp, k + 1), k))


class TestDStarUnmarked:
    def test_equal_inputs(self):
        rg = gen_regular_tree(3, 3)
        iv = d_star_unmarked(rg, rg, 6)
        assert iv.lower == 0.0
        assert iv.upper == 2.0**-6

    def test_vertex_vs_edge(self):
        v = RootedGraph(Graph(((),)), 0)
        e = RootedGraph(Graph.from_edges(2, [(0, 1)]), 0)
        iv = d_star_unmarked(v, e, 10)
        assert abs(iv.lower - 1023 / 1024) < 1e-15

    def test_deep_trees_agree_to_truncation(self):
        a, b = gen_regular_tree(3, 5), gen_regular_tree(3, 7)
        iv = d_star_unmarked(a, b, 4)
        assert iv.lower == 0.0
        assert iv.upper == 2.0**-4

    def test_symmetry_and_triangle(self):
        rgs = []
        for seed in range(6):
            g = gen_erdos_renyi(8, 0.4, seed=seed)
            from sparsedyn.graphs import largest_component

            rgs.append(largest_component(g))
        for a in rgs[:3]:
            for b in rgs[:3]:
                assert d_star_unmarked(a, b, 5).lower == d_star_unmarked(b, a, 5).lower
        for a, b, c in itertools.permutations(rgs[:4], 3):
            dab = d_star_unmarked(a, b, 5).lower
            dbc = d_star_unmarked(b, c, 5).lower
            dac = d_star_unmarked(a, c, 5).lower
            assert dac <= dab + dbc + 1e-12


class TestDStarMarked:
    def test_identical(self):
        rg = gen_regular_tree(3, 2)
        marks = np.linspace(0.0, 1.0, rg.vertex_count)
        mg = MarkedGraph(rg, marks)
        iv = d_star_marked(mg, mg, 5)
        assert iv.lower == 0.0 and iv.upper == 2.0**-5

    def test_uniform_shift(self):
        rg = gen_regular_tree(3, 2)
        eps = 0.25
        base = np.linspace(0.0, 1.0, rg.vertex_count)
        a = MarkedGraph(rg, base)
        b = MarkedGraph(rg, base + eps)
        k_max = 6
        iv = d_star_marked(a, b, k_max)
        assert abs(iv.lower - eps * (1 - 2.0**-k_max)) < 1e-9

    def test_far_difference_invisible(self):
        g = path_graph(5)
        rg = RootedGraph(g, 0)
        base = np.zeros(5)
        other = base.copy()
        other[3] = 9.0  # distance 3 from the root
        iv = d_star_marked(MarkedGraph(rg, base), MarkedGraph(rg, other), 2)
        assert iv.lower == 0.0
        assert iv.upper == 0.25

    def test_monotone_as_marks_equalize(self):
        rg = gen_regular_tree(3, 2)
        gen = np.random.default_rng(1)
        target = gen.uniform(0, 1, rg.vertex_count)
        moving = gen.uniform(0, 1, rg.vertex_count)
        prev = None
        for equalized in range(rg.vertex_count + 1):
            marks = moving.copy()
            marks[:equalized] = target[:equalized]
            lo = d_star_marked(MarkedGraph(rg, marks), MarkedGraph(rg, target), 4).lower
            if prev is not None:
                assert lo <= prev + 1e-12
            prev = lo

    def test_permuted_marks_on_symmetric_tree(self):
        # swapping marks between isomorphic branches must cost nothing
        rg = gen_regular_tree(3, 1)  # star: root + 3 leaves
        a = MarkedGraph(rg, np.array([0.5, 1.0, 2.0, 3.0]))
        b = MarkedGraph(rg, np.array([0.5, 3.0, 1.0, 2.0]))
        iv = d_star_marked(a, b, 3)
        assert iv.lower == 0.0

    def test_general_graph_marked(self):
        cyc = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        a = MarkedGraph(RootedGraph(cyc, 0), np.array([0.0, 1.0, 2.0, 1.0]))
        b = MarkedGraph(RootedGraph(cyc, 0), np.array([0.0, 1.0, 2.0, 1.0]))
        assert d_star_marked(a, b, 3).lower == 0.0
        c = MarkedGraph(RootedGraph(cyc, 0), np.array([0.0, 1.0, 2.0, 1.5]))
        lo = d_star_marked(a, c, 3).lower
        # best isomorphism still pays 0.5 at radius >= 1
        assert abs(lo - 0.5 * (0.5 + 0.25 + 0.125)) < 1e-12

    def test_lattice_ball_with_a_large_core(self):
        # the 5x5 box has no leaves, so its radius-4 core is all 25 vertices;
        # a cap of 12 core vertices used to reject it
        rg = gen_lattice_box(2, 2)
        marks = np.random.default_rng(5).uniform(0.0, 1.0, rg.vertex_count)
        a = MarkedGraph(rg, marks)
        assert d_star_marked(a, a, 4) == localtopo.Interval(0.0, 0.0625)
        assert d_star_marked(a, MarkedGraph(rg, marks + 0.25), 4) == localtopo.Interval(0.234375, 0.296875)
        # a quarter turn about the root is a ball isomorphism: it costs nothing
        turned = np.rot90(marks.reshape(5, 5)).ravel()
        assert d_star_marked(a, MarkedGraph(rg, turned), 4).lower == 0.0


class TestHistograms:
    def test_empty_graph_single_type(self):
        h = neighborhood_histogram(Graph.from_edges(5, []), 1)
        assert len(h.counts) == 1 and h.total == 5

    def test_triangle_single_type(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        h = neighborhood_histogram(g, 1)
        assert len(h.counts) == 1 and set(h.counts.values()) == {3}

    def test_path4_two_types(self):
        h = neighborhood_histogram(path_graph(4), 1)
        assert sorted(h.counts.values()) == [2, 2]

    def test_tv_basics(self):
        h = neighborhood_histogram(path_graph(4), 1)
        assert histogram_tv(h, h) == 0.0
        g2 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        h2 = neighborhood_histogram(g2, 1)
        assert histogram_tv(h, h2) == 1.0

    def test_tv_half(self):
        a = BallHistogram({b"A": 1, b"B": 1}, 1, 2)
        b = BallHistogram({b"A": 1}, 1, 1)
        assert histogram_tv(a, b) == 0.5

    def test_tv_radius_mismatch(self):
        a = BallHistogram({b"A": 1}, 1, 1)
        b = BallHistogram({b"A": 1}, 2, 1)
        with pytest.raises(ValueError):
            histogram_tv(a, b)

    def test_tv_metric_properties(self):
        gen = np.random.default_rng(0)
        hists = []
        for _ in range(4):
            counts = {bytes([65 + i]): int(gen.integers(1, 10)) for i in range(int(gen.integers(1, 5)))}
            hists.append(BallHistogram(counts, 1, sum(counts.values())))
        for a in hists:
            for b in hists:
                assert abs(histogram_tv(a, b) - histogram_tv(b, a)) < 1e-15
        for a, b, c in itertools.permutations(hists, 3):
            assert histogram_tv(a, c) <= histogram_tv(a, b) + histogram_tv(b, c) + 1e-12


class TestLwDeficiency:
    def test_point_mass_limit(self):
        g = Graph.from_edges(4, [])
        single = RootedGraph(Graph(((),)), 0)
        val = lw_deficiency(g, lambda s: single, r=1, n_samples=50, seed=0)
        assert val == 0.0

    def test_regular_graph_vs_regular_tree(self):
        g = gen_random_regular(4000, 3, seed=2)
        tree = gen_regular_tree(3, 3)
        val = lw_deficiency(g, lambda s: tree, r=2, n_samples=200, seed=1)
        assert val < 0.05

    def test_two_root_gap_small_for_er(self):
        sampler = lambda s: gen_erdos_renyi(300, 2.0 / 300, seed=s)
        gap = localtopo.two_root_independence_gap(sampler, r=1, n_pairs=300, seed=4)
        assert gap < 0.08

    @pytest.mark.parametrize("xs, ys", [([], [0.5]), ([0.5], []), ([], [])])
    def test_bounded_lipschitz_gap_of_an_empty_sample_raises(self, xs, ys):
        # used to warn "Mean of empty slice" and return nan
        with pytest.raises(ValueError, match="nonempty"):
            localtopo.bounded_lipschitz_gap(xs, ys)

    @pytest.mark.parametrize("xs, ys", [([np.inf, 0.0], [0.0, 0.0]), ([np.nan, 0.0], [0.0, 0.0]),
                                        ([0.0, 0.0], [0.0, -np.inf])])
    def test_bounded_lipschitz_gap_of_a_non_finite_sample_raises(self, xs, ys):
        # an inf returned 0.5 behind two RuntimeWarnings; a NaN returned nan
        with pytest.raises(ValueError, match="finite"):
            localtopo.bounded_lipschitz_gap(xs, ys)

    def test_bounded_lipschitz_gap(self):
        gen = np.random.default_rng(0)
        xs = gen.normal(0, 1, 4000)
        ys = gen.normal(0, 1, 4000)
        assert localtopo.bounded_lipschitz_gap(xs, ys) < 0.08
        zs = gen.normal(2.0, 1, 4000)
        assert localtopo.bounded_lipschitz_gap(xs, zs) > 0.3


class TestLatticeBallSanity:
    def test_lattice_ball_is_general_graph(self):
        rg = gen_lattice_box(2, 3)
        b = ball(rg, 2)
        code1 = canonical_code(b)
        rg2 = gen_lattice_box(2, 5)
        code2 = canonical_code(ball(rg2, 2))
        assert code1 == code2
