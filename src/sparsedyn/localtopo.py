"""Rooted-ball isomorphism codes, local metrics, and neighborhood statistics.

Every code and local metric starts from one walk of the ball (``_ball``),
which peels it: the non-root leaves are stripped repeatedly, and each
vertex gets the AHU code of the tree hanging from it.  What is left is the
core.  A tree ball's core is its root alone, and its code is the root's
AHU code (prefix ``(``).  A cyclic ball is coded by a pruned placement
search over its core alone, whose vertices carry their hanging-tree codes
(prefix ``G``).  The placements that attain the code are also the core
isomorphisms the marked local metric minimizes over.

Both histograms tally ``_root_codes`` over a graph's vertices or the roots
of the samples' disjoint union.  It cuts the graph to the roots' radius-r
balls under a monotone relabel, which walks every ball as before; an exact
tree test sends tree balls to one bulk message refinement
(``_unrolled_codes``) and cyclic ones to ``_ball_code_from``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng
from .graphs import (Graph, MarkedGraph, RootedGraph, _check_indices, _check_whole, _disjoint_union, _induced,
                     _levels, _rows)

# the placement search recurses once per core vertex; _EFFORT_CAP bounds its
# leaves, and so the placements d_star_marked reads
GENERAL_CODE_CAP = 64
_EFFORT_CAP = 500_000
# roots whose balls the tree test of _root_codes grows at once
_TREE_TEST_BLOCK = 256

BallCode = bytes
# BFS order, hanging children and hanging-tree codes by position, core adjacency
Ball = tuple[list[int], list[list[int]], list[bytes], dict[int, list[int]]]


class CodeSizeError(ValueError):
    """General-graph canonical encoding requested above the supported size."""


def _ball(g: Graph, v: int, r: int | None) -> Ball:
    """The radius-r ball around ``v`` (v's whole component when ``r`` is None), peeled.

    Returns the ball's BFS order and, by position in that order, the
    positions of the vertices hanging from it, the AHU code of the tree
    hanging from it (sorted child codes in parentheses), and the core: each
    position left mapped to its neighbors left.  One backward sweep of the
    order strips every non-root vertex with one neighbor left.  No earlier
    vertex is stripped yet, so that neighbor is its only one earlier in the
    order, nearer the root; the vertices hanging below it lie further out,
    come later, and are stripped already.  The ball is a tree iff its core
    is the root alone, and then ``codes[0]`` is its AHU code.
    """
    if r is not None:
        _check_whole(r)
    if type(v) is not int or not 0 <= v < g.vertex_count:
        v = int(_check_indices(v, g.vertex_count, "vertex"))
    ptr, idx = g.csr_lists
    pos, order, nbrs = {v: 0}, [v], []
    end, depth = 1, 0  # order[:end] lies within distance depth
    for u in order:  # a queue: the loop reaches the vertices it appends
        if len(nbrs) == end:
            end, depth = len(order), depth + 1
        grow = r is None or depth < r
        nb = []
        for w in idx[ptr[u] : ptr[u + 1]]:
            i = pos.get(w)
            if i is None and grow:
                i = pos[w] = len(order)
                order.append(w)
            if i is not None:
                nb.append(i)
        nbrs.append(nb)
    live = list(map(len, nbrs))  # neighbors not stripped yet
    kids: list[list[int]] = [[] for _ in order]
    codes = [b"()"] * len(order)
    for i in range(len(order) - 1, -1, -1):
        if kids[i]:
            codes[i] = b"(" + b"".join(sorted([codes[j] for j in kids[i]])) + b")"
        if i and live[i] == 1:
            p = min(nbrs[i])
            live[i] = 0
            live[p] -= 1
            kids[p].append(i)
    core = {0: []}
    if live[0]:  # a cycle is left
        core = {i: [j for j in nbrs[i] if live[j]] for i, k in enumerate(live) if k}
    return order, kids, codes, core


def _general_code(ball: Ball) -> tuple[BallCode, list[list[int]]]:
    """Canonical code of a peeled ball, and every core placement that attains it.

    A tree ball has the AHU code of its root and the one placement ``[0]``.
    Otherwise core vertices are placed one slot at a time, the root first, by
    pruned backtracking over the candidates of largest key: the adjacency
    bits to the placed prefix (earlier slots in higher bits, so new vertices
    attach to the earliest possible placed vertex, a BFS-like layering), then
    the code of the tree hanging from the candidate.  The code is the largest
    key sequence, which fixes the core and its hanging trees.  Any two
    placements attaining it match the cores of two balls with equal codes
    slot by slot, and every root-preserving isomorphism of the cores that
    keeps hanging trees of equal shape arises this way.
    """
    order, _, codes, core = ball
    if len(core) == 1:
        return codes[0], [[0]]
    if len(core) > GENERAL_CODE_CAP:
        raise CodeSizeError(f"general-graph code supports cores of <= {GENERAL_CODE_CAP} vertices, got {len(core)}")
    best: list[tuple[int, bytes]] = []
    placements: list[list[int]] = []
    slot_of, rows = {0: 0}, [(0, codes[0])]
    effort = 0

    def extend() -> None:
        nonlocal best, effort
        effort += 1
        if effort > _EFFORT_CAP:
            raise RuntimeError("canonical encoding exceeded the effort cap")
        if rows < best[: len(rows)]:
            return
        if len(slot_of) == len(core):
            if rows > best:
                best, placements[:] = list(rows), []
            placements.append(list(slot_of))
            return
        i = len(slot_of)
        keys = {u: (sum(1 << (i - 1 - slot_of[w]) for w in nb if w in slot_of), codes[u])
                for u, nb in core.items() if u not in slot_of}
        top = max(keys.values())
        rows.append(top)
        for u, key in keys.items():
            if key == top:
                slot_of[u] = i
                extend()
                del slot_of[u]
        rows.pop()

    extend()
    body = b",".join(b"%d%s" % row for row in best)
    return b"G%d:%s" % (len(order), body), placements


def _ball_code_from(g: Graph, v: int, r: int | None) -> BallCode:
    """Canonical code of the radius-r ball around ``v`` (r=None: v's component)."""
    return _general_code(_ball(g, v, r))[0]


def canonical_code(rg: RootedGraph) -> BallCode:
    """Byte string equal for two rooted graphs iff they are rooted-isomorphic."""
    return _ball_code_from(rg.graph, rg.root, None)


def rooted_isomorphic(a: RootedGraph, b: RootedGraph) -> bool:
    if a.vertex_count != b.vertex_count or a.graph.edge_count != b.graph.edge_count:
        return False
    return canonical_code(a) == canonical_code(b)


# ---------------------------------------------------------------------------
# Mark distances and the local metrics
# ---------------------------------------------------------------------------

def mark_distance(x, y) -> float:
    """0/1 for discrete symbols, Euclidean for vector marks."""
    xa, ya = np.asarray(x), np.asarray(y)
    if xa.dtype.kind in "iu" and ya.dtype.kind in "iu":
        return 0.0 if np.array_equal(xa, ya) else 1.0
    return float(np.linalg.norm(xa.astype(np.float64) - ya.astype(np.float64)))


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float


def d_star_unmarked(a: RootedGraph, b: RootedGraph, k_max: int) -> Interval:
    """Truncated local metric: sum of 2^-k over radii whose balls differ.

    The untruncated tail is exactly bounded by 2^-k_max, so the true metric
    value lies in [lower, lower + 2^-k_max].
    """
    k_max = _check_whole(k_max, "k_max", 1)
    lower = 0.0
    for k in range(1, k_max + 1):
        if _ball_code_from(a.graph, a.root, k) != _ball_code_from(b.graph, b.root, k):
            lower += 2.0**-k
    return Interval(lower, lower + 2.0**-k_max)


def _bottleneck(cost: np.ndarray) -> float:
    """Min over perfect matchings of the max entry of a square cost matrix."""
    from scipy import sparse
    from scipy.sparse import csgraph
    values = np.unique(cost)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        match = csgraph.maximum_bipartite_matching(sparse.csr_matrix(cost <= values[mid]))
        if np.all(match >= 0):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def _tree_minmax_mark(a, b, u: int, v: int) -> float:
    """min over shape-preserving isomorphisms of the max mark distance, for the
    trees hanging from position ``u`` of ``a`` and ``v`` of ``b``.

    ``a`` and ``b`` are peeled balls as ``(hanging children, AHU codes,
    marks)`` by BFS position, and the two trees have equal codes.  Bottom-up
    DP: subtrees can only map to subtrees of equal AHU shape, and the min-max
    over children decomposes into a bottleneck matching per shape group.
    """
    (kids_a, shape_a, marks_a), (kids_b, shape_b, marks_b) = a, b
    groups: dict[bytes, tuple[list[int], list[int]]] = {}
    for w in kids_a[u]:
        groups.setdefault(shape_a[w], ([], []))[0].append(w)
    for w in kids_b[v]:
        groups[shape_b[w]][1].append(w)
    # equal shapes have equal multisets of child shapes
    value = mark_distance(marks_a[u], marks_b[v])
    for ka, kb in groups.values():
        cost = np.array([[_tree_minmax_mark(a, b, x, y) for y in kb] for x in ka], dtype=np.float64)
        value = max(value, _bottleneck(cost))
    return value


def d_star_marked(a: MarkedGraph, b: MarkedGraph, k_max: int) -> Interval:
    """Truncated marked local metric.

    Each radius contributes 2^-k * min(1, m_k), where m_k is the smallest, over
    root-preserving ball isomorphisms, of the largest mark distance.  A ball
    isomorphism is a core isomorphism (a tree ball has one) that maps the
    trees hanging from matched core vertices onto each other, so m_k is the
    min over core isomorphisms of the max over core vertices of the
    hanging-tree DP.
    """
    k_max = _check_whole(k_max, "k_max", 1)
    lower = 0.0
    for k in range(1, k_max + 1):
        ball_a, ball_b = _ball(a.graph, a.rooted.root, k), _ball(b.graph, b.rooted.root, k)
        # every placement of a's core, read against one of b's, is a core isomorphism
        (code_a, isos), (code_b, (image, *_)) = _general_code(ball_a), _general_code(ball_b)
        m_k = float("inf")
        if code_a == code_b:
            (order_a, kids_a, codes_a, _), (order_b, kids_b, codes_b, _) = ball_a, ball_b
            ta = (kids_a, codes_a, np.asarray(a.marks)[order_a])
            tb = (kids_b, codes_b, np.asarray(b.marks)[order_b])
            m_k = min(max(_tree_minmax_mark(ta, tb, u, v) for u, v in zip(iso, image)) for iso in isos)
        lower += 2.0**-k * min(1.0, m_k)
    return Interval(lower, lower + 2.0**-k_max)


# ---------------------------------------------------------------------------
# Neighborhood histograms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallHistogram:
    """Counts of canonical radius-r ball codes over the vertices of a graph."""

    counts: dict[BallCode, int]
    radius: int
    total: int

    def frequencies(self) -> dict[BallCode, float]:
        return {c: k / self.total for c, k in self.counts.items()}


def _row_classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classes of the equal rows of a 2-D integer array, numbered in the rows'
    lexicographic order: each row's class, and the first row of each class."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    classes = np.empty(len(rows), dtype=np.int64)
    classes[order] = np.cumsum(new) - 1
    return classes, order[new]


def _unrolled_codes(g: Graph, r: int, roots: np.ndarray) -> list[BallCode]:
    """Per root, the AHU code of its depth-r tree of non-backtracking walks,
    which is its ball's code whenever the ball is a tree.

    Each adjacency entry a -> b carries a message: the code of the tree
    hanging from b away from a, as a class id ranked like the code bytes, so
    sorted ids give sorted codes.  A round sends a -> b the messages into b
    but the one from a, sorted, in parentheses.  That is fixed by the class
    of b's sorted messages and the message b -> a, and only the distinct
    pairs are coded in Python.  The last round classes the roots alone.
    """
    n = g.vertex_count
    src, dst = g.edge_src, g.indices
    back = np.searchsorted(src * n + dst, dst * n + src)  # the entry b -> a of a -> b
    message = np.zeros(len(dst), dtype=np.int64)
    names = [b"()"]
    for rnd in range(r):
        # classes of the sorted multisets of messages into each vertex, or each root
        # last, classed one degree at a time so no row is padded
        scale = len(names) * src
        ordered = np.sort(scale + message) - scale
        at = roots if rnd == r - 1 else np.arange(n)
        degree = g.degrees[at]
        by = np.argsort(degree, kind="stable")
        into = np.empty(len(at), dtype=np.int64)
        rows: list[list[int]] = []
        for pick in np.split(by, np.flatnonzero(np.diff(degree[by], prepend=-1)))[1:]:
            block = ordered[g.indptr[at[pick], None] + np.arange(degree[pick[0]])]
            classes, first = _row_classes(block)
            into[pick] = len(rows) + classes
            rows += block[first].tolist()
        if rnd == r - 1:
            codes = [b"(" + b"".join(names[c] for c in row) + b")" for row in rows]
            return [codes[c] for c in into.tolist()]
        pair = into[dst] * len(names) + message[back]
        pairs = np.sort(pair)
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        refined = []
        for key in pairs.tolist():
            row, skip = divmod(key, len(names))
            kids = list(rows[row])
            kids.remove(skip)
            refined.append(b"(" + b"".join(names[c] for c in kids) + b")")
        names = sorted(set(refined))
        rank = {code: i for i, code in enumerate(names)}
        message = np.array([rank[code] for code in refined], dtype=np.int64)[np.searchsorted(pairs, pair)]
    return [b"()"] * len(roots)


def _tree_balls(g: Graph, r: int, roots: np.ndarray) -> np.ndarray:
    """Per root, whether its radius-r ball is a tree.

    Balls grow by non-backtracking steps, one level at a time, as keys
    root * n + vertex for ``_TREE_TEST_BLOCK`` roots at a time.  A ball is a
    tree iff no step inside it meets the ball or another step, and no step
    out of it lands in it; only that last test sees an odd cycle closed by
    an edge between two vertices at depth r.  Cyclic roots are dropped at
    once, so a block holds at most its ball sizes times the largest degree.
    """
    n = g.vertex_count
    tree = np.ones(n, dtype=bool)
    for lo in range(0, len(roots), _TREE_TEST_BLOCK):
        ball = frontier = roots[lo : lo + _TREE_TEST_BLOCK] * (n + 1)  # root * n + root
        prev = np.full(len(ball), -1)
        for depth in range(r + 1):
            at, nbr = _rows(g, frontier % n)
            onward = nbr != prev[at]
            at, nbr = at[onward], nbr[onward]
            step = frontier[at] // n * n + nbr
            # equal keys are walks meeting; the low bit tells ball keys (0) from steps (1)
            keys = np.sort(np.concatenate([2 * ball, 2 * step + 1]))
            meet = keys[1:] >> 1 == keys[:-1] >> 1
            if depth == r:  # steps out of the ball may meet each other outside it
                meet &= (keys[:-1] & 1) == 0
            tree[(keys[1:][meet] >> 1) // n] = False
            live = tree[step // n]
            ball = np.concatenate([ball[tree[ball // n]], step[live]])
            frontier, prev = step[live], frontier[at][live] % n
    return tree[roots]


def _root_codes(g: Graph, roots, r: int) -> list[BallCode]:
    """``_ball_code_from(g, v, r)`` for each of the distinct ``roots``, in root order.

    ``g`` is cut to the union of the roots' radius-r balls (r levels grown
    from all roots at once) and renumbered in increasing order: a monotone
    relabel walks, and so codes, every ball as in ``g``.  Tree balls, as
    ``_tree_balls`` finds them, are coded in bulk, cyclic ones one at a time.
    """
    roots = np.asarray(roots, dtype=np.int64)
    kept = np.sort(_levels(g, roots, r)[0])
    if len(kept) < g.vertex_count:
        g, roots = _induced(g, kept), np.searchsorted(kept, roots)
    codes = _unrolled_codes(g, r, roots)
    for i in np.flatnonzero(~_tree_balls(g, r, roots)).tolist():
        codes[i] = _ball_code_from(g, int(roots[i]), r)
    return codes


def _histogram(codes: list[BallCode], r: int) -> BallHistogram:
    return BallHistogram(dict(Counter(codes)), r, len(codes))


def neighborhood_histogram(g: Graph, r: int) -> BallHistogram:
    """Histogram of canonical codes of the radius-r ball around every vertex.

    ``_root_codes`` codes tree balls in bulk and cyclic ones one at a time.
    Codes, counts and their order are those of ``_ball_code_from`` per vertex.
    """
    _check_whole(r)
    return _histogram(_root_codes(g, np.arange(g.vertex_count), r), r)


def histogram_of_samples(samples, r: int) -> BallHistogram:
    """Histogram of radius-r root ball codes over an iterable of RootedGraphs.

    ``_root_codes`` codes all samples' roots in their disjoint union, trees
    and cyclic samples alike.  Codes, counts, their order and the total are
    those of coding every sample's ball on its own, in sample order.
    """
    _check_whole(r)
    samples = list(samples)
    union, first = _disjoint_union([rg.graph for rg in samples])
    return _histogram(_root_codes(union, first + [rg.root for rg in samples], r), r)


def frequency_tv(fa: dict, fb: dict) -> float:
    """Total variation between two frequency dicts over the union of their keys.

    ``math.fsum`` rounds the sum exactly once, so the value does not depend on
    the (hash-seeded) key order and is exactly symmetric.
    """
    return 0.5 * math.fsum(abs(fa.get(c, 0.0) - fb.get(c, 0.0)) for c in fa.keys() | fb.keys())


def histogram_tv(a: BallHistogram, b: BallHistogram) -> float:
    """Total variation distance between two ball histograms of equal radius."""
    if a.radius != b.radius:
        raise ValueError("histogram radii differ")
    if not a.total or not b.total:
        raise ValueError("histogram has total 0")
    return frequency_tv(a.frequencies(), b.frequencies())


def lw_deficiency(
    g: Graph,
    limit_ball_sampler: Callable[[int], RootedGraph],
    r: int,
    n_samples: int,
    seed: int,
) -> float:
    """TV between g's ball-type histogram and a Monte Carlo histogram of the limit.

    ``limit_ball_sampler`` receives a derived seed per draw and returns a rooted
    graph whose radius-r root ball is the quantity being compared.  Both
    sides go through ``_root_codes``: ``neighborhood_histogram`` over every
    vertex of g, and ``histogram_of_samples`` over the roots of the draws'
    disjoint union.  Tree balls are coded in bulk, cyclic ones one at a time.
    """
    n_samples = _check_whole(n_samples, "n_samples", 1)
    graph_hist = neighborhood_histogram(g, r)
    samples = (limit_ball_sampler(rng.stream_key(seed, i)) for i in range(n_samples))
    limit_hist = histogram_of_samples(samples, r)
    return histogram_tv(graph_hist, limit_hist)


def two_root_independence_gap(
    graph_sampler: Callable[[int], Graph], r: int, n_pairs: int, seed: int
) -> float:
    """|E[f(C_U1) f(C_U2)] - (E f)^2| over fresh graph draws, two roots each.

    f is the indicator of the modal ball type.  Small values support
    convergence in probability in the local weak sense, which is characterized
    by asymptotic independence of two uniformly rooted components.
    """
    n_pairs = _check_whole(n_pairs, "n_pairs", 1)
    _check_whole(r)
    gen = rng.generator(seed, 0x5452)
    pairs: list[tuple[BallCode, BallCode]] = []
    tally: dict[BallCode, int] = {}
    for i in range(n_pairs):
        g = graph_sampler(rng.stream_key(seed, 0x5452, i))
        u1, u2 = (int(x) for x in gen.integers(0, g.vertex_count, size=2))
        c1, c2 = _ball_code_from(g, u1, r), _ball_code_from(g, u2, r)
        pairs.append((c1, c2))
        tally[c1] = tally.get(c1, 0) + 1
        tally[c2] = tally.get(c2, 0) + 1
    modal = max(tally, key=lambda c: tally[c])
    p = tally[modal] / (2 * n_pairs)
    joint = float(np.mean([c1 == modal and c2 == modal for c1, c2 in pairs]))
    return abs(joint - p * p)


_LIPSCHITZ_BATTERY = (np.tanh, np.sin, np.cos, lambda t: np.clip(t, -1.0, 1.0))


def bounded_lipschitz_gap(xs, ys) -> float:
    """Largest gap in means over a battery of bounded Lipschitz functionals.

    A finite battery cannot certify weak convergence of marks, but it gives a
    usable diagnostic alongside the structural ball-type comparison.
    """
    xa = np.asarray(xs, dtype=np.float64).ravel()
    ya = np.asarray(ys, dtype=np.float64).ravel()
    if not (xa.size and ya.size and np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValueError("bounded_lipschitz_gap needs two nonempty samples of finite values")
    return max(abs(float(np.mean(f(xa))) - float(np.mean(f(ya)))) for f in _LIPSCHITZ_BATTERY)
