"""Rooted-ball isomorphism codes, local metrics, and neighborhood statistics.

Canonical codes realize isomorphism classes of rooted graphs: trees of any
size get an AHU-style code, general graphs up to a small size cap get a
minimal root-preserving adjacency encoding found by pruned backtracking.
Every rooted graph and every radius-r ball is coded by ``_ball_code_from``,
from one walk of the ball (``_ball``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from . import rng
from .empirical import frequency_tv
from .graphs import Graph, MarkedGraph, RootedGraph, _bfs, _induced_rooted

GENERAL_CODE_CAP = 64
MARKED_ENUM_CAP = 12
_EFFORT_CAP = 500_000

BallCode = bytes


class CodeSizeError(ValueError):
    """General-graph canonical encoding requested above the supported size."""


def _ball(g: Graph, v: int, r: int | None) -> tuple[list[int], list[list[int]], list[bytes] | None]:
    """The radius-r ball around ``v`` (v's whole component when ``r`` is None).

    Returns the ball's BFS order, the children of each vertex in it (its
    neighbors one level further out, as positions in that order) and, when
    the ball is a tree, the AHU code of the subtree below each position
    (sorted child codes in parentheses); ``None`` when it has a cycle.  A
    ball is a tree iff it holds 2(n - 1) adjacency entries.
    """
    order, dist = _bfs(g, v, max_depth=r)
    pos = {u: i for i, u in enumerate(order)}
    ptr, idx = g.csr_lists
    kids: list[list[int]] = []
    entries = 0
    for u in order:
        d = dist[u] + 1
        ks = []
        for w in idx[ptr[u] : ptr[u + 1]]:
            dw = dist.get(w)
            if dw is not None:
                entries += 1
                if dw == d:
                    ks.append(pos[w])
        kids.append(ks)
    n = len(order)
    if entries != 2 * (n - 1):
        return order, kids, None
    codes = [b""] * n
    for i in range(n - 1, -1, -1):
        codes[i] = b"(" + b"".join(sorted([codes[j] for j in kids[i]])) + b")"
    return order, kids, codes


def _ball_code_from(g: Graph, v: int, r: int | None) -> BallCode:
    """Canonical code of the radius-r ball around ``v`` (r=None: v's component)."""
    order, _, codes = _ball(g, v, r)
    if codes is not None:
        return codes[0]
    return _general_code(_induced_rooted(g, order, v))


def _swap_is_automorphism(adj: list[set[int]], u: int, w: int) -> bool:
    return adj[u] - {w} == adj[w] - {u}


def _general_code(rg: RootedGraph) -> bytes:
    """Canonical root-preserving adjacency encoding by pruned backtracking.

    Vertices are placed one position at a time, always choosing candidates
    whose adjacency pattern to the placed prefix is extremal (new vertices
    attach to the earliest possible placed vertex, a BFS-like layering), so a
    connected graph branches only at genuine symmetries.  Candidates that are
    interchangeable by a transposition automorphism are deduped.
    """
    g = rg.graph
    n = g.vertex_count
    if n > GENERAL_CODE_CAP:
        raise CodeSizeError(f"general-graph code supports <= {GENERAL_CODE_CAP} vertices, got {n}")
    adj = [set(a) for a in g.adjacency]
    best: list[int] | None = None
    effort = 0

    def extend(slot_of: dict[int, int], rows: list[int]) -> None:
        nonlocal best, effort
        effort += 1
        if effort > _EFFORT_CAP:
            raise RuntimeError("canonical encoding exceeded the effort cap")
        if best is not None and rows < best[: len(rows)]:
            return
        if len(slot_of) == n:
            if best is None or rows > best:
                best = list(rows)
            return
        i = len(slot_of)
        bits_of = {}
        for u in range(n):
            if u in slot_of:
                continue
            bits = 0
            for w in adj[u]:
                j = slot_of.get(w)
                if j is not None:
                    bits |= 1 << (i - 1 - j)
            bits_of[u] = bits
        hi = max(bits_of.values())
        chosen: list[int] = []
        for u, bits in bits_of.items():
            if bits != hi:
                continue
            if any(_swap_is_automorphism(adj, u, w) for w in chosen):
                continue
            chosen.append(u)
        rows.append(hi)
        for u in chosen:
            slot_of[u] = i
            extend(slot_of, rows)
            del slot_of[u]
        rows.pop()

    extend({rg.root: 0}, [])
    assert best is not None
    body = b",".join(str(r).encode() for r in best)
    return b"G" + str(n).encode() + b":" + body


def canonical_code(rg: RootedGraph) -> BallCode:
    """Byte string equal for two rooted graphs iff they are rooted-isomorphic."""
    return _ball_code_from(rg.graph, rg.root, None)


def rooted_isomorphic(a: RootedGraph, b: RootedGraph) -> bool:
    if a.vertex_count != b.vertex_count or a.graph.edge_count != b.graph.edge_count:
        return False
    return canonical_code(a) == canonical_code(b)


# ---------------------------------------------------------------------------
# Isomorphism enumeration (used for marked distances on general graphs)
# ---------------------------------------------------------------------------

def _iter_isomorphisms(a: RootedGraph, b: RootedGraph) -> Iterator[dict[int, int]]:
    """Yield all root-preserving isomorphisms a -> b (small graphs only)."""
    ga, gb = a.graph, b.graph
    n = ga.vertex_count
    if n != gb.vertex_count or ga.edge_count != gb.edge_count:
        return
    if n > MARKED_ENUM_CAP:
        raise CodeSizeError(f"isomorphism enumeration supports <= {MARKED_ENUM_CAP} vertices")
    order_a, dist_a = _bfs(ga, a.root)
    _, dist_b = _bfs(gb, b.root)
    deg_a, deg_b = ga.degrees, gb.degrees
    adj_b = [set(x) for x in gb.adjacency]
    mapping: dict[int, int] = {}
    used = set()

    def place(pos: int) -> Iterator[dict[int, int]]:
        if pos == n:
            yield dict(mapping)
            return
        u = order_a[pos]
        for v in range(n):
            if v in used or dist_b[v] != dist_a[u] or deg_b[v] != deg_a[u]:
                continue
            ok = True
            for w in ga.adjacency[u]:
                img = mapping.get(w)
                if img is not None and img not in adj_b[v]:
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used.add(v)
                yield from place(pos + 1)
                del mapping[u]
                used.remove(v)

    yield from place(0)


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
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    lower = 0.0
    for k in range(1, k_max + 1):
        if _ball_code_from(a.graph, a.root, k) != _ball_code_from(b.graph, b.root, k):
            lower += 2.0**-k
    return Interval(lower, lower + 2.0**-k_max)


def _bottleneck(cost: np.ndarray) -> float:
    """Min over perfect matchings of the max entry of a square cost matrix."""
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


def _tree_minmax_mark(a, b) -> float:
    """min over shape-preserving isomorphisms of the max mark distance.

    ``a`` and ``b`` are tree balls as ``(children, AHU codes, marks)`` by BFS
    position.  Bottom-up DP: subtrees can only map to subtrees of equal AHU
    shape, and the min-max over children decomposes into a bottleneck
    matching per shape group.
    """
    (kids_a, shape_a, marks_a), (kids_b, shape_b, marks_b) = a, b
    if shape_a[0] != shape_b[0]:
        return float("inf")

    def solve(u: int, v: int) -> float:
        groups: dict[bytes, tuple[list[int], list[int]]] = {}
        for w in kids_a[u]:
            groups.setdefault(shape_a[w], ([], []))[0].append(w)
        for w in kids_b[v]:
            groups[shape_b[w]][1].append(w)
        # equal shapes have equal multisets of child shapes
        value = mark_distance(marks_a[u], marks_b[v])
        for ka, kb in groups.values():
            cost = np.array([[solve(x, y) for y in kb] for x in ka], dtype=np.float64)
            value = max(value, _bottleneck(cost))
        return value

    return solve(0, 0)


def _general_minmax_mark(a: RootedGraph, marks_a, b: RootedGraph, marks_b) -> float:
    best = float("inf")
    for iso in _iter_isomorphisms(a, b):
        worst = 0.0
        for u, v in iso.items():
            worst = max(worst, mark_distance(marks_a[u], marks_b[v]))
            if worst >= best:
                break
        best = min(best, worst)
        if best == 0.0:
            break
    return best


def d_star_marked(a: MarkedGraph, b: MarkedGraph, k_max: int) -> Interval:
    """Truncated marked local metric.

    Each radius contributes 2^-k * min(1, m_k), where m_k is the smallest, over
    root-preserving ball isomorphisms, of the largest mark distance.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    lower = 0.0
    for k in range(1, k_max + 1):
        (order_a, kids_a, shape_a), (order_b, kids_b, shape_b) = (
            _ball(a.graph, a.rooted.root, k), _ball(b.graph, b.rooted.root, k))
        marks_a, marks_b = np.asarray(a.marks)[order_a], np.asarray(b.marks)[order_b]
        if shape_a is not None and shape_b is not None:
            m_k = _tree_minmax_mark((kids_a, shape_a, marks_a), (kids_b, shape_b, marks_b))
        elif shape_a is None and shape_b is None:
            ball_a = _induced_rooted(a.graph, order_a, a.rooted.root)
            ball_b = _induced_rooted(b.graph, order_b, b.rooted.root)
            same = _general_code(ball_a) == _general_code(ball_b)
            m_k = _general_minmax_mark(ball_a, marks_a, ball_b, marks_b) if same else float("inf")
        else:
            m_k = float("inf")
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


def neighborhood_histogram(g: Graph, r: int) -> BallHistogram:
    """Histogram of canonical codes of the radius-r ball around every vertex."""
    counts: dict[BallCode, int] = {}
    for v in range(g.vertex_count):
        code = _ball_code_from(g, v, r)
        counts[code] = counts.get(code, 0) + 1
    return BallHistogram(counts, r, g.vertex_count)


def histogram_of_samples(samples, r: int) -> BallHistogram:
    """Histogram of radius-r root ball codes over an iterable of RootedGraphs."""
    counts: dict[BallCode, int] = {}
    total = 0
    for rg in samples:
        code = _ball_code_from(rg.graph, rg.root, r)
        counts[code] = counts.get(code, 0) + 1
        total += 1
    return BallHistogram(counts, r, total)


def histogram_tv(a: BallHistogram, b: BallHistogram) -> float:
    """Total variation distance between two ball histograms of equal radius."""
    if a.radius != b.radius:
        raise ValueError("histogram radii differ")
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
    graph whose radius-r root ball is the quantity being compared.
    """
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


def bounded_lipschitz_gap(xs, ys, funcs=None) -> float:
    """Largest gap in means over a battery of bounded Lipschitz functionals.

    A finite battery cannot certify weak convergence of marks, but it gives a
    usable diagnostic alongside the structural ball-type comparison.
    """
    xa = np.asarray(xs, dtype=np.float64).ravel()
    ya = np.asarray(ys, dtype=np.float64).ravel()
    if funcs is None:
        funcs = (np.tanh, np.sin, np.cos, lambda t: np.clip(t, -1.0, 1.0))
    return max(abs(float(np.mean(f(xa))) - float(np.mean(f(ya)))) for f in funcs)
