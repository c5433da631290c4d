"""Finite simple graphs: random generators, components, roots, and balls.

All graphs are undirected and simple.  A :class:`Graph` is stored in
compressed sparse row (CSR) form: two read-only int64 arrays, ``indptr`` and
``indices``, with every row sorted.  Generators and samplers build these
arrays with numpy; the tuple-of-tuples ``adjacency`` is a view derived on
first use.  Instances are immutable after construction and safe to share
across threads.  Generators are deterministic functions of their arguments
and the seed, and refuse to build more than ``SIZE_CAP`` vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import floor, log, log1p

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from . import rng

SIZE_CAP = 10**7


class SizeCapError(ValueError):
    """Requested graph exceeds the vertex cap ``SIZE_CAP``."""


def _check_cap(n: int) -> None:
    if n > SIZE_CAP:
        raise SizeCapError(f"graph would have {n} vertices, above the cap of {SIZE_CAP}")


def _frozen(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.int64)
    a.flags.writeable = False
    return a


class Graph:
    """Finite simple graph in CSR form.

    The neighbors of ``v`` are ``indices[indptr[v]:indptr[v + 1]]`` in
    increasing order.  ``Graph(adjacency)`` builds the arrays from a sequence
    of sorted neighbor sequences and raises ``ValueError`` unless they
    describe a simple undirected graph; the generators build them directly.
    ``adjacency``, ``degrees`` and the other derived views are computed from
    the arrays on first use and cached.  Equality and hashing compare the
    arrays.

    ``erased_fallback`` marks configuration-model outputs that needed the
    erasure fallback (self-loops dropped, multi-edges collapsed); only that
    generator sets it, and it takes no part in equality.
    """

    indptr: np.ndarray
    indices: np.ndarray
    erased_fallback: bool

    def __init__(self, adjacency):
        indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
        np.cumsum([len(a) for a in adjacency], out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(adjacency), dtype=np.int64, count=int(indptr[-1]))
        _check_csr(indptr, indices, ValueError)
        self._set(indptr, indices, False)

    def _set(self, indptr, indices, erased_fallback) -> None:
        object.__setattr__(self, "indptr", _frozen(indptr))
        object.__setattr__(self, "indices", _frozen(indices))
        object.__setattr__(self, "erased_fallback", bool(erased_fallback))

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        return hash((self.indptr.tobytes(), self.indices.tobytes()))

    def __repr__(self) -> str:
        flag = ", erased_fallback=True" if self.erased_fallback else ""
        return f"Graph(vertex_count={self.vertex_count}, edge_count={self.edge_count}{flag})"

    @property
    def vertex_count(self) -> int:
        return len(self.indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        return _frozen(np.diff(self.indptr))

    @cached_property
    def edge_src(self) -> np.ndarray:
        """Row of every entry of ``indices``: ``repeat(arange(n), degrees)``."""
        return _frozen(np.repeat(np.arange(self.vertex_count, dtype=np.int64), self.degrees))

    @cached_property
    def csr_lists(self) -> tuple[list[int], list[int]]:
        """``(indptr, indices)`` as Python lists, for per-vertex loops."""
        return self.indptr.tolist(), self.indices.tolist()

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, one per vertex (a derived view)."""
        ptr, idx = self.csr_lists
        return tuple(tuple(idx[ptr[v] : ptr[v + 1]]) for v in range(self.vertex_count))

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        """Adjacency matrix with unit weights, rows in the order of ``indices``."""
        n = self.vertex_count
        return sparse.csr_matrix((np.ones(len(self.indices)), self.indices, self.indptr), shape=(n, n))

    def edges(self) -> np.ndarray:
        """(m, 2) array of edges with u < v, lexicographically sorted."""
        src = self.edge_src
        keep = src < self.indices
        return np.stack([src[keep], self.indices[keep]], axis=1)

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build and validate a graph from an iterable of (u, v) pairs."""
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        arr = arr.reshape(-1, 2)
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(arr[:, 0] == arr[:, 1]):
                raise ValueError("self-loop in edge list")
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            keys = lo * n + hi
            if np.unique(keys).size != keys.size:
                raise ValueError("duplicate edge in edge list")
        return _from_edge_arrays(n, arr)

    def validate(self) -> None:
        """Recheck all structural invariants (used by tests)."""
        _check_csr(self.indptr, self.indices, AssertionError)


def _check_csr(indptr: np.ndarray, indices: np.ndarray, error: type[Exception]) -> None:
    """Raise ``error`` naming the first broken invariant unless the CSR arrays
    describe a simple undirected graph with sorted rows."""
    if indptr.dtype != np.int64 or indices.dtype != np.int64:
        raise error("CSR arrays must be int64")
    if indptr.ndim != 1 or indptr.size < 1 or indptr[0] != 0 or indptr[-1] != indices.size:
        raise error("indptr does not span indices")
    deg = np.diff(indptr)
    if np.any(deg < 0):
        raise error("indptr not monotone")
    n = len(indptr) - 1
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise error("neighbor index out of range")
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    if np.any(indices == src):
        raise error("self-loop")
    if np.any((src[1:] == src[:-1]) & (indices[1:] <= indices[:-1])):
        raise error("adjacency not sorted/unique")
    # rows sorted and unique make src * n + indices strictly increasing
    if not np.array_equal(src * n + indices, np.sort(indices * n + src)):
        raise error("adjacency not symmetric")


def _from_csr(indptr, indices, erased_fallback: bool = False) -> Graph:
    """Trusted constructor from valid CSR arrays (rows sorted, symmetric)."""
    g = Graph.__new__(Graph)
    g._set(indptr, indices, erased_fallback)
    return g


def _from_edge_arrays(n: int, arr, *, erased_fallback: bool = False) -> Graph:
    """Trusted constructor: arr holds (m, 2) simple edges, each listed once."""
    arr = np.asarray(arr, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([arr[:, 0], arr[:, 1]])
    keys = np.sort(src * n + np.concatenate([arr[:, 1], arr[:, 0]]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return _from_csr(indptr, keys % n, erased_fallback)


@dataclass(frozen=True)
class RootedGraph:
    """Connected graph with a distinguished root.

    ``origin`` maps local vertex indices back to the parent graph when this
    object was extracted as a component or a ball; ``None`` otherwise.
    ``truncated`` reports that a sampler stopped growing this graph at its
    vertex budget.
    """

    graph: Graph
    root: int
    origin: tuple[int, ...] | None = field(default=None, compare=False)
    truncated: bool = field(default=False, compare=False)

    def __post_init__(self):
        n = self.graph.vertex_count
        if not (0 <= self.root < n):
            raise ValueError("root out of range")
        if len(_bfs(self.graph, self.root)[0]) != n:
            raise ValueError("rooted graph must be connected")

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count


@dataclass(frozen=True)
class MarkedGraph:
    """Rooted graph with one mark per vertex.

    Marks are either an int vector (finite-alphabet states) or a float array
    of shape (n,) or (n, d) for vector-valued states.
    """

    rooted: RootedGraph
    marks: np.ndarray

    def __post_init__(self):
        if len(self.marks) != self.rooted.vertex_count:
            raise ValueError("marks length must equal vertex count")

    @property
    def graph(self) -> Graph:
        return self.rooted.graph


def _bfs(g: Graph, start: int, max_depth: int | None = None) -> tuple[list[int], dict[int, int]]:
    """Vertices within ``max_depth`` hops of ``start`` in BFS order, and each
    one's position in that order.

    Neighbors are visited in increasing index order.  The cost is that of the
    reached part only, so tiny balls of large graphs stay cheap.  For
    distances, use ``dynamics.distances_to``.
    """
    ptr, idx = g.csr_lists
    start = int(start)
    pos = {start: 0}
    order = [start]
    lo, depth = 0, 0
    while lo < len(order) and (max_depth is None or depth < max_depth):
        depth += 1
        hi = len(order)
        for u in order[lo:hi]:
            for w in idx[ptr[u] : ptr[u + 1]]:
                if w not in pos:
                    pos[w] = len(order)
                    order.append(w)
        lo = hi
    return order, pos


def _induced_rooted(g: Graph, vertices: list[int], root: int) -> RootedGraph:
    """Induced subgraph on ``vertices`` (BFS order), reindexed, rooted at ``root``'s image."""
    verts = np.asarray(vertices, dtype=np.int64)
    local = np.full(g.vertex_count, -1, dtype=np.int64)
    local[verts] = np.arange(len(verts))
    deg = g.degrees[verts]
    first = np.repeat(g.indptr[verts] - (np.cumsum(deg) - deg), deg)
    a = np.repeat(np.arange(len(verts), dtype=np.int64), deg)
    b = local[g.indices[first + np.arange(len(a))]]
    keep = a < b  # also drops neighbors outside the set (b = -1)
    sub = _from_edge_arrays(len(verts), np.stack([a[keep], b[keep]], axis=1))
    return RootedGraph(sub, int(local[root]), origin=tuple(vertices))


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each unordered pair is an edge independently with probability p."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    _check_cap(n)
    if p == 0.0 or n == 1:
        return _from_edge_arrays(n, ())
    if p == 1.0:
        return _from_edge_arrays(n, np.stack(np.triu_indices(n, 1), axis=1))
    gen = rng.generator(seed, 0x4552)
    # skip-sampling over the lexicographic pair order: geometric gaps between edges
    edges = []
    # below p ~ 1e-16, 1 - p rounds to 1 and log would give 0
    lq = log(1.0 - p) if 1.0 - p < 1.0 else log1p(-p)
    v, w = 1, -1
    while v < n:
        gap = log(1.0 - gen.random()) / lq
        if gap >= n * n:
            break  # past the last pair (gap may be inf for subnormal p)
        w += 1 + int(floor(gap))
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return _from_edge_arrays(n, edges)


def _pair_decode(idx: np.ndarray, n: int) -> np.ndarray:
    """Decode lexicographic pair index (u<v) over n vertices."""
    # row u holds the pairs (u, v > u) from index u*n - u(u+1)/2 on
    rows = np.arange(max(n - 1, 0), dtype=np.int64)
    starts = rows * n - rows * (rows + 1) // 2
    u = np.searchsorted(starts, idx, side="right") - 1
    return np.stack([u, u + 1 + (idx - starts[u])], axis=1)


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph with exactly m edges on n labeled vertices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = n * (n - 1) // 2
    if not 0 <= m <= total:
        raise ValueError(f"m={m} outside [0, {total}], the available pairs")
    _check_cap(n)
    gen = rng.generator(seed, 0x474D)
    if m == 0:
        return _from_edge_arrays(n, ())
    if m > total // 2:
        idx = gen.permutation(total)[:m]
    else:
        chosen: set[int] = set()
        while len(chosen) < m:
            draw = gen.integers(0, total, size=2 * (m - len(chosen)))
            for x in draw:
                chosen.add(int(x))
                if len(chosen) == m:
                    break
        idx = np.fromiter(chosen, dtype=np.int64)
    return _from_edge_arrays(n, _pair_decode(np.sort(idx), n))


def gen_configuration_model(degrees, seed: int, *, max_pairing_attempts: int = 100) -> Graph:
    """Uniform half-edge pairing conditioned on simplicity.

    The whole pairing is resampled up to ``max_pairing_attempts`` times until
    it is simple; on exhaustion one more pairing has its self-loops erased and
    multi-edges collapsed, and the result carries ``erased_fallback=True``.
    """
    deg = np.asarray(degrees, dtype=np.int64)
    n = len(deg)
    if n < 1:
        raise ValueError("degree sequence must be nonempty")
    if deg.min(initial=0) < 0:
        raise ValueError("degrees must be nonnegative")
    if np.any(deg >= n):
        raise ValueError("each degree must be < n")
    if int(deg.sum()) % 2 != 0:
        raise ValueError("degree sum must be even")
    if max_pairing_attempts < 0:
        raise ValueError("max_pairing_attempts must be >= 0")
    _check_cap(n)
    stubs = np.repeat(np.arange(n, dtype=np.int64), deg)
    if stubs.size == 0:
        return _from_edge_arrays(n, ())
    gen = rng.generator(seed, 0x434D)
    for attempt in range(max_pairing_attempts + 1):
        fallback = attempt == max_pairing_attempts
        perm = gen.permutation(stubs)
        a, b = perm[0::2], perm[1::2]
        keep = a != b
        if not (fallback or keep.all()):
            continue
        keys = np.sort(np.minimum(a, b)[keep] * n + np.maximum(a, b)[keep])
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        if fallback or first.all():
            break
    keys = keys[first]
    return _from_edge_arrays(n, np.stack([keys // n, keys % n], axis=1), erased_fallback=fallback)


def gen_random_regular(n: int, k: int, seed: int) -> Graph:
    """Uniform k-regular graph via the configuration model."""
    if (n * k) % 2 != 0:
        raise ValueError("n*k must be even")
    if k >= n:
        raise ValueError("k must be < n")
    return gen_configuration_model([k] * n, seed)


# ---------------------------------------------------------------------------
# Deterministic graphs
# ---------------------------------------------------------------------------

def gen_lattice_box(dim: int, n: int) -> RootedGraph:
    """Box {-n..n}^dim with nearest-neighbor edges, rooted at the origin."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    side = 2 * n + 1
    total = side**dim
    _check_cap(total)
    shape = (side,) * dim
    edges = []
    idx = np.arange(total, dtype=np.int64).reshape(shape)
    for axis in range(dim):
        lo = np.moveaxis(idx, axis, 0)[:-1].ravel()
        hi = np.moveaxis(idx, axis, 0)[1:].ravel()
        edges.append(np.stack([lo, hi], axis=1))
    arr = np.concatenate(edges, axis=0) if edges else np.zeros((0, 2), dtype=np.int64)
    g = _from_edge_arrays(total, arr)
    root = int(np.ravel_multi_index((n,) * dim, shape))
    return RootedGraph(g, root)


def lattice_index(coord, n: int, dim: int) -> int:
    """Vertex index of a lattice coordinate in {-n..n}^dim (row-major)."""
    side = 2 * n + 1
    return int(np.ravel_multi_index(tuple(c + n for c in coord), (side,) * dim))


def lattice_coord(index: int, n: int, dim: int) -> tuple[int, ...]:
    side = 2 * n + 1
    return tuple(int(c) - n for c in np.unravel_index(index, (side,) * dim))


def gen_regular_tree(k: int, height: int) -> RootedGraph:
    """Rooted tree whose internal vertices have degree k and leaves sit at ``height``."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if height < 0:
        raise ValueError("height must be >= 0")
    if height == 0:
        return RootedGraph(Graph(((),)), 0)
    if k == 2:
        total = 2 * height + 1
    else:
        total = 1 + k * ((k - 1) ** height - 1) // (k - 2)
    _check_cap(total)
    # vertices are numbered level by level; each level's children follow
    # their parents' order
    parents = []
    level = np.zeros(1, dtype=np.int64)
    for depth in range(height):
        parents.append(np.repeat(level, k if depth == 0 else k - 1))
        level = np.arange(level[-1] + 1, level[-1] + 1 + parents[-1].size, dtype=np.int64)
    parent = np.concatenate(parents)
    g = _from_edge_arrays(total, np.stack([parent, np.arange(1, total, dtype=np.int64)], axis=1))
    return RootedGraph(g, 0)


def gen_canopy_truncation(d: int, levels: int, base_width: int, *, root_level: int = 0) -> RootedGraph:
    """Finite slab of the leaf-rooted limit of deep regular trees.

    Vertices are (i, j) for i = 0..levels with row widths
    ``base_width * (d-1)**(levels-i)``, and (i, j) is joined to
    (i+1, j // (d-1)).  The root is (root_level, 0).  Because row 0 vertices
    have the wrong degree only near i = levels, simulations on this graph are
    exact for horizons shorter than ``levels - root_level``.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if base_width < 1:
        raise ValueError("base_width must be >= 1")
    if not 0 <= root_level <= levels:
        raise ValueError("root_level out of range")
    widths = [base_width * (d - 1) ** (levels - i) for i in range(levels + 1)]
    offsets = np.zeros(levels + 2, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    total = int(offsets[-1])
    _check_cap(total)
    edges = []
    for i in range(levels):
        j = np.arange(widths[i], dtype=np.int64)
        src = offsets[i] + j
        dst = offsets[i + 1] + j // (d - 1)
        edges.append(np.stack([src, dst], axis=1))
    g = _from_edge_arrays(total, np.concatenate(edges, axis=0))
    root = int(offsets[root_level])
    if base_width == 1:
        return RootedGraph(g, root)
    return component_of(g, root)


# ---------------------------------------------------------------------------
# Components, roots, balls
# ---------------------------------------------------------------------------

def component_of(g: Graph, v: int) -> RootedGraph:
    """Connected component of v, reindexed in BFS order and rooted at v's image."""
    if not 0 <= v < g.vertex_count:
        raise ValueError("vertex out of range")
    order, _ = _bfs(g, v)
    return _induced_rooted(g, order, v)


def uniform_root_component(g: Graph, seed: int) -> RootedGraph:
    """Component of a uniformly random vertex."""
    v = int(rng.generator(seed, 0x524F).integers(0, g.vertex_count))
    return component_of(g, v)


def component_labels(g: Graph) -> np.ndarray:
    """Label array assigning each vertex the smallest vertex of its component."""
    if g.vertex_count == 0:
        return np.zeros(0, dtype=np.int64)
    _, labels = csgraph.connected_components(g.matrix, directed=False)
    _, smallest = np.unique(labels, return_index=True)
    return smallest[labels].astype(np.int64)


def largest_component(g: Graph) -> RootedGraph:
    """Largest component; ties broken by smallest contained vertex, which roots it."""
    if g.vertex_count < 1:
        raise ValueError("graph must have at least one vertex")
    labels = component_labels(g)
    reps, counts = np.unique(labels, return_counts=True)
    best = reps[np.argmax(counts)]  # np.argmax takes the first max; reps ascend
    return component_of(g, int(best))


def ball(rg: RootedGraph, k: int) -> RootedGraph:
    """Induced subgraph on vertices within distance k of the root."""
    if k < 0:
        raise ValueError("k must be >= 0")
    order, _ = _bfs(rg.graph, rg.root, max_depth=k)
    return _induced_rooted(rg.graph, order, rg.root)
