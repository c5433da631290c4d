"""Finite simple graphs: random generators, components, roots, and balls.

All graphs are undirected and simple.  A :class:`Graph` is stored in
compressed sparse row (CSR) form: two read-only int64 arrays, ``indptr`` and
``indices``, with every row sorted.  Generators and samplers build these
arrays with numpy; the tuple-of-tuples ``adjacency`` is a view derived on
first use.  Instances are immutable after construction and safe to share
across threads.  Generators are deterministic functions of their arguments
and the seed, and refuse to build more than ``SIZE_CAP`` vertices.
Counts go through ``_check_whole``, index arrays through ``_check_indices`` and
weight vectors through ``_check_weights``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import log, log1p

import numpy as np

from . import rng

SIZE_CAP = 10**7


class SizeCapError(ValueError):
    """Requested graph exceeds the vertex cap ``SIZE_CAP``."""


def _check_cap(n: int) -> None:
    if n > SIZE_CAP:
        raise SizeCapError(f"graph would have {n} vertices, above the cap of {SIZE_CAP}")


def _check_whole(value, name: str = "radius", low: int = 0) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, >= ``low``.
    Nothing is truncated: 2.5, 4.0, True and "3" all raise."""
    if type(value) is int and value >= low:  # the common case, at a third of the cost
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be a whole number >= {low}, got {value!r}")
    return int(value)


def _check_indices(values, n: int | None = None, name: str = "vertex index") -> np.ndarray:
    """``values`` as an int64 array, never truncated: a nonempty input must have
    an integer dtype, and with ``n`` given every entry must lie in [0, n)."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be given as integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if n is not None and arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValueError(f"{name} out of range [0, {n})")
    return arr


def _check_weights(values, name: str) -> np.ndarray:
    """``values`` as a nonempty float64 vector of finite weights >= 0 with a positive sum."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or not arr.size:
        raise ValueError(f"{name} must be a nonempty vector")
    if not (np.isfinite(arr).all() and arr.min() >= 0):
        raise ValueError(f"{name} must be finite and >= 0")
    if not arr.sum() > 0:
        raise ValueError(f"{name} must have a positive sum")
    return arr


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
        indices = _check_indices([*chain.from_iterable(adjacency)], name="neighbor index")
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
    def matrix(self) -> "scipy.sparse.csr_matrix":
        """Adjacency matrix with unit weights, rows in the order of ``indices``."""
        from scipy import sparse
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
        n = _check_whole(n, "n")
        arr = _check_indices(edges if isinstance(edges, np.ndarray) else list(edges), n, "edge endpoint")
        arr = arr.reshape(-1, 2)
        if arr.size:
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
        object.__setattr__(self, "root", int(_check_indices(self.root, n, "root")))
        if len(_levels(self.graph, [self.root])[0]) != n:
            raise ValueError("rooted graph must be connected")

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count


def _rooted(graph: Graph, root: int, origin=None, truncated: bool = False) -> RootedGraph:
    """Trusted constructor for a graph built connected: no connectivity walk."""
    rg = RootedGraph.__new__(RootedGraph)
    vars(rg).update(graph=graph, root=root, origin=origin, truncated=truncated)
    return rg


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


def _levels(g: Graph, sources, depth: int | None = None) -> tuple[np.ndarray, list[int]]:
    """The vertices within ``depth`` hops of ``sources`` (all they reach if
    None) in BFS order, and the level ends: ``ends[d]`` of them lie within
    distance d, for d = 0..depth (to the last level if None).  The order is
    the distinct sources, increasing, then each level as the rows of the one
    before first meet it.  A bool mask marks the visited vertices and the
    walk stops at an empty level: it costs what it reaches, plus a fixed
    numpy cost per level.  While the levels are id ranges from 0 (a forest
    by generation from roots 0..s-1), the next is the range up to the level's
    largest neighbour if each vertex has its smallest neighbour, its parent,
    below it and the parents do not decrease: the range is the visit order."""
    levels = [np.unique(sources, return_index=True)[0]]  # sorting here beats np.unique's default hash table
    ends = [len(levels[0])]
    seen = np.zeros(g.vertex_count, dtype=bool)
    seen[levels[0]] = True
    lo, hi = 0, ends[0] if np.array_equal(levels[0], np.arange(ends[0])) else -1
    for _ in range(g.vertex_count if depth is None else depth):
        if hi >= 0:  # the visited ids are 0..hi-1, and the last level is lo..hi-1
            top = int(g.indices[g.indptr[lo] : g.indptr[hi]].max(initial=hi - 1)) + 1
            if top == hi:
                break
            ptr = g.indptr[hi : top + 1]
            parent = g.indices[ptr[:-1]]  # in bounds: vertex top - 1 has a neighbour
            if np.all(ptr[1:] > ptr[:-1]) and np.all(parent < hi) and np.all(parent[1:] >= parent[:-1]):
                lo, hi = hi, top
                ends.append(hi)
                continue
            seen[:hi] = True
            levels, hi = [np.arange(lo), np.arange(lo, hi)], -1
        nbr = _rows(g, levels[-1])[1]
        nbr = nbr[~seen[nbr]]
        new = nbr[np.sort(np.unique(nbr, return_index=True)[1])]  # each new vertex where first met
        if not len(new):
            break
        seen[new] = True
        levels.append(new)
        ends.append(ends[-1] + len(new))
    if depth is not None:
        ends += [ends[-1]] * (depth + 1 - len(ends))
    return np.arange(hi) if hi >= 0 else np.concatenate(levels), ends


def _rows(g: Graph, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency entries of ``verts``, row after row: for each entry, the
    position of its row in ``verts``, and the neighbor it holds."""
    start = g.indptr[verts]
    deg = g.indptr[verts + 1] - start
    which = np.repeat(np.arange(len(verts), dtype=np.int64), deg)
    return which, g.indices[np.repeat(start - np.cumsum(deg) + deg, deg) + np.arange(len(which))]


def _induced(g: Graph, vertices) -> Graph:
    """Induced subgraph on the distinct ``vertices``, with ``vertices[i]`` renumbered ``i``."""
    verts = np.asarray(vertices, dtype=np.int64)
    local = np.full(g.vertex_count, -1, dtype=np.int64)
    local[verts] = np.arange(len(verts))
    a, nbr = _rows(g, verts)
    b = local[nbr]
    keep = a < b  # also drops neighbors outside the set (b = -1)
    return _from_edge_arrays(len(verts), np.stack([a[keep], b[keep]], axis=1))


def _disjoint_union(graphs) -> tuple[Graph, np.ndarray]:
    """Disjoint union of ``graphs``, each shifted past the ones before it (so
    rows stay sorted), and the vertex of the union each one starts at."""
    sizes = np.array([g.vertex_count for g in graphs], dtype=np.int64)
    lengths = np.array([len(g.indices) for g in graphs], dtype=np.int64)
    first = np.cumsum(sizes) - sizes
    indptr = np.concatenate([np.zeros(1, dtype=np.int64)] + [g.indptr[1:] for g in graphs])
    indptr[1:] += np.repeat(np.cumsum(lengths) - lengths, sizes)
    indices = np.concatenate([np.zeros(0, dtype=np.int64)] + [g.indices for g in graphs])
    return _from_csr(indptr, indices + np.repeat(first, lengths)), first


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each unordered pair is an edge independently with probability p."""
    n = _check_whole(n, "n", 1)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    _check_cap(n)
    if p == 0.0 or n == 1:
        return _from_edge_arrays(n, ())
    if p == 1.0:
        return _from_edge_arrays(n, np.stack(np.triu_indices(n, 1), axis=1))
    gen = rng.generator(seed, 0x4552)
    # skip-sampling over the pairs w < v by v, then w, pair v(v-1)/2 + w: geometric
    # gaps between edges; below p ~ 1e-16, 1 - p rounds to 1 and log would give 0
    lq = log(1.0 - p) if 1.0 - p < 1.0 else log1p(-p)
    pairs, last, found = n * (n - 1) // 2, -1.0, []
    with np.errstate(over="ignore"):  # a gap may be inf for subnormal p
        while last < pairs:
            # math.log, as np.log may round otherwise; a capped gap >= n * n stays past
            # the last pair, and the float sums are exact integers up to the first past it
            draws = gen.random(min(int(1.1 * p * pairs) + 64, 1 << 20))
            gaps = np.fromiter(map(log, (1.0 - draws).tolist()), np.float64) / lq
            ends = last + np.cumsum(np.floor(np.minimum(gaps, n * n)) + 1)
            found.append(ends[ends < pairs])
            last = ends[-1]
    idx = np.concatenate(found).astype(np.int64)
    v = np.searchsorted(np.arange(n) * np.arange(1, n + 1) // 2, idx, side="right")
    return _from_edge_arrays(n, np.stack([idx - v * (v - 1) // 2, v], axis=1))


def _pair_decode(idx: np.ndarray, n: int) -> np.ndarray:
    """Decode lexicographic pair index (u<v) over n vertices."""
    # row u holds the pairs (u, v > u) from index u*n - u(u+1)/2 on
    rows = np.arange(max(n - 1, 0), dtype=np.int64)
    starts = rows * n - rows * (rows + 1) // 2
    u = np.searchsorted(starts, idx, side="right") - 1
    return np.stack([u, u + 1 + (idx - starts[u])], axis=1)


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph with exactly m edges on n labeled vertices."""
    n = _check_whole(n, "n", 1)
    m = _check_whole(m, f"m={m!r}")
    total = n * (n - 1) // 2
    if m > total:
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
    ``degrees`` may be whole-number floats: they are data, not a count argument.
    """
    deg = np.asarray(degrees)
    if deg.dtype.kind not in "iu":  # integer arrays skip the whole-number test
        if deg.dtype.kind != "f" or not np.all(np.isfinite(deg) & (deg == np.floor(deg))):
            raise ValueError("degrees must be whole numbers")
    deg = deg.astype(np.int64, copy=False)
    n = len(deg)
    if n < 1:
        raise ValueError("degree sequence must be nonempty")
    if deg.min(initial=0) < 0:
        raise ValueError("degrees must be nonnegative")
    if np.any(deg >= n):
        raise ValueError("each degree must be < n")
    if int(deg.sum()) % 2 != 0:
        raise ValueError("degree sum must be even")
    max_pairing_attempts = _check_whole(max_pairing_attempts, "max_pairing_attempts")
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
    n, k = _check_whole(n, "n", 1), _check_whole(k, "k")
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
    dim, n = _check_whole(dim, "dim", 1), _check_whole(n, "n")
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
    return _rooted(g, int(np.ravel_multi_index((n,) * dim, shape)))


def lattice_index(coord, n: int, dim: int) -> int:
    """Vertex index of a lattice coordinate in {-n..n}^dim (row-major)."""
    side = 2 * n + 1
    return int(np.ravel_multi_index(tuple(c + n for c in coord), (side,) * dim))


def lattice_coord(index: int, n: int, dim: int) -> tuple[int, ...]:
    side = 2 * n + 1
    return tuple(int(c) - n for c in np.unravel_index(index, (side,) * dim))


def gen_regular_tree(k: int, height: int) -> RootedGraph:
    """Rooted tree whose internal vertices have degree k and leaves sit at ``height``."""
    k, height = _check_whole(k, "k", 2), _check_whole(height, "height")
    if height == 0:
        return _rooted(Graph(((),)), 0)
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
    return _rooted(g, 0)


def gen_canopy_truncation(d: int, levels: int, base_width: int, *, root_level: int = 0) -> RootedGraph:
    """Finite slab of the leaf-rooted limit of deep regular trees.

    Vertices are (i, j) for i = 0..levels with row widths
    ``base_width * (d-1)**(levels-i)``, and (i, j) is joined to
    (i+1, j // (d-1)).  The root is (root_level, 0).  Because row 0 vertices
    have the wrong degree only near i = levels, simulations on this graph are
    exact for horizons shorter than ``levels - root_level``.
    """
    d, levels = _check_whole(d, "d", 3), _check_whole(levels, "levels", 1)
    base_width = _check_whole(base_width, "base_width", 1)
    if _check_whole(root_level, "root_level") > levels:
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
        return _rooted(g, root)
    return component_of(g, root)


# ---------------------------------------------------------------------------
# Components, roots, balls
# ---------------------------------------------------------------------------

def component_of(g: Graph, v: int) -> RootedGraph:
    """Connected component of v, reindexed in BFS order and rooted at v's image."""
    order = _levels(g, _check_indices(v, g.vertex_count, "vertex"))[0]
    return _rooted(_induced(g, order), 0, origin=tuple(order.tolist()))


def uniform_root_component(g: Graph, seed: int) -> RootedGraph:
    """Component of a uniformly random vertex."""
    if g.vertex_count == 0:
        raise ValueError("graph has no vertices to root")
    v = int(rng.generator(seed, 0x524F).integers(0, g.vertex_count))
    return component_of(g, v)


def component_labels(g: Graph) -> np.ndarray:
    """Label array assigning each vertex the smallest vertex of its component."""
    if g.vertex_count == 0:
        return np.zeros(0, dtype=np.int64)
    from scipy.sparse import csgraph
    _, labels = csgraph.connected_components(g.matrix, directed=False)
    _, smallest = np.unique(labels, return_index=True)
    return smallest[labels].astype(np.int64)


def largest_component(g: Graph) -> RootedGraph:
    """Largest component; ties broken by smallest contained vertex, which roots it."""
    if g.vertex_count < 1:
        raise ValueError("graph must have at least one vertex")
    best = np.argmax(np.bincount(component_labels(g)))  # a label is a vertex; np.argmax takes the first max
    return component_of(g, int(best))


def ball(rg: RootedGraph, k: int) -> RootedGraph:
    """Induced subgraph on vertices within distance k of the root."""
    _check_whole(k)
    order = _levels(rg.graph, [rg.root], k)[0]
    return _rooted(_induced(rg.graph, order), 0, origin=tuple(order.tolist()))
