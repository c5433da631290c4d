"""Synchronous particle dynamics on graphs: discrete updates and diffusions.

Noise is counter-based: the draw consumed by vertex v at step k is a pure
function of (seed, stream(v), noise_index(v), k).  Swapping the stream of a
subset of vertices is exactly the coupling used in the correlation-decay
experiments, and permuting ``noise_index`` realizes automorphism equivariance
bit for bit.

Built-in models aggregate neighbor states with sorted or counting reductions,
so their output is invariant under any reordering of the neighbor bundle, in
floating point and not just in law.

:func:`simulate` runs any model; it and every estimator here dispatch on the
model family in one place.  Each family's ``_start`` sets up a run: X(0) from
the marks, the time grid, the noise draw of a step (uniforms or Gaussians)
and the update (the batch rule, or the scalar rule run per vertex by the one
fallback ``_scalar_rule``).  One step loop, ``_states``, drives both
families, and one runner serves single runs and one serves replica blocks, so
a replica block is the stack of its single runs, bit for bit.  Discrete rules
are row-local, so X_v[0..T] reads only B_T(v): a replica block steps only the
light cone of its recorded vertices, shrinking by one hop per step (rows for
the vertices that draw, columns for those they read), while a diffusion steps
the whole graph.  The engines take a :class:`~sparsedyn.graphs.Graph` and
raise ``TypeError`` on anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from scipy import sparse

from . import rng
from .graphs import Graph
from .graphs import _check_indices, _check_whole, _levels, _rows

_DISC_TAG = 0x44534352
_DIFF_TAG = 0x44494646


class NumericalAbort(RuntimeError):
    """Simulation produced a non-finite state; carries the failing step index."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state at step {step}")
        self.step = step


@dataclass(frozen=True)
class TrajectorySet:
    """Per-vertex state paths on a shared time grid (time-major storage)."""

    graph: Graph
    times: np.ndarray  # (T,)
    paths: np.ndarray  # (T, n) for scalar states, (T, n, d) for vectors

    def __post_init__(self):
        if self.paths.shape[0] != len(self.times):
            raise ValueError("paths and times disagree on grid length")
        if self.paths.shape[1] != self.graph.vertex_count:
            raise ValueError("paths and graph disagree on vertex count")


@dataclass(frozen=True)
class GraphAux:
    """Traversal arrays shared by the vectorized update rules.

    A view of a :class:`Graph`: its own read-only CSR arrays plus the
    degrees and sparse matrix the graph derives once and caches.  On a
    light-cone step it is the step's block instead: a row for each vertex that
    draws noise and a column for each vertex those rows read, the rows first.
    """

    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    adjacency: sparse.csr_matrix

    @staticmethod
    def of(g: Graph) -> "GraphAux":
        return GraphAux(g.indptr, g.indices, g.degrees, g.matrix)

    def neighbor_sums(self, values: np.ndarray) -> np.ndarray:
        """Row sums of neighbor values: ``values`` of shape (..., columns)
        gives shape (..., rows)."""
        if values.ndim == 1:
            return self.adjacency @ values
        # math.prod rather than -1, which numpy rejects when n is 0
        flat = values.reshape(math.prod(values.shape[:-1]), values.shape[-1])
        return (self.adjacency @ flat.T).T.reshape(*values.shape[:-1], self.adjacency.shape[0])


@dataclass(frozen=True)
class DiscreteModel:
    """Synchronous Markov update rule for finite-alphabet (or scalar) states.

    ``step(k, own, neighbor_states, u)``, the scalar rule, maps one vertex's
    current state, its neighbors' current states (an empty array for an
    isolated vertex) and one uniform draw to its next state; it must be
    invariant under permutations of ``neighbor_states``.
    ``batch_step(k, cur, aux, u)`` is an optional vectorised rule giving the
    same results: ``cur`` holds the states of the block's columns, shape
    ``(..., columns)``, leading axes being independent runs such as replicas;
    the rows' own states are its first ``len(aux.degrees)`` entries; ``u`` and
    the result have one entry per row, shape ``(..., len(aux.degrees))``.  On
    a whole-graph step rows and columns are all n vertices; on a light-cone
    step the columns outnumber the rows, so an elementwise ``cur + u`` fails
    there with a ``ValueError`` naming the model.  The engines run
    ``batch_step`` when it is set and the scalar rule per vertex otherwise.
    Integer marks are symbols of the alphabet and the states stay int64; float
    marks run as float64 states.

    Both rules must be row-local: row v of the next state reads only v's own
    state, its neighbours' states in ``aux`` and ``u[v]``.  A run recording a
    few vertices relies on this to update only their light cone.
    """

    name: str
    alphabet_size: int
    step: Callable[[int, object, np.ndarray, float], object]
    batch_step: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        _check_whole(self.alphabet_size, "alphabet_size", 1)

    def _grid(self, k_max, dt) -> np.ndarray:
        """The step grid 0..k_max; ``dt`` is unused."""
        return np.arange(_whole_steps(k_max) + 1, dtype=np.int64)

    def _start(self, marks, n: int, k_max, dt, seed: int):
        """X(0) of shape (n,), the :meth:`_grid`, the uniform draws and update
        rule of :func:`_states`, and True: the rules are row-local, so a run
        recording a few vertices steps their light cone."""
        times = self._grid(k_max, dt)
        x0 = np.asarray(marks)
        if x0.shape != (n,):
            raise ValueError("marks length must equal vertex count")
        if x0.dtype.kind in "iub" and n and (x0.min() < 0 or x0.max() >= self.alphabet_size):
            raise ValueError(f"integer marks must lie in [0, {self.alphabet_size}) for {self.name}")
        x0 = x0.astype(np.int64 if x0.dtype.kind in "iub" else np.float64)
        key = rng.stream_key(seed, _DISC_TAG)

        def draw(vertex, k, stream):
            return rng.uniform(key, vertex, k, stream=stream)

        def update(k, cur, aux, u):
            if self.batch_step is None:
                return _scalar_rule(lambda own, nb, ui: self.step(k, own, nb, float(ui)), cur, aux, u, 0)
            try:
                nxt = np.asarray(self.batch_step(k, cur, aux, u), dtype=x0.dtype)
            except ValueError as err:  # such as cur + u on a cone block, whose columns outnumber its rows
                raise ValueError(f"batch_step of {self.name} failed, expected {u.shape}: {err}") from err
            if nxt.shape != u.shape:
                raise ValueError(f"batch_step of {self.name} returned shape {nxt.shape}, expected {u.shape}")
            return nxt

        return x0, times, draw, update, True


@dataclass(frozen=True)
class DiffusionModel:
    """Drift/diffusion pair for Euler-Maruyama integration.

    ``drift(t, own, neighbors)``, the scalar rule, reads one vertex's current
    state and its neighbors' states.  ``sigma`` is a number, for noise that
    does not depend on the state, or a scalar rule ``sigma(t, own,
    neighbors)`` giving a number or a (dim, dim) matrix.
    ``batch_drift(t, states, aux)`` is an optional vectorised drift over
    current states of shape ``(..., n, d)``, leading axes being independent
    runs such as replicas; it needs a number ``sigma``.  The engines run
    ``batch_drift`` when it is set and the scalar rules per vertex otherwise.
    """

    name: str
    dim: int
    drift: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    sigma: float | Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    batch_drift: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        _check_whole(self.dim, "dim", 1)
        if not callable(self.sigma) and np.ndim(self.sigma) != 0:
            raise ValueError("sigma must be a number or a scalar rule")
        if self.batch_drift is not None and callable(self.sigma):
            raise ValueError("batch_drift needs a number sigma, not a sigma rule")

    def _grid(self, horizon: float, dt: float) -> np.ndarray:
        """The time grid to ``horizon`` in steps of ``dt``."""
        return np.arange(_step_count(horizon, dt) + 1, dtype=np.float64) * dt

    def _start(self, marks, n: int, horizon: float, dt: float, seed: int):
        """X(0) of shape (n, dim), the :meth:`_grid`, the Gaussian draws and
        Euler-Maruyama update of :func:`_states` (which raises
        :class:`NumericalAbort` on a non-finite state), and False: every run
        steps the whole graph, so any non-finite state aborts it."""
        times = self._grid(horizon, dt)
        x0 = np.asarray(marks, dtype=np.float64)
        if x0.ndim == 1:
            if self.dim != 1:
                raise ValueError("scalar marks with a multi-dimensional model")
            x0 = x0[:, None]
        if x0.shape != (n, self.dim):
            raise ValueError("marks must have shape (n,) or (n, dim)")
        key, sqdt, slots = rng.stream_key(seed, _DIFF_TAG), math.sqrt(dt), np.arange(self.dim)

        def draw(vertex, k, stream):
            # one draw per (vertex, component): slot j drives component j
            return rng.gauss(key, vertex[..., None], k, stream=stream[..., None], slot=slots)

        def euler(t, own, neighbors, z):
            b = np.asarray(self.drift(t, own, neighbors), dtype=np.float64)
            s = np.asarray(self.sigma(t, own, neighbors) if callable(self.sigma) else self.sigma, np.float64)
            return own + b * dt + sqdt * (float(s) * z if s.ndim == 0 else s @ z)

        def update(k, cur, aux, z):
            if self.batch_drift is not None:
                nxt = cur + self.batch_drift(k * dt, cur, aux) * dt + self.sigma * sqdt * z
            else:
                nxt = _scalar_rule(partial(euler, k * dt), cur, aux, z, 1)
            if not np.all(np.isfinite(nxt)):
                raise NumericalAbort(k + 1)
            return nxt

        return x0, times, draw, update, False


def _step_count(horizon: float, dt: float) -> int:
    """Number of Euler steps; ``horizon`` must be a whole multiple of ``dt``
    (to a relative tolerance of 1e-9), so a run never ends short of it."""
    if any(isinstance(x, bool) or not math.isfinite(x) for x in (horizon, dt)):
        raise ValueError(f"horizon and dt must be finite numbers, got {horizon!r} and {dt!r}")
    if dt <= 0 or horizon < dt:
        raise ValueError("need dt > 0 and horizon >= dt")
    ratio = horizon / dt
    steps = round(ratio)
    if abs(ratio - steps) > 1e-9 * ratio:
        raise ValueError(f"horizon {horizon!r} is not a whole number of steps of dt {dt!r}")
    return steps


def _whole_steps(k_max) -> int:
    """A discrete horizon counts steps: a whole number >= 0, never truncated.
    Unlike ``graphs._check_whole`` it takes integral floats such as 4.0, since
    ``simulate`` and the estimators pass one ``horizon`` to both model
    families, and a diffusion horizon is a time."""
    if isinstance(k_max, bool) or not float(k_max).is_integer() or k_max < 0:
        raise ValueError(f"a discrete horizon must be a whole number of steps >= 0, got {k_max!r}")
    return int(k_max)


def _per_vertex(value, n: int, name: str) -> np.ndarray:
    """An integer scalar or (n,) integer array, as an (n,) int64 array."""
    arr = _check_indices(value, name=name)
    if arr.ndim == 0:
        return np.full(n, arr, dtype=np.int64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a scalar or have shape ({n},)")
    return arr


def _scalar_rule(rule, cur: np.ndarray, aux: GraphAux, noise: np.ndarray, state_ndim: int) -> np.ndarray:
    """The one scalar fallback: next states from ``rule(own, neighbor_states,
    noise)`` run per row, for each index of the leading run axes of ``cur``
    (shape (..., columns) plus ``state_ndim`` state axes); ``noise`` and the
    result have one entry per row in place of the columns."""
    nxt = np.empty(noise.shape, dtype=cur.dtype)
    for idx in np.ndindex(cur.shape[: cur.ndim - 1 - state_ndim]):
        here, out, draws = cur[idx], nxt[idx], noise[idx]
        for v in range(len(aux.degrees)):
            out[v] = rule(here[v], here[aux.indices[aux.indptr[v] : aux.indptr[v + 1]]], draws[v])
    return nxt


def _states(blocks, draw, update, x0: np.ndarray, stream):
    """The one step loop: yield X(1), ..., X(steps) from X(0) = ``x0`` of shape
    (..., n) or (..., n, dim).  Step k runs block k-1, ``(aux, vertex)``:
    X(k) = update(k-1, X(k-1), aux, draw(vertex, k, stream)), where ``vertex``
    and ``stream`` broadcast to the leading axes and the block's rows, the
    vertices that draw; X(k-1) holds the block's columns."""
    cur = x0
    for k, (aux, vertex) in enumerate(blocks):
        cur = update(k, cur, aux, draw(vertex, k + 1, stream))
        yield cur


def _light_cone(g: Graph, record: np.ndarray, steps: int):
    """``(keep, at, blocks)``: the vertices within ``steps`` of ``record`` in
    BFS visit order, the position of each record entry in ``keep``, and the
    block of each step.  X_v(k) for v within steps - k of the record reads
    X(k-1) within steps - k + 1 alone, so step k's block has a row for each
    vertex of the first prefix of ``keep`` and a column for each of the second,
    all prefix views of arrays built once.  Rows keep their neighbour order:
    float sums and scalar rules see what they see on the whole graph."""
    keep, ends = _levels(g, record.ravel(), steps)  # ends[d]: vertices within distance d
    drawn = ends[steps - 1] if steps else 0  # the vertices that ever draw noise
    if np.array_equal(keep, np.arange(len(keep))):  # numbered in visit order already, as a forest by generation
        at, indptr, indices = record, g.indptr, g.indices
        degrees = np.diff(g.indptr[: drawn + 1])
    else:
        by_id = np.argsort(keep)
        at = by_id[np.searchsorted(keep, record, sorter=by_id)]
        degrees = g.indptr[keep[:drawn] + 1] - g.indptr[keep[:drawn]]
        indptr = np.concatenate([[0], np.cumsum(degrees)])
        indices = by_id[np.searchsorted(keep, _rows(g, keep[:drawn])[1], sorter=by_id)]
    data = np.ones(indptr[drawn])

    def block(k):
        inner, width = ends[steps - k], ends[steps - k + 1]
        end = indptr[inner]
        adjacency = sparse.csr_matrix((data[:end], indices[:end], indptr[: inner + 1]), shape=(inner, width))
        return GraphAux(indptr[: inner + 1], indices[:end], degrees[:inner], adjacency), keep[:inner]

    return keep, at, map(block, range(1, steps + 1))


def _begin(model, graph: Graph, marks, horizon, dt, seed: int):
    """The ``model._start`` of a run on ``graph``; checks the graph."""
    if not isinstance(graph, Graph):
        raise TypeError(f"the dynamics engines take a Graph, got {type(graph).__name__}")
    return model._start(marks, graph.vertex_count, horizon, dt, seed)


def _single(model, graph: Graph, marks, horizon, dt, seed: int, streams, noise_index) -> TrajectorySet:
    """The one runner of single runs: vertex v draws from stream ``streams``
    at noise index ``noise_index`` (integer scalars or per-vertex arrays)."""
    x0, times, draw, update, _ = _begin(model, graph, marks, horizon, dt, seed)
    n = graph.vertex_count
    vertex = np.arange(n, dtype=np.int64) if noise_index is None else _per_vertex(noise_index, n, "noise_index")
    blocks = [(GraphAux.of(graph), vertex)] * (len(times) - 1)
    paths = np.empty((len(times), *x0.shape), dtype=x0.dtype)
    paths[0] = x0
    for k, x in enumerate(_states(blocks, draw, update, x0, _per_vertex(streams, n, "streams")), 1):
        paths[k] = x
    return TrajectorySet(graph, times, paths)


def _replicas(model, graph: Graph, marks, horizon, dt, seed: int, replicas: int, record,
              offset: int) -> np.ndarray:
    """The one runner of replica blocks: (replicas, T+1, |record|) paths of
    the recorded vertices (the one component of a dim-1 diffusion), all
    replicas advancing together along a leading axis; replica r is the single
    run on noise stream 2(r + offset), on the record's :func:`_light_cone` if
    the model's ``_start`` says its rules are row-local."""
    x0, times, draw, update, local = _begin(model, graph, marks, horizon, dt, seed)
    n, steps = graph.vertex_count, len(times) - 1
    replicas, offset = _check_whole(replicas, "replicas", 1), _check_whole(offset, "replica_offset")
    record = _check_indices(record, n)
    keep, at, blocks = (_light_cone(graph, record, steps) if local else
                        (slice(None), record, [(GraphAux.of(graph), np.arange(n, dtype=np.int64))] * steps))
    x0 = np.tile(x0[keep], (replicas,) + (1,) * x0.ndim)
    streams = 2 * (offset + np.arange(replicas, dtype=np.int64))[:, None]
    run = _states(blocks, draw, update, x0, streams)
    paths = np.stack([x0[:, at], *(x[:, at] for x in run)], axis=1)
    return paths.reshape(*paths.shape[:2], *record.shape)


def simulate_discrete(graph: Graph, marks, model: DiscreteModel, k_max: int, seed: int, *, streams=0,
                      noise_index=None) -> TrajectorySet:
    """Run X_v(k+1) = F(k, X_v(k), X_neighbors(k), xi_v(k+1)) for k < k_max
    on the :class:`Graph` ``graph``; vertex v draws from stream ``streams[v]``
    at noise index ``noise_index[v]`` (default v), integers or (n,) integer arrays."""
    return _single(model, graph, marks, k_max, None, seed, streams, noise_index)


def simulate_diffusion(graph: Graph, marks, model: DiffusionModel, horizon: float, dt: float, seed: int, *,
                       streams=0, noise_index=None) -> TrajectorySet:
    """Euler-Maruyama on the :class:`Graph` ``graph``: X += b dt + sigma sqrt(dt) Z per step.

    Neighbor interaction is evaluated at the current grid time.  Aborts with
    :class:`NumericalAbort` if any state turns non-finite.  ``streams`` and
    ``noise_index`` are integers or (n,) integer arrays.
    """
    return _single(model, graph, marks, horizon, dt, seed, streams, noise_index)


def _dispatch(model, horizon, dt):
    """The one discrete/diffusion dispatch: ``(times, run, replica_paths,
    record)``, the model's time grid and the engines of its family with model
    and horizon bound; ``record(graph, marks, seed, at)`` is one run's paths at
    the vertices ``at``, for which a discrete run steps only their light cone.
    The engines are looked up at call time, so patched module bindings apply."""
    if isinstance(model, DiscreteModel):
        replicas = partial(replica_paths_discrete, model=model, k_max=horizon)
        return (model._grid(horizon, dt), partial(simulate_discrete, model=model, k_max=horizon), replicas,
                lambda graph, marks, seed, at: replicas(graph, marks, seed=seed, replicas=1, record=at)[0])
    if dt is None:
        raise ValueError("dt is required for diffusion models")
    run = partial(simulate_diffusion, model=model, horizon=horizon, dt=dt)
    return (model._grid(horizon, dt), run, partial(replica_paths_diffusion, model=model, horizon=horizon, dt=dt),
            lambda graph, marks, seed, at: run(graph, marks, seed=seed).paths[:, at])


def simulate(graph: Graph, marks, model, horizon, seed: int, *, dt: float | None = None, streams=0,
             noise_index=None) -> TrajectorySet:
    """One run of a discrete or diffusion model on the :class:`Graph` ``graph`` from ``marks``.

    ``horizon`` counts steps for a :class:`DiscreteModel` (a whole number)
    and is a time for a :class:`DiffusionModel`, run in Euler steps of ``dt``.
    """
    run = _dispatch(model, horizon, dt)[1]
    return run(graph, marks, seed=seed, streams=streams, noise_index=noise_index)


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def _sorted_sum(values: np.ndarray) -> float:
    # permutation-invariant float reduction: sort before summing
    return float(np.sort(values, kind="stable").sum())


def _check_symbols(states, name: str) -> None:
    """Finite-alphabet rules take integer (or bool) states only."""
    kind = np.asarray(states).dtype.kind
    if kind not in "iub":
        raise ValueError(f"{name} needs integer marks, got dtype kind {kind!r}")


def voter_model(alphabet_size: int = 2) -> DiscreteModel:
    """Adopt the state of a uniformly chosen neighbor; isolated vertices hold.

    The uniform choice is realized as an order statistic of the neighbor
    multiset, which makes the rule exactly permutation-invariant.  Both rules
    raise ``ValueError`` on float states.
    """

    def step(k, own, neighbors, u):
        _check_symbols(neighbors, "voter")
        if not len(neighbors):
            return int(own)
        pick = int(u * len(neighbors))
        return int(np.sort(neighbors, kind="stable")[pick])

    def batch(k, cur, aux: GraphAux, u):
        _check_symbols(cur, "voter")
        # the pick-th smallest neighbor state exceeds s iff at most pick
        # neighbors hold a state <= s (counts are exact in float64)
        pick = np.floor(u * aux.degrees)
        at_most = np.zeros(pick.shape)
        nxt = np.zeros(pick.shape, dtype=np.int64)
        for s in range(alphabet_size - 1):
            at_most += aux.neighbor_sums((cur == s).astype(np.float64))
            nxt += at_most <= pick
        return np.where(aux.degrees > 0, nxt, cur[..., : len(aux.degrees)])

    return DiscreteModel("voter", alphabet_size, step, batch)


def noisy_majority_model(epsilon: float = 0.0) -> DiscreteModel:
    """Binary majority of neighbors, ties kept at the current state, then an
    independent flip with probability epsilon.  Both rules raise
    ``ValueError`` on float states."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")

    def step(k, own, neighbors, u):
        _check_symbols(neighbors, "noisy_majority")
        ones, total = int(np.sum(neighbors)), len(neighbors)
        if 2 * ones > total:
            out = 1
        elif 2 * ones < total:
            out = 0
        else:
            out = int(own)
        return 1 - out if u < epsilon else out

    def batch(k, cur, aux: GraphAux, u):
        _check_symbols(cur, "noisy_majority")
        ones = np.rint(aux.neighbor_sums(cur.astype(np.float64))).astype(np.int64)
        maj = np.where(2 * ones > aux.degrees, 1, np.where(2 * ones < aux.degrees, 0, cur[..., : len(aux.degrees)]))
        return np.where(u < epsilon, 1 - maj, maj)

    return DiscreteModel(f"noisy_majority({epsilon})", 2, step, batch)


def consensus_sde_model(sigma0: float = 1.0, dim: int = 1) -> DiffusionModel:
    """Drift toward the neighbor mean with additive isotropic noise."""

    def drift(t, own, neighbors):
        if len(neighbors) == 0:
            return np.zeros_like(own)
        mean = np.array(
            [_sorted_sum(neighbors[:, j]) for j in range(neighbors.shape[1])]
        ) / len(neighbors)
        return mean - own

    def batch(t, states, aux: GraphAux):
        # sum each of the d components over the neighbors, along the vertex axis
        sums = np.swapaxes(aux.neighbor_sums(np.swapaxes(states, -1, -2)), -1, -2)
        mean = sums / np.maximum(aux.degrees, 1)[:, None]
        return np.where(aux.degrees[:, None] > 0, mean - states, 0.0)

    return DiffusionModel(f"consensus_sde({sigma0})", dim, drift, float(sigma0), batch_drift=batch)


def kuramoto_model(coupling: float = 1.0, sigma0: float = 0.0) -> DiffusionModel:
    """Phase oscillators: drift (K/|N_v|) sum sin(x_u - x_v), scalar noise."""

    def drift(t, own, neighbors):
        if len(neighbors) == 0:
            return np.zeros_like(own)
        terms = np.sin(neighbors[:, 0] - own[0])
        return np.array([coupling * _sorted_sum(terms) / len(neighbors)])

    def batch(t, states, aux: GraphAux):
        x = states[..., 0]
        sin_sum = aux.neighbor_sums(np.sin(x))
        cos_sum = aux.neighbor_sums(np.cos(x))
        deg = np.maximum(aux.degrees, 1)
        val = coupling * (np.cos(x) * sin_sum - np.sin(x) * cos_sum) / deg
        return np.where(aux.degrees > 0, val, 0.0)[..., None]

    return DiffusionModel(f"kuramoto({coupling},{sigma0})", 1, drift, float(sigma0), batch_drift=batch)


# ---------------------------------------------------------------------------
# Noise-partition coupling and covariance profiles
# ---------------------------------------------------------------------------

def distances_to(g: Graph, region) -> np.ndarray:
    """Graph distance from every vertex to a vertex set (multi-source BFS).

    Vertices the region cannot reach get ``iinfo(int64).max``.  Beyond
    filling the result, the cost is that of the part the region reaches plus
    a fixed numpy cost per level, so a long path pays for every hop.
    """
    region = _check_indices(list(region), g.vertex_count)
    if not region.size:
        raise ValueError("region must be nonempty")
    order, ends = _levels(g, region)
    dist = np.full(g.vertex_count, np.iinfo(np.int64).max, dtype=np.int64)
    dist[order] = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    return dist


def coupled_triple(
    graph: Graph,
    marks,
    region_a,
    region_b,
    model,
    horizon,
    seed: int,
    *,
    dt: float | None = None,
) -> tuple[TrajectorySet, TrajectorySet, TrajectorySet]:
    """Three same-law runs on the :class:`Graph` ``graph``, coupled through a
    noise partition.

    X uses the base stream everywhere.  Where d(v, A1) >= d(v, A2), Y switches
    to a fresh stream and Z keeps the base one; elsewhere the roles swap.  Y
    and Z are therefore driven by disjoint noise collections and are
    independent, while each agrees with X on the complementary half.
    """
    run = _dispatch(model, horizon, dt)[1]
    x = run(graph, marks, seed=seed)  # runs first, so the graph is checked before distances_to
    swap = distances_to(graph, region_a) >= distances_to(graph, region_b)
    y, z = (run(graph, marks, seed=seed, streams=np.where(swap, s, 1 - s)) for s in (1, 0))
    return x, y, z


@dataclass(frozen=True)
class DecayProfile:
    """Covariance estimates against graph distance, with CI half-widths."""

    distances: np.ndarray
    estimates: np.ndarray
    ci_half_widths: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.distances)
        if np.any(np.diff(d) <= 0):
            raise ValueError("distances must be strictly increasing")


def replica_paths_discrete(
    graph: Graph,
    marks,
    model: DiscreteModel,
    k_max: int,
    seed: int,
    replicas: int,
    record,
    *,
    replica_offset: int = 0,
) -> np.ndarray:
    """(replicas, k_max+1, |record|) paths on the :class:`Graph` ``graph``;
    replica r uses noise streams 2(r+offset).

    All replicas advance together along a leading replica axis.  Replica r
    reproduces ``simulate_discrete(..., streams=2*(r+offset))``.  ``record``
    is an integer array of vertices.
    """
    return _replicas(model, graph, marks, k_max, None, seed, replicas, record, replica_offset)


def replica_paths_diffusion(
    graph: Graph,
    marks,
    model: DiffusionModel,
    horizon: float,
    dt: float,
    seed: int,
    replicas: int,
    record,
    *,
    replica_offset: int = 0,
) -> np.ndarray:
    """(replicas, steps+1, |record|) scalar paths of a dim-1 model on the
    :class:`Graph` ``graph``.

    All replicas advance together along a leading replica axis.  Replica r
    reproduces ``simulate_diffusion(..., streams=2*(r+offset))``.  ``record``
    is an integer array of vertices.
    """
    if model.dim != 1:
        raise ValueError("replica paths need a dim-1 model")
    return _replicas(model, graph, marks, horizon, dt, seed, replicas, record, replica_offset)


def covariance_decay_profile(
    graph: Graph,
    marks,
    model,
    pairs,
    f: Callable[[np.ndarray], float],
    horizon,
    replicas: int,
    seed: int,
    *,
    dt: float | None = None,
    ci_z: float = 1.96,
) -> DecayProfile:
    """Monte Carlo covariance of f over two vertex groups of the :class:`Graph`
    ``graph``, per listed pair.

    ``pairs`` is a list of (region_a, region_b, distance) with strictly
    increasing distances.  ``f`` maps a (T+1, |region|) path block to a
    bounded real.  The normal-approximation CI half-width uses ``ci_z``.
    """
    replicas = _check_whole(replicas, "replicas", 100)
    if not 0 <= ci_z < math.inf:
        raise ValueError(f"ci_z must be finite and >= 0, got {ci_z!r}")
    # range-checked by the replica engine, which records these vertices
    needed = np.unique(_check_indices([v for a, b, _ in pairs for v in (*a, *b)]))
    times, _, replica_paths, _ = _dispatch(model, horizon, dt)
    # chunk replicas so recorded paths stay within ~10^7 scalars
    chunk = max(1, min(replicas, 10_000_000 // max(1, len(times) * len(needed))))
    fa, fb = np.empty((len(pairs), replicas)), np.empty((len(pairs), replicas))
    done = 0
    while done < replicas:
        size = min(chunk, replicas - done)
        block = replica_paths(graph, marks, seed=seed, replicas=size, record=needed, replica_offset=done)
        for i, (region_a, region_b, _) in enumerate(pairs):
            for out, region in ((fa, region_a), (fb, region_b)):
                cols = np.searchsorted(needed, region)
                out[i, done : done + size] = [f(block[r][:, cols]) for r in range(size)]
        done += size
    prod = (fa - fa.mean(axis=1, keepdims=True)) * (fb - fb.mean(axis=1, keepdims=True))
    se = prod.std(axis=1, ddof=1) / math.sqrt(replicas)
    return DecayProfile(np.array([dist for _, _, dist in pairs]), prod.mean(axis=1), ci_z * se)
