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
model family in one place.  Each family sets up a run once (``_start``: the
step count, X(0) from the marks, the noise key, the time grid and the states
loop), and one runner serves single runs and one serves replica blocks for
both families, so a replica block is the stack of its single runs, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from . import rng
from .graphs import Graph, MarkedGraph, RootedGraph

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
    degrees and sparse matrix the graph derives once and caches.
    """

    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    adjacency: sparse.csr_matrix

    @staticmethod
    def of(g: Graph) -> "GraphAux":
        return GraphAux(g.indptr, g.indices, g.degrees, g.matrix)

    def neighbor_sums(self, values: np.ndarray) -> np.ndarray:
        """Row sums of neighbor values; ``values`` is (n,) or (..., n)."""
        if values.ndim == 1:
            return self.adjacency @ values
        # math.prod rather than -1, which numpy rejects when n is 0
        flat = values.reshape(math.prod(values.shape[:-1]), values.shape[-1])
        return (self.adjacency @ flat.T).T.reshape(values.shape)


@dataclass(frozen=True)
class DiscreteModel:
    """Synchronous Markov update rule for finite-alphabet (or scalar) states.

    ``step(k, own, neighbor_states, u)``, the scalar rule, maps one vertex's
    current state, its neighbors' current states (an empty array for an
    isolated vertex) and one uniform draw to its next state; it must be
    invariant under permutations of ``neighbor_states``.
    ``batch_step(k, cur, aux, u)`` is an optional vectorised rule giving the
    same results: ``cur`` and ``u`` have shape ``(..., n)``, leading axes being
    independent runs such as replicas.  The engines use it when present and
    fall back to the scalar rule.  Integer marks are symbols of the alphabet
    and the states stay int64; float marks run as float64 states.
    """

    name: str
    alphabet_size: int
    step: Callable[[int, object, np.ndarray, float], object]
    batch_step: Callable | None = field(default=None, compare=False)

    def _start(self, marks, n: int, k_max, dt, seed: int):
        """``(x0, times, states)`` of a run of ``k_max`` steps from ``marks``
        (``dt`` is unused): X(0) of shape (n,), the step grid 0..k_max, and
        ``states(aux, x0, vertex, stream)`` yielding X(1), ..., X(k_max) from
        any X(0) of shape (..., n)."""
        k_max = _whole_steps(k_max)
        x0 = np.asarray(marks)
        if x0.shape != (n,):
            raise ValueError("marks length must equal vertex count")
        if x0.dtype.kind in "iub" and n and (x0.min() < 0 or x0.max() >= self.alphabet_size):
            raise ValueError(f"integer marks must lie in [0, {self.alphabet_size}) for {self.name}")
        x0 = x0.astype(np.int64 if x0.dtype.kind in "iub" else np.float64)
        times = np.arange(k_max + 1, dtype=np.int64)
        return x0, times, partial(_discrete_states, self, k_max, rng.stream_key(seed, _DISC_TAG))


@dataclass(frozen=True)
class DiffusionModel:
    """Drift/diffusion pair for Euler-Maruyama integration.

    ``drift(t, own, neighbors)`` and ``sigma(t, own, neighbors)``, the scalar
    rule, read one vertex's current state and its neighbors' states.
    ``batch_drift(t, states, aux)`` is an optional vectorised drift over
    current states of shape ``(..., n, d)``, leading axes being independent
    runs such as replicas.  The engines use it with the state-independent
    scalar ``sigma_scale`` when both are set, else the scalar rule.
    """

    name: str
    dim: int
    drift: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    sigma: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    batch_drift: Callable | None = field(default=None, compare=False)
    sigma_scale: float | None = None

    def _start(self, marks, n: int, horizon: float, dt: float, seed: int):
        """``(x0, times, states)`` of a run to ``horizon`` in steps of ``dt``
        from ``marks``: X(0) of shape (n, dim), the time grid, and
        ``states(aux, x0, vertex, stream)`` yielding the Euler-Maruyama states
        from any X(0) of shape (..., n, dim)."""
        steps = _step_count(horizon, dt)
        x0 = np.asarray(marks, dtype=np.float64)
        if x0.ndim == 1:
            if self.dim != 1:
                raise ValueError("scalar marks with a multi-dimensional model")
            x0 = x0[:, None]
        if x0.shape != (n, self.dim):
            raise ValueError("marks must have shape (n,) or (n, dim)")
        times = np.arange(steps + 1, dtype=np.float64) * dt
        return x0, times, partial(_diffusion_states, self, steps, dt, rng.stream_key(seed, _DIFF_TAG))


def _resolve_graph(g, marks) -> tuple[Graph, np.ndarray | None]:
    """The plain graph of ``g``, and ``marks`` or else the marks ``g`` carries."""
    if isinstance(g, MarkedGraph):
        return g.graph, np.asarray(g.marks) if marks is None else marks
    if marks is None:
        raise ValueError("marks are required unless g is a MarkedGraph")
    return (g.graph if isinstance(g, RootedGraph) else g), marks


def _step_count(horizon: float, dt: float) -> int:
    """Number of Euler steps; ``horizon`` must be a whole multiple of ``dt``
    (to a relative tolerance of 1e-9), so a run never ends short of it."""
    if dt <= 0 or horizon < dt:
        raise ValueError("need dt > 0 and horizon >= dt")
    ratio = horizon / dt
    steps = round(ratio)
    if abs(ratio - steps) > 1e-9 * ratio:
        raise ValueError(f"horizon {horizon!r} is not a whole number of steps of dt {dt!r}")
    return steps


def _whole_steps(k_max) -> int:
    """A discrete horizon counts steps: a whole number >= 0, never truncated."""
    if not float(k_max).is_integer() or k_max < 0:
        raise ValueError(f"a discrete horizon must be a whole number of steps >= 0, got {k_max!r}")
    return int(k_max)


def _vertex_indices(vertices, n: int) -> np.ndarray:
    """``vertices`` as an int64 array; each must index a vertex of an n-vertex graph."""
    arr = np.asarray(vertices, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValueError(f"vertex index out of range [0, {n})")
    return arr


def _per_vertex(value, n: int) -> np.ndarray:
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.full(n, int(arr), dtype=np.int64)
    if arr.shape[0] != n:
        raise ValueError("per-vertex array has wrong length")
    return arr.astype(np.int64)


def _discrete_states(model: DiscreteModel, k_max: int, key: int, aux: GraphAux, x0: np.ndarray,
                     vertex, stream):
    """Yield X(1), ..., X(k_max) from X(0) = ``x0`` of shape (..., n); the
    draws of step k, ``rng.uniform(key, vertex, k, stream=stream)``, broadcast
    to that shape.  ``batch_step`` advances all leading axes in one call;
    the scalar fallback runs per vertex."""
    cur = x0
    for k in range(k_max):
        u = rng.uniform(key, vertex, k + 1, stream=stream)
        if model.batch_step is not None:
            nxt = np.asarray(model.batch_step(k, cur, aux, u), dtype=x0.dtype)
        else:
            nxt = np.empty_like(cur)
            for idx in np.ndindex(x0.shape[:-1]):
                here, out, draws = cur[idx], nxt[idx], u[idx]
                for v in range(len(aux.degrees)):
                    nb_states = here[aux.indices[aux.indptr[v] : aux.indptr[v + 1]]]
                    out[v] = model.step(k, here[v], nb_states, float(draws[v]))
        cur = nxt
        yield cur


def _diffusion_states(model: DiffusionModel, steps: int, dt: float, key: int, aux: GraphAux,
                      x0: np.ndarray, vertex, stream):
    """Yield the Euler-Maruyama states X(dt), ..., X(steps dt) from X(0) =
    ``x0`` of shape (..., n, d); ``vertex`` and ``stream`` broadcast to
    (..., n).  Raises :class:`NumericalAbort` on a non-finite state."""
    sqdt = math.sqrt(dt)
    batch = model.batch_drift is not None and model.sigma_scale is not None
    # one draw per (vertex, component): slot j drives component j
    vertex, stream, slots = vertex[..., None], stream[..., None], np.arange(model.dim)
    cur = x0
    for step in range(steps):
        t = step * dt
        z = rng.gauss(key, vertex, step + 1, stream=stream, slot=slots)
        if batch:
            nxt = cur + model.batch_drift(t, cur, aux) * dt + model.sigma_scale * sqdt * z
        else:
            nxt = np.empty_like(cur)
            for idx in np.ndindex(x0.shape[:-2]):
                here, out, noise = cur[idx], nxt[idx], z[idx]
                for v in range(len(aux.degrees)):
                    nb_states = here[aux.indices[aux.indptr[v] : aux.indptr[v + 1]]]
                    b = np.asarray(model.drift(t, here[v], nb_states), dtype=np.float64)
                    s = np.asarray(model.sigma(t, here[v], nb_states), dtype=np.float64)
                    noise_term = float(s) * noise[v] if s.ndim == 0 else s @ noise[v]
                    out[v] = here[v] + b * dt + sqdt * noise_term
        if not np.all(np.isfinite(nxt)):
            raise NumericalAbort(step + 1)
        cur = nxt
        yield cur


def _single(model, g, marks, horizon, dt, seed: int, streams, noise_index) -> TrajectorySet:
    """The one runner of single runs: vertex v draws from stream ``streams``
    at noise index ``noise_index`` (both scalars or per-vertex arrays)."""
    graph, marks = _resolve_graph(g, marks)
    n = graph.vertex_count
    x0, times, states = model._start(marks, n, horizon, dt, seed)
    vertex = np.arange(n, dtype=np.int64) if noise_index is None else _per_vertex(noise_index, n)
    paths = np.empty((len(times), *x0.shape), dtype=x0.dtype)
    paths[0] = x0
    for k, x in enumerate(states(GraphAux.of(graph), x0, vertex, _per_vertex(streams, n)), 1):
        paths[k] = x
    return TrajectorySet(graph, times, paths)


def _replicas(model, graph: Graph, marks, horizon, dt, seed: int, replicas: int, record,
              offset: int) -> np.ndarray:
    """The one runner of replica blocks: (replicas, T+1, |record|) paths of
    the recorded vertices (the one component of a dim-1 diffusion), all
    replicas advancing together along a leading axis; replica r is the single
    run on noise stream 2(r + offset)."""
    n = graph.vertex_count
    x0, _, states = model._start(marks, n, horizon, dt, seed)
    record = _vertex_indices(record, n)
    x0 = np.tile(x0, (replicas,) + (1,) * x0.ndim)
    streams = 2 * (offset + np.arange(replicas, dtype=np.int64))[:, None]
    run = states(GraphAux.of(graph), x0, np.arange(n, dtype=np.int64)[None, :], streams)
    paths = np.stack([x0[:, record], *(x[:, record] for x in run)], axis=1)
    return paths.reshape(*paths.shape[:2], *record.shape)


def simulate_discrete(
    g,
    marks,
    model: DiscreteModel,
    k_max: int,
    seed: int,
    *,
    streams=0,
    noise_index=None,
) -> TrajectorySet:
    """Run X_v(k+1) = F(k, X_v(k), X_neighbors(k), xi_v(k+1)) for k < k_max."""
    return _single(model, g, marks, k_max, None, seed, streams, noise_index)


def simulate_diffusion(
    g,
    marks,
    model: DiffusionModel,
    horizon: float,
    dt: float,
    seed: int,
    *,
    streams=0,
    noise_index=None,
) -> TrajectorySet:
    """Euler-Maruyama on the graph: X += b dt + sigma sqrt(dt) Z per step.

    Neighbor interaction is evaluated at the current grid time.  Aborts with
    :class:`NumericalAbort` if any state turns non-finite.
    """
    return _single(model, g, marks, horizon, dt, seed, streams, noise_index)


def _dispatch(model, horizon, dt):
    """The one discrete/diffusion dispatch: ``(steps, run, replica_paths)``,
    the engines of the model's family with model and horizon bound.  They are
    looked up at call time, so patched module bindings apply."""
    if isinstance(model, DiscreteModel):
        steps = _whole_steps(horizon)
        return (steps, partial(simulate_discrete, model=model, k_max=steps),
                partial(replica_paths_discrete, model=model, k_max=steps))
    if dt is None:
        raise ValueError("dt is required for diffusion models")
    return (_step_count(horizon, dt), partial(simulate_diffusion, model=model, horizon=horizon, dt=dt),
            partial(replica_paths_diffusion, model=model, horizon=horizon, dt=dt))


def simulate(g, marks, model, horizon, seed: int, *, dt: float | None = None, streams=0,
             noise_index=None) -> TrajectorySet:
    """One run of a discrete or diffusion model on ``g`` from ``marks``.

    ``horizon`` counts steps for a :class:`DiscreteModel` (a whole number)
    and is a time for a :class:`DiffusionModel`, run in Euler steps of ``dt``.
    """
    _, run, _ = _dispatch(model, horizon, dt)
    return run(g, marks, seed=seed, streams=streams, noise_index=noise_index)


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
        at_most = np.zeros(cur.shape)
        nxt = np.zeros(cur.shape, dtype=np.int64)
        for s in range(alphabet_size - 1):
            at_most += aux.neighbor_sums((cur == s).astype(np.float64))
            nxt += at_most <= pick
        return np.where(aux.degrees > 0, nxt, cur)

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
        maj = np.where(2 * ones > aux.degrees, 1, np.where(2 * ones < aux.degrees, 0, cur))
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

    def sigma(t, own, neighbors):
        return np.float64(sigma0)

    def batch(t, states, aux: GraphAux):
        # sum each of the d components over the neighbors, along the vertex axis
        sums = np.swapaxes(aux.neighbor_sums(np.swapaxes(states, -1, -2)), -1, -2)
        mean = sums / np.maximum(aux.degrees, 1)[:, None]
        return np.where(aux.degrees[:, None] > 0, mean - states, 0.0)

    return DiffusionModel(
        f"consensus_sde({sigma0})", dim, drift, sigma, batch_drift=batch, sigma_scale=float(sigma0),
    )


def kuramoto_model(coupling: float = 1.0, sigma0: float = 0.0) -> DiffusionModel:
    """Phase oscillators: drift (K/|N_v|) sum sin(x_u - x_v), scalar noise."""

    def drift(t, own, neighbors):
        if len(neighbors) == 0:
            return np.zeros_like(own)
        terms = np.sin(neighbors[:, 0] - own[0])
        return np.array([coupling * _sorted_sum(terms) / len(neighbors)])

    def sigma(t, own, neighbors):
        return np.float64(sigma0)

    def batch(t, states, aux: GraphAux):
        x = states[..., 0]
        sin_sum = aux.neighbor_sums(np.sin(x))
        cos_sum = aux.neighbor_sums(np.cos(x))
        deg = np.maximum(aux.degrees, 1)
        val = coupling * (np.cos(x) * sin_sum - np.sin(x) * cos_sum) / deg
        return np.where(aux.degrees > 0, val, 0.0)[..., None]

    return DiffusionModel(
        f"kuramoto({coupling},{sigma0})", 1, drift, sigma, batch_drift=batch, sigma_scale=float(sigma0),
    )


# ---------------------------------------------------------------------------
# Noise-partition coupling and covariance profiles
# ---------------------------------------------------------------------------

def distances_to(g: Graph, region) -> np.ndarray:
    """Graph distance from every vertex to a vertex set (multi-source BFS).

    Vertices the region cannot reach get ``iinfo(int64).max``.
    """
    region = _vertex_indices([int(v) for v in region], g.vertex_count)
    if not region.size:
        raise ValueError("region must be nonempty")
    found = csgraph.dijkstra(g.matrix, directed=False, indices=region, unweighted=True, min_only=True)
    dist = np.full(g.vertex_count, np.iinfo(np.int64).max, dtype=np.int64)
    reached = np.isfinite(found)
    dist[reached] = found[reached]
    return dist


def coupled_triple(
    g,
    marks,
    region_a,
    region_b,
    model,
    horizon,
    seed: int,
    *,
    dt: float | None = None,
) -> tuple[TrajectorySet, TrajectorySet, TrajectorySet]:
    """Three same-law runs coupled through a noise partition.

    X uses the base stream everywhere.  Where d(v, A1) >= d(v, A2), Y switches
    to a fresh stream and Z keeps the base one; elsewhere the roles swap.  Y
    and Z are therefore driven by disjoint noise collections and are
    independent, while each agrees with X on the complementary half.
    """
    graph, marks = _resolve_graph(g, marks)
    _, run, _ = _dispatch(model, horizon, dt)
    swap = distances_to(graph, region_a) >= distances_to(graph, region_b)
    streams = (np.zeros(graph.vertex_count, dtype=np.int64), np.where(swap, 1, 0), np.where(swap, 0, 1))
    return tuple(run(graph, marks, seed=seed, streams=s) for s in streams)


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
    """(replicas, k_max+1, |record|) paths; replica r uses noise streams 2(r+offset).

    All replicas advance together along a leading replica axis.  Replica r
    reproduces ``simulate_discrete(..., streams=2*(r+offset))``.
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
    """(replicas, steps+1, |record|) scalar paths of a dim-1 model.

    All replicas advance together along a leading replica axis.  Replica r
    reproduces ``simulate_diffusion(..., streams=2*(r+offset))``.
    """
    if model.dim != 1:
        raise ValueError("replica paths need a dim-1 model")
    return _replicas(model, graph, marks, horizon, dt, seed, replicas, record, replica_offset)


def covariance_decay_profile(
    g,
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
    """Monte Carlo covariance of f over two vertex groups, per listed pair.

    ``pairs`` is a list of (region_a, region_b, distance) with strictly
    increasing distances.  ``f`` maps a (T+1, |region|) path block to a
    bounded real.  The normal-approximation CI half-width uses ``ci_z``.
    """
    if replicas < 100:
        raise ValueError("replicas must be >= 100")
    graph, marks = _resolve_graph(g, marks)
    # range-checked by the replica engine, which records these vertices
    needed = sorted({int(v) for a, b, _ in pairs for v in (*a, *b)})
    pos = {v: i for i, v in enumerate(needed)}
    steps, _, replica_paths = _dispatch(model, horizon, dt)
    # chunk replicas so recorded paths stay within ~10^7 scalars
    chunk = max(1, min(replicas, 10_000_000 // max(1, (steps + 1) * len(needed))))
    fa_parts = {i: [] for i in range(len(pairs))}
    fb_parts = {i: [] for i in range(len(pairs))}
    done = 0
    while done < replicas:
        size = min(chunk, replicas - done)
        block = replica_paths(graph, marks, seed=seed, replicas=size, record=needed, replica_offset=done)
        for i, (region_a, region_b, _) in enumerate(pairs):
            ia = [pos[int(v)] for v in region_a]
            ib = [pos[int(v)] for v in region_b]
            fa_parts[i].append(np.array([f(block[r][:, ia]) for r in range(size)]))
            fb_parts[i].append(np.array([f(block[r][:, ib]) for r in range(size)]))
        done += size
    distances, estimates, cis = [], [], []
    for i, (_, _, dist) in enumerate(pairs):
        fa = np.concatenate(fa_parts[i])
        fb = np.concatenate(fb_parts[i])
        prod = (fa - fa.mean()) * (fb - fb.mean())
        cov = float(prod.mean())
        se = float(prod.std(ddof=1) / math.sqrt(replicas))
        distances.append(dist)
        estimates.append(cov)
        cis.append(ci_z * se)
    return DecayProfile(np.array(distances), np.array(estimates), np.array(cis))
