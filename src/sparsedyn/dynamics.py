"""Synchronous particle dynamics on graphs: discrete updates and diffusions.

Noise is counter-based: the draw consumed by vertex v at step k is a pure
function of (seed, stream(v), noise_index(v), k).  Swapping the stream of a
subset of vertices is exactly the coupling used in the correlation-decay
experiments, and permuting ``noise_index`` realizes automorphism equivariance
bit for bit.

Built-in models aggregate neighbor states with sorted or counting reductions,
so their output is invariant under any reordering of the neighbor bundle, in
floating point and not just in law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    kind: str  # "discrete" | "vector"

    def __post_init__(self):
        if self.paths.shape[0] != len(self.times):
            raise ValueError("paths and times disagree on grid length")
        if self.paths.shape[1] != self.graph.vertex_count:
            raise ValueError("paths and graph disagree on vertex count")

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def path_of(self, v: int) -> np.ndarray:
        return self.paths[:, v]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            if self.paths.ndim == 2:
                fh.write("vertex,time,state\n")
                for v in range(self.graph.vertex_count):
                    for t, x in zip(self.times, self.paths[:, v]):
                        fh.write(f"{v},{t},{x}\n")
            else:
                d = self.paths.shape[2]
                header = ",".join(f"x{i}" for i in range(d))
                fh.write(f"vertex,time,{header}\n")
                for v in range(self.graph.vertex_count):
                    for t, x in zip(self.times, self.paths[:, v]):
                        fh.write(f"{v},{t}," + ",".join(repr(float(c)) for c in x) + "\n")


@dataclass(frozen=True)
class GraphAux:
    """Traversal arrays shared by the vectorized update rules.

    A view of a :class:`Graph`: its own read-only CSR arrays plus the
    degrees, edge sources and sparse matrix the graph derives once and caches.
    """

    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    edge_src: np.ndarray  # repeat(arange(n), degrees); aligned with indices
    adjacency: sparse.csr_matrix

    @staticmethod
    def of(g: Graph) -> "GraphAux":
        return GraphAux(g.indptr, g.indices, g.degrees, g.edge_src, g.matrix)

    def neighbor_sums(self, values: np.ndarray) -> np.ndarray:
        """Row sums of neighbor values; ``values`` is (n,) or (..., n)."""
        if values.ndim == 1:
            return self.adjacency @ values
        flat = values.reshape(-1, values.shape[-1])
        return (self.adjacency @ flat.T).T.reshape(values.shape)


@dataclass(frozen=True)
class DiscreteModel:
    """Synchronous update rule for finite-alphabet (or scalar) states.

    ``step(k, own_history, neighbor_states, u)`` consumes one uniform draw and
    must be invariant under permutations of ``neighbor_states``.
    ``isolated_step`` handles empty neighborhoods.  ``batch_step`` is an
    optional vectorized path producing identical results; when present the
    engine prefers it.
    """

    name: str
    alphabet_size: int
    step: Callable[[int, np.ndarray, np.ndarray, float], int]
    isolated_step: Callable[[int, np.ndarray, float], int]
    batch_step: Callable | None = field(default=None, compare=False)


@dataclass(frozen=True)
class DiffusionModel:
    """Drift/diffusion pair for Euler-Maruyama integration.

    ``drift(t, own, neighbors)`` and ``sigma(t, own, neighbors)`` read current
    states (a special case of the path-dependent contract; the interface keeps
    histories out of the hot loop but nothing in the storage layout prevents
    extending it).  ``lipschitz_constant`` is metadata used only for
    reporting.  ``batch_drift``/``replica_drift`` are vectorized fast paths
    for models whose sigma is the state-independent scalar ``sigma_scale``.
    """

    name: str
    dim: int
    drift: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    sigma: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    lipschitz_constant: float | None = None
    batch_drift: Callable | None = field(default=None, compare=False)
    replica_drift: Callable | None = field(default=None, compare=False)
    sigma_scale: float | None = None


def _resolve_graph(g) -> tuple[Graph, np.ndarray | None]:
    if isinstance(g, MarkedGraph):
        return g.graph, np.asarray(g.marks)
    if isinstance(g, RootedGraph):
        return g.graph, None
    return g, None


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


def _check_marks(marks: np.ndarray, model: DiscreteModel) -> None:
    """Integer marks must be symbols of the model's alphabet."""
    if marks.dtype.kind in "iub" and marks.size and (
        marks.min() < 0 or marks.max() >= model.alphabet_size
    ):
        raise ValueError(f"integer marks must lie in [0, {model.alphabet_size}) for {model.name}")


def _per_vertex(value, n: int) -> np.ndarray:
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.full(n, int(arr), dtype=np.int64)
    if arr.shape[0] != n:
        raise ValueError("per-vertex array has wrong length")
    return arr.astype(np.int64)


def simulate_discrete(
    g,
    marks,
    model: DiscreteModel,
    k_max: int,
    seed: int,
    *,
    streams=0,
    noise_index=None,
    force_scalar: bool = False,
) -> TrajectorySet:
    """Run X(k+1) = F(k, X_v[0..k], X_neighbors(k), xi_v(k+1)) for k < k_max."""
    graph, inferred = _resolve_graph(g)
    if marks is None:
        marks = inferred
    state0 = np.asarray(marks)
    n = graph.vertex_count
    if state0.shape[0] != n:
        raise ValueError("marks length must equal vertex count")
    _check_marks(state0, model)
    dtype = np.int64 if state0.dtype.kind in "iub" else np.float64
    key = rng.stream_key(seed, _DISC_TAG)
    stream_arr = _per_vertex(streams, n)
    noise_arr = np.arange(n, dtype=np.int64) if noise_index is None else _per_vertex(noise_index, n)
    aux = GraphAux.of(graph)
    paths = np.empty((k_max + 1, *state0.shape), dtype=dtype)
    paths[0] = state0
    use_batch = model.batch_step is not None and not force_scalar
    for k in range(k_max):
        u = rng.uniform(key, noise_arr, k + 1, stream=stream_arr)
        if use_batch:
            paths[k + 1] = model.batch_step(k, paths[: k + 1], aux, u)
        else:
            cur = paths[k]
            nxt = paths[k + 1]
            for v in range(n):
                nb = aux.indices[aux.indptr[v] : aux.indptr[v + 1]]
                if nb.size:
                    nxt[v] = model.step(k, paths[: k + 1, v], cur[nb], float(u[v]))
                else:
                    nxt[v] = model.isolated_step(k, paths[: k + 1, v], float(u[v]))
    times = np.arange(k_max + 1, dtype=np.int64)
    return TrajectorySet(graph, times, paths, "discrete")


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
    force_scalar: bool = False,
) -> TrajectorySet:
    """Euler-Maruyama on the graph: X += b dt + sigma sqrt(dt) Z per step.

    Neighbor interaction is evaluated at the current grid time.  Aborts with
    :class:`NumericalAbort` if any state turns non-finite.
    """
    steps = _step_count(horizon, dt)
    graph, inferred = _resolve_graph(g)
    if marks is None:
        marks = inferred
    x0 = np.asarray(marks, dtype=np.float64)
    n = graph.vertex_count
    d = model.dim
    if x0.ndim == 1:
        if d != 1:
            raise ValueError("scalar marks with a multi-dimensional model")
        x0 = x0[:, None]
    if x0.shape != (n, d):
        raise ValueError("marks must have shape (n,) or (n, dim)")
    key = rng.stream_key(seed, _DIFF_TAG)
    stream_arr = _per_vertex(streams, n)
    noise_arr = np.arange(n, dtype=np.int64) if noise_index is None else _per_vertex(noise_index, n)
    aux = GraphAux.of(graph)
    paths = np.empty((steps + 1, n, d), dtype=np.float64)
    paths[0] = x0
    sqdt = math.sqrt(dt)
    use_batch = model.batch_drift is not None and model.sigma_scale is not None and not force_scalar
    for step in range(steps):
        t = step * dt
        cur = paths[step]
        z = np.stack(
            [rng.gauss(key, noise_arr, step + 1, stream=stream_arr, slot=j) for j in range(d)],
            axis=1,
        )
        if use_batch:
            drift = model.batch_drift(t, cur, aux)
            paths[step + 1] = cur + drift * dt + model.sigma_scale * sqdt * z
        else:
            nxt = paths[step + 1]
            for v in range(n):
                nb = aux.indices[aux.indptr[v] : aux.indptr[v + 1]]
                nb_states = cur[nb]
                b = np.asarray(model.drift(t, cur[v], nb_states), dtype=np.float64)
                s = np.asarray(model.sigma(t, cur[v], nb_states), dtype=np.float64)
                noise_term = float(s) * z[v] if s.ndim == 0 else s @ z[v]
                nxt[v] = cur[v] + b * dt + sqdt * noise_term
        if not np.all(np.isfinite(paths[step + 1])):
            raise NumericalAbort(step + 1)
    times = np.arange(steps + 1, dtype=np.float64) * dt
    return TrajectorySet(graph, times, paths, "vector")


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def _sorted_sum(values: np.ndarray) -> float:
    # permutation-invariant float reduction: sort before summing
    return float(np.sort(values, kind="stable").sum())


def voter_model(alphabet_size: int = 2) -> DiscreteModel:
    """Adopt the state of a uniformly chosen neighbor; isolated vertices hold.

    The uniform choice is realized as an order statistic of the neighbor
    multiset, which makes the rule exactly permutation-invariant.
    """

    def step(k, own_hist, neighbors, u):
        pick = int(u * len(neighbors))
        return int(np.sort(neighbors, kind="stable")[pick])

    def isolated(k, own_hist, u):
        return int(own_hist[-1])

    def batch(k, hist, aux: GraphAux, u):
        cur = hist[-1]
        n = cur.shape[0]
        a = alphabet_size
        counts = np.bincount(aux.edge_src * a + cur[aux.indices], minlength=n * a).reshape(n, a)
        cums = np.cumsum(counts, axis=1)
        pick = np.floor(u * aux.degrees).astype(np.int64)
        nxt = np.sum(cums <= pick[:, None], axis=1)
        return np.where(aux.degrees > 0, nxt, cur)

    return DiscreteModel("voter", alphabet_size, step, isolated, batch)


def noisy_majority_model(epsilon: float = 0.0) -> DiscreteModel:
    """Binary majority of neighbors, ties kept at the current state, then an
    independent flip with probability epsilon."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")

    def decide(own, ones, total, u):
        if 2 * ones > total:
            out = 1
        elif 2 * ones < total:
            out = 0
        else:
            out = own
        return 1 - out if u < epsilon else out

    def step(k, own_hist, neighbors, u):
        return decide(int(own_hist[-1]), int(np.sum(neighbors)), len(neighbors), u)

    def isolated(k, own_hist, u):
        return decide(int(own_hist[-1]), 0, 0, u)

    def batch(k, hist, aux: GraphAux, u):
        cur = hist[-1]
        ones = np.rint(aux.adjacency @ cur.astype(np.float64)).astype(np.int64)
        maj = np.where(2 * ones > aux.degrees, 1, np.where(2 * ones < aux.degrees, 0, cur))
        return np.where(u < epsilon, 1 - maj, maj)

    return DiscreteModel(f"noisy_majority({epsilon})", 2, step, isolated, batch)


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
        sums = aux.adjacency @ states
        mean = sums / np.maximum(aux.degrees, 1)[:, None]
        return np.where(aux.degrees[:, None] > 0, mean - states, 0.0)

    def replica(t, states, aux: GraphAux):
        # states: (R, n) scalar components
        sums = aux.neighbor_sums(states)
        mean = sums / np.maximum(aux.degrees, 1)[None, :]
        return np.where(aux.degrees[None, :] > 0, mean - states, 0.0)

    return DiffusionModel(
        f"consensus_sde({sigma0})", dim, drift, sigma,
        lipschitz_constant=2.0, batch_drift=batch, replica_drift=replica,
        sigma_scale=float(sigma0),
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

    def _pairwise(x, aux):
        sin_sum = aux.neighbor_sums(np.sin(x))
        cos_sum = aux.neighbor_sums(np.cos(x))
        deg = np.maximum(aux.degrees, 1)
        val = coupling * (np.cos(x) * sin_sum - np.sin(x) * cos_sum) / deg
        return np.where(aux.degrees > 0, val, 0.0)

    def batch(t, states, aux: GraphAux):
        return _pairwise(states[:, 0], aux)[:, None]

    def replica(t, states, aux: GraphAux):
        return _pairwise(states, aux)

    return DiffusionModel(
        f"kuramoto({coupling},{sigma0})", 1, drift, sigma,
        lipschitz_constant=2.0 * coupling, batch_drift=batch, replica_drift=replica,
        sigma_scale=float(sigma0),
    )


_BUILTINS: dict[str, Callable] = {
    "voter": voter_model,
    "noisy_majority": noisy_majority_model,
    "consensus_sde": consensus_sde_model,
    "kuramoto": kuramoto_model,
}


def builtin_model(name: str, **params):
    """Look up a built-in model by name; raises KeyError for unknown names."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown model {name!r}; available: {sorted(_BUILTINS)}")
    return _BUILTINS[name](**params)


# ---------------------------------------------------------------------------
# Noise-partition coupling and covariance profiles
# ---------------------------------------------------------------------------

def distances_to(g: Graph, region) -> np.ndarray:
    """Graph distance from every vertex to a vertex set (multi-source BFS).

    Vertices the region cannot reach get ``iinfo(int64).max``.
    """
    region = np.array([int(v) for v in region], dtype=np.int64)
    if not region.size:
        raise ValueError("region must be nonempty")
    if region.min() < 0 or region.max() >= g.vertex_count:
        raise ValueError("region vertex out of range")
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
    graph, inferred = _resolve_graph(g)
    if marks is None:
        marks = inferred
    d1 = distances_to(graph, region_a)
    d2 = distances_to(graph, region_b)
    swap = d1 >= d2
    streams_x = np.zeros(graph.vertex_count, dtype=np.int64)
    streams_y = np.where(swap, 1, 0)
    streams_z = np.where(swap, 0, 1)
    if isinstance(model, DiscreteModel):
        run = lambda s: simulate_discrete(graph, marks, model, int(horizon), seed, streams=s)
    else:
        if dt is None:
            raise ValueError("dt is required for diffusion models")
        run = lambda s: simulate_diffusion(graph, marks, model, float(horizon), dt, seed, streams=s)
    return run(streams_x), run(streams_y), run(streams_z)


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

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("distance,covariance,ci_half_width\n")
            for d, e, c in zip(self.distances, self.estimates, self.ci_half_widths):
                fh.write(f"{d},{e!r},{c!r}\n")


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

    Requires a batch-capable model reading only the current state (true of the
    built-ins).  Replica r reproduces ``simulate_discrete(..., streams=2*(r+offset))``.
    """
    if model.batch_step is None:
        raise ValueError("replica batching needs a batch-capable model")
    aux = GraphAux.of(graph)
    n = graph.vertex_count
    key = rng.stream_key(seed, _DISC_TAG)
    record = np.asarray(record, dtype=np.int64)
    out = np.empty((replicas, k_max + 1, len(record)), dtype=np.int64)
    marks = np.asarray(marks, dtype=np.int64)
    _check_marks(marks, model)
    states = np.tile(marks, (replicas, 1))
    out[:, 0, :] = states[:, record]
    rep_streams = 2 * (replica_offset + np.arange(replicas, dtype=np.int64))[:, None]
    verts = np.arange(n, dtype=np.int64)[None, :]
    for k in range(k_max):
        u = rng.uniform(key, verts, k + 1, stream=rep_streams)
        nxt = np.empty_like(states)
        for r in range(replicas):
            nxt[r] = model.batch_step(k, states[r][None, :], aux, u[r])
        states = nxt
        out[:, k + 1, :] = states[:, record]
    return out


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
    """(replicas, steps+1, |record|) scalar paths, vectorized across replicas.

    Supports dim-1 models exposing ``replica_drift`` with scalar sigma.
    Replica r reproduces ``simulate_diffusion(..., streams=2*(r+offset))``.
    """
    if model.replica_drift is None or model.sigma_scale is None or model.dim != 1:
        raise ValueError("replica batching needs a dim-1 model with replica_drift")
    steps = _step_count(horizon, dt)
    aux = GraphAux.of(graph)
    n = graph.vertex_count
    key = rng.stream_key(seed, _DIFF_TAG)
    record = np.asarray(record, dtype=np.int64)
    x0 = np.asarray(marks, dtype=np.float64).reshape(n)
    out = np.empty((replicas, steps + 1, len(record)), dtype=np.float64)
    states = np.tile(x0, (replicas, 1))
    out[:, 0, :] = states[:, record]
    rep_streams = 2 * (replica_offset + np.arange(replicas, dtype=np.int64))[:, None]
    verts = np.arange(n, dtype=np.int64)[None, :]
    sqdt = math.sqrt(dt)
    for step in range(steps):
        t = step * dt
        z = rng.gauss(key, verts, step + 1, stream=rep_streams, slot=0)
        drift = model.replica_drift(t, states, aux)
        states = states + drift * dt + model.sigma_scale * sqdt * z
        if not np.all(np.isfinite(states)):
            raise NumericalAbort(step + 1)
        out[:, step + 1, :] = states[:, record]
    return out


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
    graph, inferred = _resolve_graph(g)
    if marks is None:
        marks = inferred
    needed = sorted({int(v) for a, b, _ in pairs for v in (*a, *b)})
    pos = {v: i for i, v in enumerate(needed)}
    if isinstance(model, DiscreteModel):
        steps = int(horizon)
    else:
        if dt is None:
            raise ValueError("dt is required for diffusion models")
        steps = _step_count(float(horizon), dt)
    # chunk replicas so recorded paths stay within ~10^7 scalars
    chunk = max(1, min(replicas, 10_000_000 // max(1, (steps + 1) * len(needed))))
    fa_parts = {i: [] for i in range(len(pairs))}
    fb_parts = {i: [] for i in range(len(pairs))}
    done = 0
    while done < replicas:
        size = min(chunk, replicas - done)
        if isinstance(model, DiscreteModel):
            block = replica_paths_discrete(
                graph, marks, model, int(horizon), seed, size, needed, replica_offset=done
            )
        else:
            block = replica_paths_diffusion(
                graph, marks, model, float(horizon), dt, seed, size, needed, replica_offset=done
            )
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
