"""Empirical measures of trajectories and the statistics built on them.

Monte Carlo reference laws for limit trees are computed by simulating many
sampled trees at once as one disjoint-union graph: components do not interact,
so the batched run has exactly the law of independent per-tree runs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize

from . import rng
from .dynamics import DecayProfile, DiffusionModel, TrajectorySet, simulate

# not called here: kept bound because the benchmark's tracer patches these names
from .dynamics import simulate_diffusion, simulate_discrete  # noqa: F401
from .graphs import Graph, RootedGraph, _from_csr, component_labels
from .trees import DegreeDist, Forest, delta_dist, sample_forest, size_biased

__all__ = [
    "DecayProfile",
    "EmpiricalMeasure",
    "global_empirical",
    "component_empirical",
    "tv_discrete",
    "wasserstein1_paths",
    "root_law_monte_carlo",
    "diffusion_depth_sensitivity",
    "giant_fraction",
    "component_functional_distribution",
    "shift_average",
    "ergodicity_variance_curve",
    "trajectory_frequencies",
    "frequency_tv",
    "mix_frequencies",
    "ugw_forest_sampler",
    "gw_forest_sampler",
    "fixed_graph_sampler",
    "bernoulli_init",
    "constant_init",
    "uniform_box_init",
]


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted collection of trajectory samples on a shared grid."""

    samples: np.ndarray  # (count, T) or (count, T, d)
    times: np.ndarray
    kind: str  # "discrete" | "vector"

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("empirical measure needs at least one sample")
        if self.samples.shape[1] != len(self.times):
            raise ValueError("samples and times disagree on grid length")

    @property
    def count(self) -> int:
        return len(self.samples)


def global_empirical(ts: TrajectorySet) -> EmpiricalMeasure:
    """One sample per vertex, weight 1/|G|."""
    return EmpiricalMeasure(np.moveaxis(ts.paths, 0, 1), ts.times, ts.kind)


def component_empirical(ts: TrajectorySet, comp: RootedGraph) -> EmpiricalMeasure:
    """Restriction of the global empirical measure to an extracted component."""
    if comp.origin is None:
        raise ValueError("component must carry its back-map (origin)")
    idx = np.asarray(comp.origin, dtype=np.int64)
    n = ts.graph.vertex_count
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError("component vertices do not index this trajectory set")
    if not np.array_equal(comp.graph.degrees, ts.graph.degrees[idx]):
        raise ValueError("component does not match the simulated graph")
    return EmpiricalMeasure(np.moveaxis(ts.paths[:, idx], 0, 1), ts.times, ts.kind)


def tv_discrete(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact total variation between two finite-alphabet trajectory measures."""
    if a.kind != "discrete" or b.kind != "discrete":
        raise ValueError("tv_discrete needs finite-alphabet trajectories")
    if len(a.times) != len(b.times) or not np.array_equal(a.times, b.times):
        raise ValueError("time grids differ")
    return frequency_tv(trajectory_frequencies(a), trajectory_frequencies(b))


def trajectory_frequencies(m: EmpiricalMeasure, weights=None) -> dict[bytes, float]:
    """Normalized frequencies of hashed discrete paths, optionally weighted by
    one finite nonnegative weight per sample (with a positive sum)."""
    if m.kind != "discrete":
        raise ValueError("trajectory_frequencies needs finite-alphabet trajectories")
    arr = np.ascontiguousarray(m.samples.astype(np.int64))
    if weights is None:
        return {key: c / len(arr) for key, c in Counter(row.tobytes() for row in arr).items()}
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (m.count,):
        raise ValueError(f"weights must have shape ({m.count},), got {weights.shape}")
    if not np.all(np.isfinite(weights)) or weights.min() < 0:
        raise ValueError("weights must be finite and >= 0")
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("weights must have a positive sum")
    out: dict[bytes, float] = {}
    for row, wv in zip(arr, weights):
        key = row.tobytes()
        out[key] = out.get(key, 0.0) + float(wv) / total
    return out


def frequency_tv(fa: dict, fb: dict) -> float:
    """Total variation between two frequency dicts over the union of their keys.

    ``math.fsum`` rounds the sum exactly once, so the value does not depend on
    the (hash-seeded) key order and is exactly symmetric.
    """
    return 0.5 * math.fsum(abs(fa.get(c, 0.0) - fb.get(c, 0.0)) for c in fa.keys() | fb.keys())


def mix_frequencies(parts) -> dict[bytes, float]:
    """Convex combination of frequency dicts given (weight, freqs) pairs."""
    total = sum(w for w, _ in parts)
    out: dict[bytes, float] = {}
    for w, freqs in parts:
        for key, p in freqs.items():
            out[key] = out.get(key, 0.0) + (w / total) * p
    return out


W1_MAX_SAMPLES = 256


def wasserstein1_paths(a: EmpiricalMeasure, b: EmpiricalMeasure, t: float, seed: int = 0) -> float:
    """W1 between subsampled path measures under the truncated sup metric.

    Both measures are subsampled (without replacement) to the same count, at
    most ``W1_MAX_SAMPLES``, the pairwise cost is the sup distance over grid
    times <= t, and the exact optimal assignment is solved with the Hungarian
    algorithm.  Measures of equal count share one index set, which keeps
    row-coupled measures coupled (so W1(a, a) is 0) and is still a uniform
    subsample of each.
    """
    if len(a.times) != len(b.times) or not np.array_equal(a.times, b.times):
        raise ValueError("time grids differ")
    keep = np.asarray(a.times, dtype=np.float64) <= t + 1e-12
    if not np.any(keep):
        raise ValueError("no grid times at or below t")
    m = min(W1_MAX_SAMPLES, a.count, b.count)
    if m < 1:
        raise ValueError("nothing left after subsampling")
    gen = rng.generator(seed, 0x5731)
    ia = gen.choice(a.count, size=m, replace=False) if a.count > m else np.arange(a.count)
    if b.count == a.count:
        ib = ia
    else:
        ib = gen.choice(b.count, size=m, replace=False) if b.count > m else np.arange(b.count)
    xs = a.samples[ia][:, keep].astype(np.float64)
    ys = b.samples[ib][:, keep].astype(np.float64)
    cost = np.empty((m, m))
    for i in range(m):
        diff = ys - xs[i]
        if diff.ndim == 2:
            cost[i] = np.max(np.abs(diff), axis=1)
        else:
            cost[i] = np.max(np.linalg.norm(diff, axis=-1), axis=1)
    rows, cols = optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


# ---------------------------------------------------------------------------
# Limit-law Monte Carlo
# ---------------------------------------------------------------------------

def ugw_forest_sampler(rho: DegreeDist, depth: int) -> Callable[[int, int], Forest]:
    """Batched sampler of limit trees: root law rho, later generations size-biased."""
    child = size_biased(rho) if rho.mean() > 0 else delta_dist(0)
    return lambda count, seed: sample_forest(rho, child, depth, count, seed)


def gw_forest_sampler(offspring: DegreeDist, depth: int) -> Callable[[int, int], Forest]:
    return lambda count, seed: sample_forest(offspring, offspring, depth, count, seed)


def fixed_graph_sampler(rg: RootedGraph) -> Callable[[int, int], Forest]:
    """Forest sampler that replicates one fixed rooted graph."""
    g = rg.graph
    n, nnz = g.vertex_count, len(g.indices)

    def sample(count: int, seed: int) -> Forest:
        # copy i is the template's CSR shifted by i * n vertices and i * nnz entries
        copy = np.arange(count, dtype=np.int64)
        indptr = np.append((g.indptr[:-1] + nnz * copy[:, None]).ravel(), nnz * count)
        graph = _from_csr(indptr, (g.indices + n * copy[:, None]).ravel())
        return Forest(graph, rg.root + n * copy, np.zeros(count, dtype=bool))

    return sample


def bernoulli_init(p: float) -> Callable[[Graph, int], np.ndarray]:
    def init(g: Graph, seed: int) -> np.ndarray:
        gen = rng.generator(seed, 0x424E)
        return (gen.random(g.vertex_count) < p).astype(np.int64)

    return init


def constant_init(value) -> Callable[[Graph, int], np.ndarray]:
    def init(g: Graph, seed: int) -> np.ndarray:
        return np.full(g.vertex_count, value)

    return init


def uniform_box_init(low: float, high: float) -> Callable[[Graph, int], np.ndarray]:
    """I.i.d. uniform marks in [low, high] (bounded, as the diffusion theory wants)."""

    def init(g: Graph, seed: int) -> np.ndarray:
        gen = rng.generator(seed, 0x5542)
        return gen.uniform(low, high, g.vertex_count)

    return init


def root_law_monte_carlo(
    tree_sampler: Callable[[int, int], Forest],
    init_sampler: Callable[[Graph, int], np.ndarray],
    model,
    horizon,
    replicas: int,
    seed: int,
    *,
    dt: float | None = None,
    batch_size: int = 20_000,
) -> EmpiricalMeasure:
    """Empirical measure of root trajectories over independent (tree, marks, noise).

    For discrete models with tree depth >= horizon the result is the exact
    root law (dynamics up to step k never see past the depth-k ball).  Batches
    of at most ``batch_size`` trees are simulated as one disjoint-union graph.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    samples = []
    times = None
    kind = None
    done = 0
    batch_idx = 0
    while done < replicas:
        size = min(batch_size, replicas - done)
        forest = tree_sampler(size, rng.stream_key(seed, 0x544C, batch_idx))
        marks = init_sampler(forest.graph, rng.stream_key(seed, 0x494C, batch_idx))
        ts = simulate(forest.graph, marks, model, horizon, rng.stream_key(seed, 0x4453, batch_idx),
                      dt=dt)
        samples.append(np.moveaxis(ts.paths[:, forest.roots], 0, 1))
        times = ts.times
        kind = ts.kind
        done += size
        batch_idx += 1
    return EmpiricalMeasure(np.concatenate(samples, axis=0), times, kind)


DEPTH_BUMP = 2


def diffusion_depth_sensitivity(
    rho: DegreeDist,
    init_sampler,
    model: DiffusionModel,
    horizon: float,
    dt: float,
    depth: int,
    replicas: int,
    seed: int,
) -> tuple[EmpiricalMeasure, float]:
    """Root law at truncation ``depth`` plus the W1 shift from re-running at
    ``depth + DEPTH_BUMP`` (diffusions have no exact-locality radius)."""
    base = root_law_monte_carlo(
        ugw_forest_sampler(rho, depth), init_sampler, model, horizon, replicas, seed, dt=dt
    )
    deeper = root_law_monte_carlo(
        ugw_forest_sampler(rho, depth + DEPTH_BUMP), init_sampler, model, horizon, replicas, seed, dt=dt
    )
    shift = wasserstein1_paths(base, deeper, t=horizon, seed=seed)
    return base, shift


# ---------------------------------------------------------------------------
# Giant component statistics
# ---------------------------------------------------------------------------

def giant_fraction(
    graph_sampler: Callable[[int, int], Graph], n: int, replicas: int, seed: int
) -> tuple[float, float]:
    """Mean and standard error of |C_max| / n over independent graph draws."""
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    fracs = np.empty(replicas)
    for i in range(replicas):
        g = graph_sampler(n, rng.stream_key(seed, 0x4743, i))
        labels = component_labels(g)
        _, counts = np.unique(labels, return_counts=True)
        fracs[i] = counts.max() / n
    stderr = float(fracs.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return float(fracs.mean()), stderr


def component_functional_distribution(
    graph_sampler: Callable[[int], Graph],
    init_sampler: Callable[[Graph, int], np.ndarray],
    model,
    f: Callable[[np.ndarray], np.ndarray],
    horizon,
    root_draws: int,
    seed: int,
    *,
    dt: float | None = None,
) -> np.ndarray:
    """Sample of <empirical measure of the root's component, f> over fresh draws.

    Per draw: sample a graph and marks, simulate, pick a uniform root, and
    average ``f`` over the trajectories of the root's component.  ``f`` maps a
    (T+1, m) path block to per-vertex values (m,).
    """
    if root_draws < 100:
        raise ValueError("root_draws must be >= 100")
    out = np.empty(root_draws)
    for i in range(root_draws):
        g = graph_sampler(rng.stream_key(seed, 0x4346, i))
        marks = init_sampler(g, rng.stream_key(seed, 0x4349, i))
        ts = simulate(g, marks, model, horizon, rng.stream_key(seed, 0x4344, i), dt=dt)
        labels = component_labels(g)
        root = int(rng.generator(seed, 0x4352, i).integers(0, g.vertex_count))
        members = np.nonzero(labels == labels[root])[0]
        out[i] = float(np.mean(f(ts.paths[:, members])))
    return out


# ---------------------------------------------------------------------------
# Lattice shift averages
# ---------------------------------------------------------------------------

def _lattice_geometry(ts: TrajectorySet, dim: int) -> int:
    count = ts.graph.vertex_count
    side = round(count ** (1.0 / dim))
    for cand in (side - 1, side, side + 1):
        if cand > 0 and cand**dim == count:
            side = cand
            break
    else:
        raise ValueError("trajectory set is not a full lattice box")
    if side % 2 == 0:
        raise ValueError("lattice side must be odd (box {-n..n}^dim)")
    return (side - 1) // 2


def shift_average(
    ts: TrajectorySet,
    f: Callable[[np.ndarray], float],
    window_radius: int,
    box_sizes,
    *,
    dim: int = 2,
) -> list[float]:
    """Averages of f over all lattice shifts in each requested box.

    ``f`` reads the (T+1, (2w+1)^dim) path block of the window centered at the
    shift.  Every box plus the window must fit inside the simulated lattice.
    """
    if window_radius < 0:
        raise ValueError("window_radius must be >= 0")
    n = _lattice_geometry(ts, dim)
    side = 2 * n + 1
    w = window_radius
    offsets = np.stack(
        np.meshgrid(*([np.arange(-w, w + 1)] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    out = []
    for m in box_sizes:
        if m + w > n:
            raise ValueError(f"box {m} plus window {w} exceeds the lattice half-width {n}")
        centers = np.stack(
            np.meshgrid(*([np.arange(-m, m + 1)] * dim), indexing="ij"), axis=-1
        ).reshape(-1, dim)
        total = 0.0
        for c in centers:
            coords = c + offsets + n
            idx = np.ravel_multi_index(coords.T, (side,) * dim)
            total += float(f(ts.paths[:, idx]))
        out.append(total / len(centers))
    return out


def ergodicity_variance_curve(shift_average_rows, box_sizes=None) -> list[tuple[float, float]]:
    """Cross-replica variance of shift averages per box size (>= 20 replicas)."""
    arr = np.asarray(shift_average_rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 20:
        raise ValueError("need a (replicas >= 20, box_sizes) array of shift averages")
    labels = list(box_sizes) if box_sizes is not None else list(range(arr.shape[1]))
    if len(labels) != arr.shape[1]:
        raise ValueError("box size labels do not match the number of columns")
    return [(labels[j], float(arr[:, j].var(ddof=1))) for j in range(arr.shape[1])]
