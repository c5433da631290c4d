"""Finite-graph Gibbs measures with pairwise interaction and a reference law.

Built-in models use a finite mark alphabet, which keeps exact enumeration
available as an oracle for the MCMC sampler.  The i.i.d. case is the
interaction-free special case (psi identically 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .graphs import Graph

EXACT_STATE_CAP = 10**7
KERNEL_STATE_CAP = 10**6


@dataclass(frozen=True)
class GibbsSpec:
    """Pairwise specification: alphabet, symmetric interaction table, reference law."""

    alphabet: tuple
    psi: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=np.float64)
        lam = np.asarray(self.lam, dtype=np.float64)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "lam", lam)
        a = len(self.alphabet)
        if psi.shape != (a, a):
            raise ValueError("psi must be square over the alphabet")
        if not np.allclose(psi, psi.T):
            raise ValueError("psi must be symmetric")
        if psi.min() < 0:
            raise ValueError("psi must be nonnegative")
        if np.any(psi.max(axis=1) <= 0):
            raise ValueError("psi needs a strictly positive entry in every row")
        if lam.shape != (a,) or lam.min() < 0 or abs(float(lam.sum()) - 1.0) > 1e-9:
            raise ValueError("lam must be a probability vector over the alphabet")

    @property
    def size(self) -> int:
        return len(self.alphabet)

    @staticmethod
    def ising(beta: float, field_plus: float = 0.5) -> "GibbsSpec":
        """Two-symbol model with psi(a,b) = exp(beta a b) on {-1,+1}.

        ``field_plus`` is the reference-law weight of +1 (0.5 = symmetric).
        """
        psi = np.array(
            [[math.exp(beta), math.exp(-beta)], [math.exp(-beta), math.exp(beta)]]
        )
        return GibbsSpec((-1, +1), psi, np.array([1.0 - field_plus, field_plus]))

    @staticmethod
    def independent(lam) -> "GibbsSpec":
        lam = np.asarray(lam, dtype=np.float64)
        a = len(lam)
        return GibbsSpec(tuple(range(a)), np.ones((a, a)), lam)


def _config_array(c, n: int) -> np.ndarray:
    arr = np.asarray(c, dtype=np.int64)
    if arr.shape != (n,):
        raise ValueError("configuration length must equal vertex count")
    return arr


def log_unnormalized_weight(g: Graph, spec: GibbsSpec, c) -> float:
    """log of prod_edges psi * prod_vertices lambda (-inf allowed)."""
    arr = _config_array(c, g.vertex_count)
    with np.errstate(divide="ignore"):
        log_lam = np.log(spec.lam)
        log_psi = np.log(spec.psi)
    total = float(log_lam[arr].sum())
    edges = g.edges()
    if len(edges):
        total += float(log_psi[arr[edges[:, 0]], arr[edges[:, 1]]].sum())
    return total


def unnormalized_weight(g: Graph, spec: GibbsSpec, c) -> float:
    """Gibbs weight of a configuration, accumulated in log space."""
    return math.exp(log_unnormalized_weight(g, spec, c))


@dataclass(frozen=True)
class ExactGibbs:
    """Full finite-graph distribution: every configuration with its probability."""

    configurations: np.ndarray  # (count, n) symbol indices
    probabilities: np.ndarray
    log_z: float
    alphabet_size: int

    def probability_of(self, c) -> float:
        arr = _config_array(c, self.configurations.shape[1])
        if np.any((arr < 0) | (arr >= self.alphabet_size)):
            return 0.0
        return float(self.probabilities[self.index_of(arr)])

    def index_of(self, c) -> int:
        """Row of ``c`` in ``configurations``, which enumerate lexicographically."""
        arr = _config_array(c, self.configurations.shape[1])
        powers = self.alphabet_size ** np.arange(len(arr) - 1, -1, -1)
        return int(np.dot(arr, powers))

    def marginal(self, v: int) -> np.ndarray:
        out = np.zeros(self.alphabet_size)
        np.add.at(out, self.configurations[:, v].astype(np.int64), self.probabilities)
        return out


def _all_configs(count: int, n: int, a: int) -> np.ndarray:
    """(count, n) array enumerating alphabet^n in lexicographic order."""
    configs = np.empty((count, max(n, 1)), dtype=np.int16)
    base = np.arange(count, dtype=np.int64)
    for i in range(n):
        configs[:, i] = (base // a ** (n - 1 - i)) % a
    return configs[:, :n]


def _enumerate(g: Graph, spec: GibbsSpec, region: tuple, boundary: dict[int, int]) -> ExactGibbs:
    """Exact law of the symbols on ``region`` given ``boundary``, the symbols
    of its outside neighbors: psi over edges inside the region and from it to
    the boundary, lambda over region vertices, normalized in log space."""
    a = spec.size
    local = {v: i for i, v in enumerate(region)}
    with np.errstate(divide="ignore"):
        log_lam = np.log(spec.lam)
        log_psi = np.log(spec.psi)
    inner_edges = []
    outer_edges = []
    for v in region:
        for u in g.adjacency[v]:
            if u in local:
                if v < u:
                    inner_edges.append((local[v], local[u]))
            else:
                outer_edges.append((local[v], boundary[int(u)]))
    configs = _all_configs(a ** len(region), len(region), a)
    logs = log_lam[configs].sum(axis=1)
    for i, j in inner_edges:
        logs = logs + log_psi[configs[:, i], configs[:, j]]
    for i, b in outer_edges:
        logs = logs + log_psi[configs[:, i], b]
    peak = logs.max()
    if peak == -np.inf:
        raise ValueError("zero mass: no configuration has positive weight")
    weights = np.exp(logs - peak)
    z = float(weights.sum())
    return ExactGibbs(configs, weights / z, math.log(z) + float(peak), a)


def exact_gibbs(g: Graph, spec: GibbsSpec) -> ExactGibbs:
    """Enumerate all |alphabet|^n configurations and normalize."""
    count = spec.size**g.vertex_count
    if count > EXACT_STATE_CAP:
        raise ValueError(f"state space of size {count} exceeds the cap {EXACT_STATE_CAP}")
    return _enumerate(g, spec, tuple(range(g.vertex_count)), {})


def boundary_of(g: Graph, region) -> tuple[int, ...]:
    """Vertices outside the region adjacent to it."""
    region_set = set(int(v) for v in region)
    out = set()
    for v in region_set:
        for u in g.adjacency[v]:
            if u not in region_set:
                out.add(int(u))
    return tuple(sorted(out))


def conditional_kernel(g: Graph, spec: GibbsSpec, region, boundary: dict[int, int]) -> ExactGibbs:
    """Conditional law on a region given symbols on its full boundary.

    Weights multiply psi over edges inside the region and from the region to
    its boundary, and lambda over region vertices, then normalize.
    """
    region = tuple(int(v) for v in region)
    need = boundary_of(g, region)
    if set(boundary) != set(need):
        raise ValueError(f"boundary must cover exactly {need}")
    count = spec.size ** len(region)
    if count > KERNEL_STATE_CAP:
        raise ValueError(f"conditional state space {count} exceeds the cap {KERNEL_STATE_CAP}")
    return _enumerate(g, spec, region, boundary)


def iid_sample(g: Graph, lam, seed: int) -> np.ndarray:
    """Each vertex drawn independently from the reference law."""
    lam = np.asarray(lam, dtype=np.float64)
    gen = rng.generator(seed, 0x4949)
    return np.searchsorted(np.cumsum(lam), gen.random(g.vertex_count), side="right").astype(np.int64)


def glauber_sample(
    g: Graph, spec: GibbsSpec, sweeps: int, burn_in: int, seed: int
) -> np.ndarray:
    """Random-scan Glauber chain; returns the configuration after burn_in + sweeps.

    Each sweep resamples every vertex once, in a fresh uniformly random order,
    from its single-site conditional kernel.  Initial state is i.i.d. lambda.
    """
    return glauber_trace(g, spec, sweeps, burn_in, seed, record_every=0)[-1]


def glauber_trace(
    g: Graph,
    spec: GibbsSpec,
    sweeps: int,
    burn_in: int,
    seed: int,
    *,
    record_every: int = 1,
) -> np.ndarray:
    """Run one Glauber chain, recording configurations every ``record_every`` sweeps
    after burn-in (``record_every=0`` keeps only the final state)."""
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    n = g.vertex_count
    gen = rng.generator(seed, 0x474C)
    lam_cdf = np.cumsum(spec.lam)
    state = np.searchsorted(lam_cdf, gen.random(n), side="right").astype(np.int64)
    adj = [np.asarray(a, dtype=np.int64) for a in g.adjacency]
    psi = spec.psi
    lam = spec.lam
    records = []
    total = burn_in + sweeps
    for sweep in range(total):
        scan = gen.permutation(n)
        u_draws = gen.random(n)
        for idx in range(n):
            v = int(scan[idx])
            nbrs = adj[v]
            weights = lam * psi[:, state[nbrs]].prod(axis=1) if nbrs.size else lam
            cdf = np.cumsum(weights)
            state[v] = np.searchsorted(cdf, u_draws[idx] * cdf[-1], side="right")
        if sweep >= burn_in and record_every and (sweep - burn_in) % record_every == 0:
            records.append(state.copy())
    if not records:
        records.append(state.copy())
    return np.array(records, dtype=np.int64)


def glauber_marginals(
    g: Graph, spec: GibbsSpec, sweeps: int, burn_in: int, seed: int
) -> np.ndarray:
    """Per-site symbol frequencies along a Glauber chain (n, alphabet)."""
    trace = glauber_trace(g, spec, sweeps, burn_in, seed)
    n = g.vertex_count
    out = np.zeros((n, spec.size))
    for v in range(n):
        out[v] = np.bincount(trace[:, v], minlength=spec.size)
    return out / len(trace)
