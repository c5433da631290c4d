"""Finite-graph Gibbs measures with pairwise interaction and a reference law.

Built-in models use a finite mark alphabet, which keeps exact enumeration
available as an oracle for the MCMC sampler.  The i.i.d. case is the
interaction-free special case (psi identically 1).  An exact law is one flat
probability vector, built in at most 12 bytes per state under one cap.
Lambda is checked and drawn as a ``trees.DegreeDist``; psi is stored symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng
from .graphs import Graph, _check_indices, _check_whole, _rows
from .trees import DegreeDist, _draw_counts

EXACT_STATE_CAP = 10**7


@dataclass(frozen=True)
class GibbsSpec:
    """Pairwise specification: alphabet, symmetric interaction table, reference law.

    ``lam`` must be a valid :class:`~sparsedyn.trees.DegreeDist` over the alphabet.
    ``psi``, finite, >= 0 and symmetric to ``np.allclose``, is stored as
    ``(psi + psi.T) / 2``, which is exact for a symmetric input.
    """

    alphabet: tuple
    psi: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=np.float64)
        lam = DegreeDist(self.lam).probabilities
        object.__setattr__(self, "lam", lam)
        a = len(self.alphabet)
        if psi.shape != (a, a):
            raise ValueError("psi must be square over the alphabet")
        if not (np.isfinite(psi).all() and psi.min() >= 0 and np.allclose(psi, psi.T)):
            raise ValueError("psi must be finite, nonnegative and symmetric")
        object.__setattr__(self, "psi", (psi + psi.T) / 2)
        if np.any(psi.max(axis=1) <= 0):
            raise ValueError("psi needs a strictly positive entry in every row")
        if lam.shape != (a,):
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
        a = len(lam)
        return GibbsSpec(tuple(range(a)), np.ones((a, a)), lam)


def _config_array(c, n: int, alphabet_size: int | None = None) -> np.ndarray:
    """A configuration of symbols, each in [0, alphabet_size) when that is given."""
    arr = _check_indices(c, alphabet_size, "symbols")
    if arr.shape != (n,):
        raise ValueError("configuration length must equal vertex count")
    return arr


def _region(g: Graph, region) -> np.ndarray:
    """Region vertices as an array, checked to be distinct and in [0, n)."""
    verts = _check_indices(list(region), g.vertex_count, "region vertex")
    if len(np.unique(verts)) != len(verts):
        raise ValueError("region vertices must be distinct")
    return verts


def log_unnormalized_weight(g: Graph, spec: GibbsSpec, c) -> float:
    """log of prod_edges psi * prod_vertices lambda (-inf allowed)."""
    arr = _config_array(c, g.vertex_count, spec.size)
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
    """Full finite-graph distribution: one probability per configuration, the
    configurations listed lexicographically with vertex 0 most significant."""

    probabilities: np.ndarray  # (alphabet_size ** vertex_count,)
    log_z: float
    alphabet_size: int
    vertex_count: int

    @cached_property
    def configurations(self) -> np.ndarray:
        """(count, n) int16 symbol indices, row i the configuration of ``probabilities[i]``."""
        a, n = self.alphabet_size, self.vertex_count
        out = np.empty((a**n, n), dtype=np.int16)
        for i in range(n):  # column i through a view whose axis 1 is vertex i's symbol
            out.reshape(a**i, a, -1, n)[:, :, :, i] = np.arange(a)[:, None]
        return out

    def probability_of(self, c) -> float:
        arr = _config_array(c, self.vertex_count)
        if np.any((arr < 0) | (arr >= self.alphabet_size)):
            return 0.0
        return float(self.probabilities[self.index_of(arr)])

    def index_of(self, c) -> int:
        """Row of ``c`` in ``configurations``."""
        arr = _config_array(c, self.vertex_count, self.alphabet_size)
        powers = self.alphabet_size ** np.arange(len(arr) - 1, -1, -1)
        return int(np.dot(arr, powers))

    def marginal(self, v: int) -> np.ndarray:
        v = int(_check_indices(v, self.vertex_count, "vertex"))
        return self.probabilities.reshape(self.alphabet_size**v, self.alphabet_size, -1).sum(axis=(0, 2))


def _enumerate(g: Graph, spec: GibbsSpec, region: np.ndarray, boundary: dict[int, int]) -> ExactGibbs:
    """Exact law of the symbols on ``region`` given ``boundary``, the symbols
    of its outside neighbors: psi over edges inside the region and from it to
    the boundary, lambda over region vertices, normalized in log space.

    Each factor is added to the flat log-weight vector through a view with one
    axis per vertex it reads: no configuration array, no view above five axes.
    Edges are added row by row in region order, inner edges first."""
    a, n = spec.size, len(region)
    if a**n > EXACT_STATE_CAP:
        raise ValueError(f"state space of size {a**n} exceeds the cap {EXACT_STATE_CAP}")
    local = np.full(g.vertex_count, -1, dtype=np.int64)
    local[region] = np.arange(n)
    row, nbr = _rows(g, region)
    col = local[nbr]
    inner = (col >= 0) & (region[row] < nbr)
    outer = col < 0
    with np.errstate(divide="ignore"):
        log_lam = np.log(spec.lam)
        log_psi = np.log(spec.psi)
    logs = np.zeros(1)
    for _ in range(n):
        logs = np.add.outer(logs, log_lam).ravel()
    for i, j in zip(row[inner].tolist(), col[inner].tolist()):
        view = logs.reshape(a ** min(i, j), a, a ** (abs(i - j) - 1), a, -1)
        view += log_psi[:, None, :, None]
    for i, u in zip(row[outer].tolist(), nbr[outer].tolist()):
        view = logs.reshape(a**i, a, -1)
        view += log_psi[:, boundary[u], None]
    peak = logs.max()
    if peak == -np.inf:
        raise ValueError("zero mass: no configuration has positive weight")
    logs -= peak
    z = float(np.exp(logs, out=logs).sum())
    logs /= z
    return ExactGibbs(logs, math.log(z) + float(peak), a, n)


def exact_gibbs(g: Graph, spec: GibbsSpec) -> ExactGibbs:
    """Enumerate all |alphabet|^n configurations and normalize."""
    return _enumerate(g, spec, np.arange(g.vertex_count), {})


def boundary_of(g: Graph, region) -> tuple[int, ...]:
    """Vertices outside the region adjacent to it."""
    verts = _region(g, region)
    inside = np.zeros(g.vertex_count, dtype=bool)
    inside[verts] = True
    _, nbr = _rows(g, verts)
    return tuple(np.unique(nbr[~inside[nbr]]).tolist())


def conditional_kernel(g: Graph, spec: GibbsSpec, region, boundary: dict[int, int]) -> ExactGibbs:
    """Conditional law on a region given symbols on its full boundary.

    Weights multiply psi over edges inside the region and from the region to
    its boundary, and lambda over region vertices, then normalize.
    """
    region = _region(g, region)
    need = boundary_of(g, region)
    _check_indices(list(boundary), name="boundary vertex")
    if set(boundary) != set(need):
        raise ValueError(f"boundary must cover exactly {need}")
    _check_indices(list(boundary.values()), spec.size, "boundary symbols")
    return _enumerate(g, spec, region, boundary)


def iid_sample(g: Graph, lam, seed: int) -> np.ndarray:
    """Each vertex drawn independently from ``lam``, a valid :class:`~sparsedyn.trees.DegreeDist`."""
    return _draw_counts(DegreeDist(lam), rng.generator(seed, 0x4949), g.vertex_count)


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
    after burn-in (``record_every=0`` keeps only the final state).  A site
    update with no symbol of positive weight (an i.i.d. start can be infeasible
    under zeros in psi) raises ``ValueError`` naming the vertex and the sweep."""
    sweeps, burn_in = _check_whole(sweeps, "sweeps", 1), _check_whole(burn_in, "burn_in")
    record_every = _check_whole(record_every, "record_every")
    n = g.vertex_count
    gen = rng.generator(seed, 0x474C)
    state = _draw_counts(DegreeDist(spec.lam), gen, n)
    psi, lam = spec.psi, spec.lam
    records = []
    for sweep in range(burn_in + sweeps):
        scan = gen.permutation(n)
        u_draws = gen.random(n)
        for idx in range(n):
            v = int(scan[idx])
            nbrs = g.indices[g.indptr[v] : g.indptr[v + 1]]
            weights = lam * psi[:, state[nbrs]].prod(axis=1) if nbrs.size else lam
            cdf = np.cumsum(weights)
            if not cdf[-1] > 0:
                raise ValueError(f"zero mass at vertex {v} in sweep {sweep}: no symbol has positive weight")
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
    n, a = g.vertex_count, spec.size
    return np.bincount((np.arange(n) * a + trace).ravel(), minlength=n * a).reshape(n, a) / len(trace)
