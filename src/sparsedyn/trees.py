"""Offspring laws and limit-tree numerics: sampling, criticality, duality.

Degree distributions are finitely supported; laws with infinite support
(Poisson) are truncated at negligible tail mass and renormalized, which keeps
every downstream sum finite and exact to far below the test tolerances.
``DegreeDist`` is the one checked categorical law; ``_draw_counts`` is its draw.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng
from .graphs import Graph, RootedGraph, _check_weights, _check_whole, _from_csr, _rooted

DEFAULT_VERTEX_BUDGET = 200_000


@dataclass(frozen=True)
class DegreeDist:
    """Probability law on {0, 1, ..., k_max} stored densely.

    The law, finite entries >= 0 summing to 1 within max(tail_tolerance, 1e-9),
    is validated once.  Its CDF and UGW child law are computed on first use and
    kept, so a sampler that draws one tree at a time does not rebuild them.
    """

    probabilities: np.ndarray
    tail_tolerance: float = 1e-12

    def __post_init__(self):
        p = _check_weights(self.probabilities, "probabilities")
        object.__setattr__(self, "probabilities", p)
        if abs(float(p.sum()) - 1.0) > max(self.tail_tolerance, 1e-9):
            raise ValueError("probabilities must sum to 1 within tail_tolerance")

    @property
    def k_max(self) -> int:
        return len(self.probabilities) - 1

    def mean(self) -> float:
        k = np.arange(len(self.probabilities))
        return float(np.dot(k, self.probabilities))

    def second_factorial_moment(self) -> float:
        k = np.arange(len(self.probabilities))
        return float(np.dot(k * (k - 1), self.probabilities))

    def pgf(self, s: float) -> float:
        return float(np.polyval(self.probabilities[::-1], s))

    def pgf_derivative(self, s: float) -> float:
        k = np.arange(1, len(self.probabilities))
        return float(np.dot(k * self.probabilities[1:], s ** (k - 1.0)))

    @cached_property
    def cdf(self) -> np.ndarray:
        """Running sums clamped at 1 and exactly 1 from the last positive entry on."""
        cdf = np.minimum(np.cumsum(self.probabilities), 1.0)
        cdf[np.flatnonzero(self.probabilities)[-1]:] = 1.0
        return cdf

    @cached_property
    def ugw_child(self) -> DegreeDist:
        """Offspring law below the root of the UGW tree whose root law is this
        one: the size-biased law, or no children when the mean is 0."""
        return size_biased(self) if self.mean() > 0 else delta_dist(0)


def degree_dist(spec) -> DegreeDist:
    """Build a DegreeDist from a dense sequence or a {k: prob} mapping."""
    if isinstance(spec, dict):
        if not spec:
            raise ValueError("degree spec is empty")
        for k in spec:
            _check_whole(k, f"degree {k!r}")
        k_max = max(spec)
        dense = np.zeros(k_max + 1)
        for k, p in spec.items():
            dense[k] = p
        return DegreeDist(dense)
    return DegreeDist(spec)


POISSON_THETA_MAX = 1e6


def poisson_dist(theta: float, tail_tolerance: float = 1e-12) -> DegreeDist:
    """Poisson(theta) truncated at tail mass < tail_tolerance and renormalized.

    Terms follow the recurrence p_k = p_{k-1} theta / k from exp(-theta).
    Where exp(-theta) leaves the normal float range (theta above about 708)
    that start has lost precision, so each term is computed in log space.
    The dense law has about theta entries, hence the cap ``POISSON_THETA_MAX``.
    """
    if not math.isfinite(theta) or theta < 0:
        raise ValueError(f"theta must be finite and >= 0, got {theta!r}")
    if theta > POISSON_THETA_MAX:
        raise ValueError(f"theta={theta} above the supported maximum {POISSON_THETA_MAX:g}")
    if theta == 0:
        return DegreeDist(np.array([1.0]), tail_tolerance)
    first = math.exp(-theta)
    log_space = first < sys.float_info.min
    log_theta = math.log(theta)
    terms = [first]
    total = first
    k = 0
    while 1.0 - total >= tail_tolerance or k < theta:
        k += 1
        if log_space:
            term = math.exp(k * log_theta - theta - math.lgamma(k + 1))
        else:
            term = terms[-1] * theta / k
        if k > theta and total + term == total:
            break  # the tail is below float resolution: a smaller tolerance cannot be met
        terms.append(term)
        total += term
    p = np.array(terms)
    return DegreeDist(p / p.sum(), tail_tolerance)


def delta_dist(k: int) -> DegreeDist:
    k = _check_whole(k, "k")
    p = np.zeros(k + 1)
    p[k] = 1.0
    return DegreeDist(p)


def size_biased(rho: DegreeDist) -> DegreeDist:
    """Law of the offspring count seen along an edge: proportional to (k+1) rho(k+1)."""
    m = rho.mean()
    if m <= 0:
        raise ValueError("size biasing requires a positive mean")
    k = np.arange(1, len(rho.probabilities))
    p = k * rho.probabilities[1:] / m
    return DegreeDist(p / p.sum(), rho.tail_tolerance)


def theta(rho: DegreeDist) -> float:
    """Mean of the size-biased law: sum k(k-1) rho_k / sum k rho_k."""
    m = rho.mean()
    if m <= 0:
        raise ValueError("theta requires a positive mean")
    return rho.second_factorial_moment() / m


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Forest:
    """Disjoint union of sampled trees: the graph, each tree's root, and
    whether each tree stopped growing at its vertex budget."""

    graph: Graph
    roots: np.ndarray
    truncated: np.ndarray  # bool per tree: hit the vertex budget


def _tree_sums(tree: np.ndarray, counts: np.ndarray, trees: int) -> np.ndarray:
    """Sum of ``counts`` per tree id (exact: float64 holds every count sum below 2**53)."""
    return np.bincount(tree, weights=counts, minlength=trees).astype(np.int64)


def _draw_counts(dist: DegreeDist, gen: np.random.Generator, size: int) -> np.ndarray:
    return dist.cdf.searchsorted(gen.random(size), side="right")


def sample_forest(
    root_dist: DegreeDist,
    child_dist: DegreeDist,
    depth: int,
    count: int,
    seed: int,
    *,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
) -> Forest:
    """Sample ``count`` independent trees, truncated at ``depth`` generations.

    Roots draw offspring from ``root_dist``, all later generations from
    ``child_dist``.  A tree whose vertex count would exceed the budget stops
    growing and is flagged truncated (not an error: supercritical trees are
    infinite with positive probability).

    Every other tree holds at least its root, so no tree can exceed the budget
    while the forest's vertex count minus ``count - 1`` stays within it.  Until
    a generation breaks that scalar bound, per-tree vertex counts are not
    kept; from then on each generation sums its offspring per tree and drops
    the offspring of trees that would exceed the budget.
    """
    depth, count = _check_whole(depth, "depth"), _check_whole(count, "count", 1)
    vertex_budget = _check_whole(vertex_budget, "vertex_budget", 1)
    gen = rng.generator(seed, 0x5547)
    roots = np.arange(count, dtype=np.int64)
    truncated = np.zeros(count, dtype=bool)
    parents = [roots]  # each vertex's parent, generation by generation; a root is its own
    sizes = None  # vertices per tree, kept once the scalar bound fails
    active = roots
    next_id = count
    for gen_idx in range(depth):
        if not len(active):
            break
        counts = _draw_counts(root_dist if gen_idx == 0 else child_dist, gen, len(active))
        kids = active.repeat(counts)
        if sizes is None and next_id + len(kids) - (count - 1) > vertex_budget:
            tree = np.concatenate(parents)  # each vertex's tree, once parents are resolved
            for lo, hi in itertools.pairwise(np.cumsum([len(p) for p in parents]).tolist()):
                tree[lo:hi] = tree[tree[lo:hi]]
            sizes = np.bincount(tree, minlength=count)
            active_tree = tree[next_id - len(active):]
        if sizes is not None:
            proposed = sizes + _tree_sums(active_tree, counts, count)
            over = proposed > vertex_budget
            if over.any():
                truncated |= over
                counts = np.where(over[active_tree], 0, counts)
                kids = active.repeat(counts)
                sizes = sizes + _tree_sums(active_tree, counts, count)
            else:
                sizes = proposed
            active_tree = active_tree.repeat(counts)
        parents.append(kids)
        active = np.arange(next_id, next_id + len(kids), dtype=np.int64)
        next_id += len(kids)
    return Forest(_forest_graph(count, np.concatenate(parents)[count:]), roots, truncated)


def _forest_graph(roots: int, parent: np.ndarray) -> Graph:
    """CSR of the forest in which vertex ``roots + i`` hangs from ``parent[i]``,
    numbered generation by generation, so that parents never decrease.

    Each row holds the vertex's parent, then its children, whose ids are
    consecutive and larger.  Taking the rows in order, the child entries are
    therefore all non-roots in id order, and no sort is needed: vertex
    ``roots + i`` is child entry ``i``, and the rows up to its parent's add
    one parent entry each before it.
    """
    n = roots + len(parent)
    deg = np.bincount(parent, minlength=n)
    deg[roots:] += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    deg.cumsum(out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    indices[indptr[roots:-1]] = parent
    down = np.maximum(parent, roots - 1)
    down += np.arange(1 - roots, n - 2 * roots + 1)
    indices[down] = np.arange(roots, n)
    return _from_csr(indptr, indices)


def _single_tree(forest: Forest) -> RootedGraph:
    return _rooted(forest.graph, 0, truncated=bool(forest.truncated[0]))


def sample_ugw(
    rho: DegreeDist, depth: int, seed: int, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> RootedGraph:
    """Limit tree of configuration models: root offspring ~ rho, later ~ size-biased."""
    return _single_tree(sample_forest(rho, rho.ugw_child, depth, 1, seed, vertex_budget=vertex_budget))


def sample_gw(offspring: DegreeDist, depth: int, seed: int) -> RootedGraph:
    """Branching tree with the same offspring law in every generation."""
    return _single_tree(sample_forest(offspring, offspring, depth, 1, seed))


# ---------------------------------------------------------------------------
# Criticality and duality
# ---------------------------------------------------------------------------

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100_000


def extinction_root(rho: DegreeDist) -> float:
    """Smallest fixed point of the size-biased pgf h on [0, 1].

    h(q) - q = (1 - q)(1 - phi(q)) with phi(q) = sum_j P(hat > j) q^j, an
    increasing convex polynomial with phi(1) = theta.  So the root is 1
    unless phi(1) > 1, and then it is the root of phi = 1 in [0, 1), which
    Newton's method from 1 approaches monotonically from above.  Unlike
    h(q) - q, phi - 1 has a simple root even when theta is 1 up to rounding.
    Near 0 that root is accurate only in absolute terms, so two steps of the
    contraction q <- h(q) follow.  With no degree-1 mass h(0) = 0, so the root
    is exactly 0.
    """
    hat = size_biased(rho)
    if hat.probabilities[0] == 0.0:
        return 0.0
    phi = np.cumsum(hat.probabilities[::-1])[:-1]  # P(hat > j), highest power j first
    slope = np.polyder(phi)
    q, step = 1.0, 1.0
    for _ in range(_NEWTON_MAX_ITER):
        excess = float(np.polyval(phi, q)) - 1.0
        if excess <= 0.0 or step < _NEWTON_TOL:
            return q if q == 1.0 else hat.pgf(hat.pgf(q))
        step = excess / float(np.polyval(slope, q))
        q = max(q - step, 0.0)
    raise RuntimeError(f"Newton iteration did not converge in {_NEWTON_MAX_ITER} steps")


def survival_prob(rho: DegreeDist) -> float:
    """Probability that the limit tree with root law rho is infinite."""
    if rho.mean() <= 0:
        return 0.0
    hat = size_biased(rho)
    if len(hat.probabilities) >= 2 and hat.probabilities[1] >= 1.0 - hat.tail_tolerance:
        # degenerate line tree: every non-root vertex has exactly one child,
        # so the tree is infinite exactly when the root has a child at all
        return 1.0 - float(rho.probabilities[0])
    if theta(rho) <= 1.0:
        return 0.0
    q = extinction_root(rho)
    return 1.0 - rho.pgf(q) if q < 1.0 else 0.0


@dataclass(frozen=True)
class DualityReport:
    """Sub/supercritical duality summary for an offspring law.

    ``beta`` is the extinction root.  ``alpha``, the smallest positive root of
    H(x) = m - 2x - sum_k k rho_k (1 - 2x/m)^{k/2}, is derived from it as
    m (1 - beta^2) / 2.
    """

    m: float
    theta: float
    survival: float
    alpha: float
    beta: float
    dual: DegreeDist
    dual_theta: float


def dual_distribution(rho: DegreeDist) -> DualityReport:
    """Dual law: the supercritical tree conditioned on staying finite.

    With beta the extinction root, survival = 1 - pgf(beta) and
    dual_k = rho_k beta^k / pgf(beta).  Substituting beta^2 = 1 - 2x/m gives
    H(x) = m beta (beta - h(beta)), h the size-biased pgf, so alpha is derived
    from beta too: one fixed point gives the whole report.  With no degree-1
    mass beta = 0 and the dual law is delta_0.  The dual summing to one and
    its criticality parameter staying <= 1 are consequences of the
    construction and are asserted as diagnostics.
    """
    th = theta(rho)
    if th <= 1.0:
        raise ValueError("dual_distribution requires theta > 1")
    m = rho.mean()
    beta = extinction_root(rho)
    finite = rho.pgf(beta)
    s = 1.0 - finite if beta < 1.0 else 0.0
    if s >= 1.0 - 1e-15:
        raise ValueError("dual undefined when survival probability is 1")
    k = np.arange(len(rho.probabilities))
    # dividing by 1 - s would lose digits when pgf(beta) is tiny
    dual_p = rho.probabilities * beta**k / finite
    total = float(dual_p.sum())
    if abs(total - 1.0) > 1e-8:
        raise ArithmeticError(f"dual law normalization failed: sum = {total!r}")
    dual = DegreeDist(dual_p, tail_tolerance=1e-8)
    dual_th = theta(dual) if dual.mean() > 0 else 0.0
    if dual_th > 1.0 + 1e-8:
        raise ArithmeticError(f"dual law is not subcritical: theta = {dual_th!r}")
    return DualityReport(m, th, s, m * (1.0 - beta * beta) / 2.0, beta, dual, dual_th)


def poisson_dual(theta_value: float) -> float:
    """The subcritical twin of a Poisson parameter: t e^{-t} = theta e^{-theta}, t < 1.

    Closed form t = -W0(-theta e^{-theta}) on the principal Lambert W branch.
    """
    if not 1.0 < theta_value < math.inf:
        raise ValueError("poisson_dual requires a finite theta > 1")
    from scipy import special
    return float(-special.lambertw(-theta_value * math.exp(-theta_value)).real)


POPULATION_CAP = 10_000


def population_survives(
    root_dist: DegreeDist,
    child_dist: DegreeDist,
    depth: int,
    count: int,
    seed: int,
) -> np.ndarray:
    """Monte Carlo: does each of ``count`` sampled trees still have vertices at ``depth``?

    Only generation sizes are tracked, so this is cheap even for supercritical
    laws; a population reaching ``POPULATION_CAP`` counts as surviving (the
    conditional extinction probability from that size is negligible).
    """
    depth, count = _check_whole(depth, "depth"), _check_whole(count, "count", 1)
    gen = rng.generator(seed, 0x5356)
    alive = np.zeros(count, dtype=bool)
    for i in range(count):
        z = 1
        for g in range(depth):
            dist = root_dist if g == 0 else child_dist
            if z == 0:
                break
            z = int(_draw_counts(dist, gen, z).sum())
            if z >= POPULATION_CAP:
                break
        alive[i] = z > 0
    return alive
