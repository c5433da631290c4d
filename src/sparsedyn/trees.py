"""Offspring laws and limit-tree numerics: sampling, criticality, duality.

Degree distributions are finitely supported; laws with infinite support
(Poisson) are truncated at negligible tail mass and renormalized, which keeps
every downstream sum finite and exact to far below the test tolerances.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from . import rng
from .graphs import Graph, RootedGraph, _from_edge_arrays

DEFAULT_VERTEX_BUDGET = 200_000


@dataclass(frozen=True)
class DegreeDist:
    """Probability law on {0, 1, ..., k_max} stored densely."""

    probabilities: np.ndarray
    tail_tolerance: float = 1e-12

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        object.__setattr__(self, "probabilities", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probabilities must be a nonempty vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if p.min() < -self.tail_tolerance:
            raise ValueError("negative probability")
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

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probabilities)


def degree_dist(spec) -> DegreeDist:
    """Build a DegreeDist from a dense sequence or a {k: prob} mapping."""
    if isinstance(spec, dict):
        k_max = max(spec)
        dense = np.zeros(k_max + 1)
        for k, p in spec.items():
            dense[k] = p
        return DegreeDist(dense)
    return DegreeDist(np.asarray(spec, dtype=np.float64))


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


def _draw_counts(dist: DegreeDist, gen: np.random.Generator, size: int) -> np.ndarray:
    u = gen.random(size)
    return np.searchsorted(dist.cdf(), u, side="right").astype(np.int64)


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
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if count < 1:
        raise ValueError("count must be >= 1")
    gen = rng.generator(seed, 0x5547)
    roots = np.arange(count, dtype=np.int64)
    sizes = np.ones(count, dtype=np.int64)
    truncated = np.zeros(count, dtype=bool)
    parents_all = []
    children_all = []
    active = roots
    active_tree = roots.copy()
    next_id = count
    for gen_idx in range(depth):
        if active.size == 0:
            break
        dist = root_dist if gen_idx == 0 else child_dist
        counts = _draw_counts(dist, gen, active.size)
        # enforce the per-tree budget by dropping offspring of saturated trees
        proposed = sizes.copy()
        np.add.at(proposed, active_tree, counts)
        over = proposed > vertex_budget
        if np.any(over):
            truncated |= over
            counts = np.where(over[active_tree], 0, counts)
            sizes = sizes.copy()
            np.add.at(sizes, active_tree, counts)
        else:
            sizes = proposed
        total = int(counts.sum())
        if total == 0:
            active = np.zeros(0, dtype=np.int64)
            continue
        children = np.arange(next_id, next_id + total, dtype=np.int64)
        parents = np.repeat(active, counts)
        parents_all.append(parents)
        children_all.append(children)
        active_tree = np.repeat(active_tree, counts)
        active = children
        next_id += total
    if parents_all:
        edges = np.stack([np.concatenate(parents_all), np.concatenate(children_all)], axis=1)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    return Forest(_from_edge_arrays(next_id, edges), roots, truncated)


def _single_tree(forest: Forest) -> RootedGraph:
    return RootedGraph(forest.graph, 0, truncated=bool(forest.truncated[0]))


def sample_ugw(
    rho: DegreeDist, depth: int, seed: int, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> RootedGraph:
    """Limit tree of configuration models: root offspring ~ rho, later ~ size-biased."""
    child = size_biased(rho) if rho.mean() > 0 else delta_dist(0)
    return _single_tree(sample_forest(rho, child, depth, 1, seed, vertex_budget=vertex_budget))


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
    """
    hat = size_biased(rho).probabilities
    phi = np.cumsum(hat[::-1])[:-1]  # P(hat > j), highest power j first
    slope = np.polyder(phi)
    q = 1.0
    for _ in range(_NEWTON_MAX_ITER):
        excess = float(np.polyval(phi, q)) - 1.0
        if excess <= 0.0:
            return q
        step = excess / float(np.polyval(slope, q))
        q = max(q - step, 0.0)
        if step < _NEWTON_TOL:
            return q
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


def duality_function(rho: DegreeDist, x) -> np.ndarray:
    """H(x) = m - 2x - sum_k k rho_k (1 - 2x/m)^{k/2}; H(0) = H(m/2) = 0."""
    m = rho.mean()
    x = np.asarray(x, dtype=np.float64)
    k = np.arange(len(rho.probabilities))
    base = np.clip(1.0 - 2.0 * x[..., None] / m, 0.0, None)
    series = np.sum(k * rho.probabilities * base ** (k / 2.0), axis=-1)
    return m - 2.0 * x - series


_ALPHA_GRID_POINTS = 10_000
_ALPHA_TOL = 1e-12


def dual_alpha(rho: DegreeDist) -> float:
    """Smallest positive root of the duality function on (0, m/2].

    The endpoints are always roots, so the search scans a uniform interior
    grid for a sign change and solves on that cell with Brent's method; with
    no interior sign change the root is m/2 itself.
    """
    if theta(rho) <= 1.0:
        raise ValueError("dual_alpha requires a supercritical law (theta > 1)")
    m = rho.mean()
    xs = np.linspace(0.0, m / 2.0, _ALPHA_GRID_POINTS + 1)[1:]
    hs = duality_function(rho, xs)
    sign_change = np.nonzero((hs[:-1] > 0) & (hs[1:] <= 0))[0]
    if sign_change.size == 0:
        return m / 2.0
    lo, hi = float(xs[sign_change[0]]), float(xs[sign_change[0] + 1])
    return optimize.brentq(lambda x: float(duality_function(rho, x)), lo, hi, xtol=_ALPHA_TOL)


@dataclass(frozen=True)
class DualityReport:
    """Sub/supercritical duality summary for an offspring law."""

    m: float
    theta: float
    survival: float
    alpha: float
    beta: float
    dual: DegreeDist
    dual_theta: float


def dual_distribution(rho: DegreeDist) -> DualityReport:
    """Dual law: the supercritical tree conditioned on staying finite.

    dual_k = rho_k / (1 - survival) * beta^k with beta = sqrt(1 - 2 alpha / m).
    The dual summing to one and its criticality parameter staying <= 1 are
    consequences of the construction and are asserted as diagnostics.
    """
    th = theta(rho)
    if th <= 1.0:
        raise ValueError("dual_distribution requires theta > 1")
    s = survival_prob(rho)
    if s >= 1.0 - 1e-15:
        raise ValueError("dual undefined when survival probability is 1")
    m = rho.mean()
    alpha = dual_alpha(rho)
    beta = math.sqrt(max(0.0, 1.0 - 2.0 * alpha / m))
    k = np.arange(len(rho.probabilities))
    dual_p = rho.probabilities * beta**k / (1.0 - s)
    total = float(dual_p.sum())
    if abs(total - 1.0) > 1e-8:
        raise ArithmeticError(f"dual law normalization failed: sum = {total!r}")
    dual = DegreeDist(dual_p, tail_tolerance=1e-8)
    dual_th = theta(dual)
    if dual_th > 1.0 + 1e-8:
        raise ArithmeticError(f"dual law is not subcritical: theta = {dual_th!r}")
    return DualityReport(m, th, s, alpha, beta, dual, dual_th)


def poisson_dual(theta_value: float) -> float:
    """The subcritical twin of a Poisson parameter: t e^{-t} = theta e^{-theta}, t < 1.

    Closed form t = -W0(-theta e^{-theta}) on the principal Lambert W branch.
    """
    if theta_value <= 1.0:
        raise ValueError("poisson_dual requires theta > 1")
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
