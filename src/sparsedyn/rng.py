"""Counter-based random streams for reproducible, parallel-safe simulation.

Every noise draw used by the dynamics engines is a pure function of
``(seed, stream, vertex, step, slot)``.  This makes simulations bitwise
deterministic independently of evaluation order or thread count, and it
lets coupling experiments swap the noise of selected vertices for a fresh
stream without touching anything else.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / (1 << 53)
_INV_2_32 = 1.0 / (1 << 32)


def _as_u64(value) -> np.ndarray:
    if isinstance(value, (int, np.integer)):
        return np.asarray(int(value) & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    return np.asarray(value, dtype=np.uint64)


def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 values (modular arithmetic intended)."""
    with np.errstate(over="ignore"):
        h = (h ^ (h >> _U64(30))) * _MIX1
        h = (h ^ (h >> _U64(27))) * _MIX2
        return h ^ (h >> _U64(31))


def _fold(h: np.ndarray, value) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _mix(h + _GOLDEN + _as_u64(value))


def stream_key(seed: int, *parts: int) -> int:
    """Derive a child key from a seed and integer tags (pure, collision-mixed)."""
    with np.errstate(over="ignore"):
        h = _mix(_as_u64(seed) + _GOLDEN)
    for p in parts:
        h = _fold(h, p)
    return int(h)


def _hash_vsk(key: int, stream, vertex, step: int, slot) -> np.ndarray:
    """uint64 hash of (key, stream, vertex, step, slot); all but key and step may be arrays."""
    h = _fold(_as_u64(key), stream)
    h = _fold(h, vertex)
    h = _fold(h, step)
    return _fold(h, slot)


def uniform(key: int, vertex, step: int, *, stream=0, slot=0):
    """Uniform draws in [0, 1) indexed by (key, stream, vertex, step, slot).

    ``vertex``, ``stream`` and ``slot`` broadcast together, so one call
    produces the whole noise array of a time step.
    """
    h = _hash_vsk(key, stream, vertex, step, slot)
    return (h >> _U64(11)).astype(np.float64) * _INV_2_53


def gauss(key: int, vertex, step: int, *, stream=0, slot=0):
    """Standard Gaussian draws indexed like :func:`uniform` (Box-Muller)."""
    h = _hash_vsk(key, stream, vertex, step, slot)
    hi = (h >> _U64(32)).astype(np.float64)
    lo = (h & _U64(0xFFFFFFFF)).astype(np.float64)
    u1 = (hi + 1.0) * _INV_2_32
    u2 = lo * _INV_2_32
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def generator(seed: int, *parts: int) -> np.random.Generator:
    """Seeded numpy Generator for i.i.d. sampling, decoupled per call site."""
    return np.random.default_rng(stream_key(seed, *parts))
