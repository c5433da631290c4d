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
_SPLITMIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)  # increment, multipliers
_GOLDEN, _MIX1, _MIX2 = (_U64(c) for c in _SPLITMIX)
_M64 = (1 << 64) - 1
_INV_2_53 = 1.0 / (1 << 53)
_INV_2_32 = 1.0 / (1 << 32)


def _as_u64(value) -> np.ndarray:
    if isinstance(value, (int, np.integer)):
        return np.asarray(int(value) & _M64, dtype=np.uint64)
    return np.asarray(value, dtype=np.uint64)


def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 values, in place on the array ``h``.

    The arithmetic is modular: integer ufuncs on arrays, 0-d ones included,
    wrap without an overflow warning.  Only numpy scalar arithmetic warns, so
    ``h`` must be an array.
    """
    h ^= h >> _U64(30)
    h *= _MIX1
    h ^= h >> _U64(27)
    h *= _MIX2
    h ^= h >> _U64(31)
    return h


def _fold(h: np.ndarray, value) -> np.ndarray:
    """``_mix(h + golden + value)``, written into ``h`` once ``h`` has the broadcast shape."""
    value = _as_u64(value)
    if not value.ndim or h.shape == np.broadcast_shapes(h.shape, value.shape):
        h += value
    else:
        h = h + value
    h += _GOLDEN
    return _mix(h)


def stream_key(seed: int, *parts: int) -> int:
    """Derive a child key from a seed and integer tags (pure, collision-mixed).

    The same splitmix64 chain as ``_fold``, on Python ints masked to 64 bits:
    seed and parts count modulo 2**64, and a key costs no numpy calls.
    """
    golden, mix1, mix2 = _SPLITMIX
    h = 0
    for value in (seed, *parts):
        h = (h + int(value) + golden) & _M64
        h ^= h >> 30
        h = (h * mix1) & _M64
        h ^= h >> 27
        h = (h * mix2) & _M64
        h ^= h >> 31
    return h


def _hash_vsk(key: int, stream, vertex, step: int, slot) -> np.ndarray:
    """uint64 hash of (key, stream, vertex, step, slot); all but key and step may be arrays.

    A part that widens the hash allocates its array once; every other fold
    writes into that array in place.  Scalar inputs give a 0-d array.
    """
    h = np.array(_as_u64(key))  # a copy the hash owns
    for value in (stream, vertex, step, slot):
        h = _fold(h, value)
    return h


def uniform(key: int, vertex, step: int, *, stream=0, slot=0):
    """Uniform draws in [0, 1) indexed by (key, stream, vertex, step, slot).

    ``vertex``, ``stream`` and ``slot`` broadcast together, so one call
    produces the whole noise array of a time step.
    """
    h = _hash_vsk(key, stream, vertex, step, slot)
    h >>= _U64(11)
    u = h.astype(np.float64)
    u *= _INV_2_53
    return u[()]  # a numpy scalar for scalar inputs


def gauss(key: int, vertex, step: int, *, stream=0, slot=0):
    """Standard Gaussian draws indexed like :func:`uniform` (Box-Muller)."""
    h = _hash_vsk(key, stream, vertex, step, slot)
    # sqrt(-2 log u1) cos(2 pi u2) in place, rounding as that expression does
    u1 = np.array(h >> _U64(32), dtype=np.float64)
    h &= _U64(0xFFFFFFFF)
    u2 = h.astype(np.float64)
    del h
    u1 += 1.0
    u1 *= _INV_2_32
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= _INV_2_32
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1[()]


def generator(seed: int, *parts: int) -> np.random.Generator:
    """Seeded numpy Generator for i.i.d. sampling, decoupled per call site."""
    return np.random.default_rng(stream_key(seed, *parts))
