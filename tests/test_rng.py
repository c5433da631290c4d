import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedyn import rng

U64 = st.integers(0, 2**63 - 1)


@pytest.mark.parametrize("draw", [rng.uniform, rng.gauss], ids=["uniform", "gauss"])
@settings(max_examples=60)
@given(key=st.integers(0, 2**64 - 1), step=st.integers(0, 2**32), slot=st.integers(0, 3),
       vertices=st.lists(U64, min_size=1, max_size=12), streams=st.lists(U64, min_size=1, max_size=5),
       data=st.data())
def test_draws_ignore_batch_shape_and_vertex_order(draw, key, step, slot, vertices, streams, data):
    # the replica engines draw one (R, n) block where a single run draws (n,)
    v = np.array(vertices, dtype=np.int64)
    s = np.array(streams, dtype=np.int64)
    block = draw(key, v[None, :], step, stream=s[:, None], slot=slot)
    rows = np.stack([draw(key, v, step, stream=np.full(len(v), r), slot=slot) for r in s])
    assert block.shape == (len(s), len(v))
    assert np.array_equal(block.view(np.uint64), rows.view(np.uint64))
    perm = np.array(data.draw(st.permutations(range(len(v)))), dtype=np.int64)
    permuted = draw(key, v[perm][None, :], step, stream=s[:, None], slot=slot)
    assert np.array_equal(permuted.view(np.uint64), block[:, perm].view(np.uint64))
    # the diffusion engine draws all d components along a trailing slot axis
    slots = draw(key, v[None, :, None], step, stream=s[:, None, None], slot=np.arange(slot, slot + 3))
    per_slot = np.stack([draw(key, v[None, :], step, stream=s[:, None], slot=j)
                         for j in range(slot, slot + 3)], axis=-1)
    assert np.array_equal(slots.view(np.uint64), per_slot.view(np.uint64))


@pytest.mark.parametrize("draw", [rng.uniform, rng.gauss], ids=["uniform", "gauss"])
def test_scalar_draws_and_inputs_left_alone(draw):
    # the hash works in place on its own array: scalar inputs still give a
    # numpy scalar, and the caller's index arrays are never written to
    v = np.arange(5, dtype=np.uint64)
    s = np.array([[3], [9]], dtype=np.uint64)
    block = draw(11, v[None, :], 4, stream=s, slot=1)
    assert np.array_equal(v, np.arange(5)) and np.array_equal(s, [[3], [9]])
    one = draw(11, 2, 4, stream=9, slot=1)
    assert isinstance(one, np.float64) and one.tobytes() == block[1, 2].tobytes()


def _stream_key_reference(seed, *parts):
    """stream_key as it was first written: splitmix64 folds on numpy uint64 scalars."""
    with np.errstate(over="ignore"):  # numpy scalar arithmetic warns when it wraps
        h = rng._mix(rng._as_u64(seed) + rng._GOLDEN)
        for p in parts:
            h = rng._fold(h, p)
    return int(h)


WIDE = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
)


@settings(max_examples=300)
@given(seed=WIDE, parts=st.lists(WIDE, max_size=4))
def test_stream_key_matches_the_numpy_reduction(seed, parts):
    # seeds and parts count modulo 2**64: negative, >= 2**64 and numpy integers alike
    key = rng.stream_key(seed, *parts)
    assert type(key) is int and 0 <= key < 2**64
    assert key == _stream_key_reference(seed, *parts)
