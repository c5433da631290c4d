import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedyn import rng

U64 = st.integers(0, 2**63 - 1)


@pytest.mark.parametrize("draw", [rng.uniform, rng.gauss], ids=["uniform", "gauss"])
@settings(max_examples=60, deadline=None)
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
