"""The vectorised seed hash against numpy's own ``default_rng`` seeding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genprior import genmodel
from genprior.seeding import _pcg64_states

EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


def default_rng_state(seed):
    state = np.random.default_rng(seed).bit_generator.state["state"]
    return state["state"], state["inc"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=40))
def test_states_equal_default_rng(seeds):
    seeds = EDGE_SEEDS + seeds
    assert _pcg64_states(seeds) == [default_rng_state(s) for s in seeds]


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_numpy_integer_seeds(dtype):
    seeds = [dtype(s) for s in EDGE_SEEDS if s <= np.iinfo(dtype).max]
    seeds += list(np.random.default_rng(3).integers(2 ** 63, size=30,
                                                    dtype=dtype))
    seeds.append(np.random.default_rng(4).integers(2 ** 63))
    assert _pcg64_states(seeds) == [default_rng_state(s) for s in seeds]
    assert _pcg64_states(np.array(seeds, dtype=dtype)) == _pcg64_states(seeds)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, np.int64(-1)])
def test_seeds_outside_64_bits_raise(seed):
    with pytest.raises(ValueError):
        _pcg64_states([7, seed])
    with pytest.raises(ValueError):
        genmodel.sample_latent(genmodel.identity_decoder(3, r=1.0), seed)


def test_non_integer_seed_raises():
    with pytest.raises(TypeError):
        _pcg64_states([1.5])
