"""Seeds of ``genmodel.sample_latent``: numpy's ``default_rng`` decides which
it takes, and numpy integers draw as the Python integers they hold."""

import numpy as np
import pytest

from genprior import genmodel
from genprior.seeding import derive_seed

DEC = genmodel.identity_decoder(3, r=1.0)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_numpy_integer_seeds(dtype):
    seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, derive_seed(5, "x") >> 1]
    for seed in seeds:
        assert np.array_equal(genmodel.sample_latent(DEC, dtype(seed)),
                              genmodel.sample_latent(DEC, seed))


@pytest.mark.parametrize("seed", [-1, np.int64(-1)])
def test_negative_seed_raises(seed):
    with pytest.raises(ValueError):
        genmodel.sample_latent(DEC, seed)


def test_non_integer_seed_raises():
    with pytest.raises(TypeError):
        genmodel.sample_latent(DEC, 1.5)
