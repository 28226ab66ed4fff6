"""Reference estimators shared by the test modules."""

import numpy as np

from genprior import measurement
from genprior.seeding import derive_seed

MU_MC_SEED = derive_seed(0, "mu-of-link-mc")


def mu_mc_estimate(link, samples, seed):
    """Monte Carlo estimate of E[f(g) g] for g ~ N(0, 1), with its standard
    error; the oracle for the library's closed-form and quadrature gains."""
    g = np.random.default_rng(derive_seed(seed, "g")).standard_normal(samples)
    y = measurement.link_eval(link, g, seed=derive_seed(seed, "e"))
    vals = y * g
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples))
