"""Signal recovery from nonlinear measurements under a generative prior.

Projected gradient descent solvers for unknown links (linear least-squares
surrogate) and known monotone links (nonlinear least-squares), together with
synthetic decoders, random measurement operators, and an empirical
verification suite for the concentration conditions behind the convergence
guarantees.
"""

from . import analysis, genmodel, measurement, projection, sensing, solvers
from .errors import ConfigError, InsufficientDataError, UnsupportedOperationError
from .seeding import derive_seed

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "genmodel",
    "measurement",
    "projection",
    "sensing",
    "solvers",
    "derive_seed",
    "ConfigError",
    "InsufficientDataError",
    "UnsupportedOperationError",
    "__version__",
]
