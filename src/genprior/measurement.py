"""Link functions, noise, and observation synthesis.

Covers the unknown-link path (y_i = f_i(a_i^T x*), possibly randomized f, unit
norm x*) and the known-link path (y_i = f(a_i^T x*) + eta_i with monotone
differentiable f). Each link carries its derivative bounds when applicable,
and its gain mu = E[f(g) g] for standard normal g.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import sensing
from .errors import UnsupportedOperationError
from .seeding import derive_seed

__all__ = [
    "LinkModel",
    "linear_link",
    "shifted_cosine_link",
    "sign_dithered_link",
    "custom_monotone_link",
    "link_eval",
    "link_deriv",
    "observe_sim",
    "observe_known",
    "corrupt",
    "mu_of_link",
]

QUAD_NODES = 200          # Gauss-Hermite nodes for custom links


@dataclass(frozen=True)
class LinkModel:
    kind: str
    deriv_lo: float | None = None   # l, present iff differentiable
    deriv_hi: float | None = None   # u
    sigma: float = 0.0              # additive noise, known-link model only
    sigma_d: float = 0.0            # dither std for the sign link
    tau: float = 0.0                # adversarial corruption budget
    mu: float = float("nan")
    f: object = None                # callables for the custom kind
    fprime: object = None

    @property
    def differentiable(self):
        return self.kind != "sign_dithered"


def linear_link(sigma=0.0, tau=0.0):
    """Identity link f(t) = t, l = u = 1."""
    return _finish(LinkModel("linear", 1.0, 1.0, sigma=sigma, tau=tau))


def shifted_cosine_link(sigma=0.0, tau=0.0):
    """f(t) = 2t + 0.5 cos(t); monotone with f' in [1.5, 2.5]."""
    return _finish(LinkModel("shifted_cosine", 1.5, 2.5, sigma=sigma, tau=tau))


def sign_dithered_link(sigma_d=0.0, tau=0.0):
    """Dithered one-bit link f(t) = sign(t + e), e ~ N(0, sigma_d^2).

    Outputs are in {-1, +1} (ties at zero map to +1). Not differentiable, so
    only the unknown-link solver applies.
    """
    return _finish(LinkModel("sign_dithered", sigma_d=float(sigma_d), tau=tau))


def custom_monotone_link(f, fprime, lo, hi, sigma=0.0, tau=0.0):
    """User-supplied (f, f') with declared derivative bounds.

    The declared bounds are verified on a grid of 2001 points in [-10, 10]
    at construction; a violation is rejected rather than trusted.
    """
    if not (0 < lo <= hi):
        raise ValueError("need 0 < lo <= hi")
    grid = np.linspace(-10.0, 10.0, 2001)
    d = np.asarray([fprime(t) for t in grid], dtype=float)
    if np.any(d < lo - 1e-9) or np.any(d > hi + 1e-9):
        raise ValueError("declared derivative bounds violated on the check grid")
    vals = np.asarray([f(t) for t in grid], dtype=float)
    if np.any(np.diff(vals) <= 0):
        raise ValueError("custom link is not strictly increasing on the check grid")
    return _finish(LinkModel("custom_monotone", float(lo), float(hi),
                             sigma=sigma, tau=tau, f=f, fprime=fprime))


def link_eval(link, t, seed=None):
    """f(t), elementwise over arrays. The sign link draws its dither from seed."""
    scalar = np.ndim(t) == 0
    t = np.asarray(t, dtype=float)
    if link.kind == "linear":
        out = t + 0.0
    elif link.kind == "shifted_cosine":
        out = 2.0 * t + 0.5 * np.cos(t)
    elif link.kind == "sign_dithered":
        if seed is None:
            raise ValueError("sign_dithered link requires a seed")
        e = np.random.default_rng(seed).standard_normal(t.shape) * link.sigma_d
        out = np.where(t + e >= 0.0, 1.0, -1.0)
    elif link.kind == "custom_monotone":
        out = np.vectorize(link.f, otypes=[float])(t) + 0.0
    else:
        raise ValueError(f"unknown link kind {link.kind!r}")
    return float(out) if scalar else out


def link_deriv(link, t):
    """f'(t); rejected for non-differentiable kinds."""
    if not link.differentiable:
        raise UnsupportedOperationError("sign link has no derivative")
    scalar = np.ndim(t) == 0
    t = np.asarray(t, dtype=float)
    if link.kind == "linear":
        out = np.ones_like(t)
    elif link.kind == "shifted_cosine":
        out = 2.0 - 0.5 * np.sin(t)
    else:
        out = np.vectorize(link.fprime, otypes=[float])(t) + 0.0
    return float(out) if scalar else out


def observe_sim(link, op, x_star, seed):
    """Unknown-link measurement vector y_i = f_i(a_i^T x*), then corruption.

    The signal must have unit norm (its scale is not identifiable under an
    unknown link); per-sample link randomness is i.i.d.
    """
    x_star = np.asarray(x_star, dtype=float)
    if abs(np.linalg.norm(x_star) - 1.0) > 1e-9:
        raise ValueError("observe_sim requires a unit-norm signal")
    t = sensing.apply(op, x_star)
    y = link_eval(link, t, seed=derive_seed(seed, "link"))
    return corrupt(y, link.tau, derive_seed(seed, "corrupt"))


def observe_known(link, op, x_star, seed):
    """Known-link measurement vector y_i = f(a_i^T x*) + eta_i, then corruption.

    No norm constraint on the signal. eta_i are i.i.d. N(0, sigma^2).
    """
    if not link.differentiable:
        raise UnsupportedOperationError("known-link model needs a differentiable link")
    eta = np.random.default_rng(derive_seed(seed, "noise")).standard_normal(op.n)
    y = link_eval(link, sensing.apply(op, x_star)) + eta * link.sigma
    return corrupt(y, link.tau, derive_seed(seed, "corrupt"))


def corrupt(y, tau, seed):
    """Add a random-direction perturbation of l2 norm exactly tau * sqrt(n)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    y = np.asarray(y, dtype=float)
    if tau == 0.0:
        return y.copy()
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(len(y))
    d *= tau * np.sqrt(len(y)) / np.linalg.norm(d)
    return y + d


def mu_of_link(link):
    """Link gain mu = E[f(g) g] for g ~ N(0, 1).

    The linear link has mu = E[g^2] = 1, and the shifted cosine
    mu = E[(2g + 0.5 cos g) g] = 2, as g cos g is odd. The dithered sign link
    has the closed form sqrt(2/pi) / sqrt(1 + sigma_d^2) (Plan and Vershynin,
    The Generalized Lasso With Non-Linear Observations, 2016). Custom links
    integrate by Gauss-Hermite quadrature.
    """
    if link.kind == "linear":
        return 1.0
    if link.kind == "shifted_cosine":
        return 2.0
    if link.kind == "sign_dithered":
        return float(np.sqrt(2.0 / np.pi) / np.sqrt(1.0 + link.sigma_d ** 2))
    nodes, weights = np.polynomial.hermite_e.hermegauss(QUAD_NODES)
    vals = link_eval(link, nodes) * nodes
    return float(weights @ vals / np.sqrt(2.0 * np.pi))


def _finish(link):
    """Validate the noise parameters of a freshly built link and fill mu."""
    for name in ("sigma", "sigma_d", "tau"):
        if not getattr(link, name) >= 0:
            raise ValueError(f"{name} must be nonnegative")
    return replace(link, mu=mu_of_link(link))
