"""Approximate projection onto the decoder range by latent-space descent.

The projection minimizes 0.5 ||G(z) - x||^2 over the latent ball with a
first-order optimizer and random restarts, returning the best feasible point
seen. A closed-form path exists for single-layer decoders with orthonormal
columns and serves as the exact-projection oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import genmodel
from .errors import UnsupportedOperationError
from .seeding import derive_seed

__all__ = [
    "ProjectionConfig",
    "ProjectionResult",
    "project",
    "project_exact_linear",
    "projection_to_json",
    "projection_from_json",
]

OPTIMIZERS = ("gradient_descent", "momentum", "adam_style")
BALL_HANDLING = ("project_each_step", "project_at_end")
INITS = ("zero", "gaussian")
METHODS = ("descent", "exact_linear")


@dataclass(frozen=True)
class ProjectionConfig:
    steps: int = 200
    learning_rate: float = 0.03
    restarts: int = 1
    optimizer: str = "adam_style"
    momentum_beta: float = 0.9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    init: str = "gaussian"
    ball_handling: str = "project_each_step"
    method: str = "descent"  # "exact_linear" routes to the analytic oracle

    def __post_init__(self):
        if self.steps < 1 or self.restarts < 1:
            raise ValueError("steps and restarts must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning rate must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.ball_handling not in BALL_HANDLING:
            raise ValueError(f"unknown ball handling {self.ball_handling!r}")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class ProjectionResult:
    z_hat: np.ndarray
    x_hat: np.ndarray
    residual: float
    restart_index: int
    out_of_ball_steps: int


def project(decoder, x, cfg, seed, warm_start=None):
    """Approximate P_K(x): best feasible point over cfg.restarts descents.

    A warm start, when given, runs as restart 0; remaining restarts draw
    their initial latent per cfg.init. Ties in residual go to the lowest
    restart index; a non-finite residual never wins over a finite one.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (decoder.ambient_dim,):
        raise ValueError(f"expected ambient vector of length {decoder.ambient_dim}")
    return _project_rows(decoder, x[None], cfg, [seed], [warm_start])[0]


def _project_rows(decoder, x, cfg, seeds, warm_starts):
    """``project`` of every row of x, (T, p), each with its own seed and
    warm start. The T * cfg.restarts descents advance as one batch, and
    each target keeps the best of its own restarts."""
    if cfg.method == "exact_linear":
        return [project_exact_linear(decoder, xt) for xt in x]
    rows = x[_owners(len(x), cfg.restarts)]

    def objective(fz):
        d = fz - rows
        return 0.5 * np.add.reduce(d * d, 1), d

    z0 = np.concatenate([_start_latents(decoder, cfg, s, "restart", w)
                         for s, w in zip(seeds, warm_starts)])
    z, res, oob = _descend(decoder, cfg, z0, objective)
    out = []
    for t, i in enumerate(_best_rows(res, cfg.restarts)):
        x_hat = genmodel.forward(decoder, z[i])
        out.append(ProjectionResult(z[i], x_hat,
                                    float(np.linalg.norm(x_hat - x[t])),
                                    int(i - t * cfg.restarts), int(oob[i])))
    return out


def project_exact_linear(decoder, x):
    """Exact projection for a single-layer orthonormal-column decoder.

    The minimizer is W^T x, radially clipped into the latent ball.
    """
    w = _orthonormal_weight(decoder)
    x = np.asarray(x, dtype=float)
    if x.shape != (decoder.ambient_dim,):
        raise ValueError(f"expected ambient vector of length {decoder.ambient_dim}")
    z = _clip_ball(w.T @ x, decoder.latent_radius)
    x_hat = genmodel.forward(decoder, z)
    return ProjectionResult(z, x_hat, float(np.linalg.norm(x_hat - x)), 0, 0)


def projection_to_json(cfg):
    doc = {
        "steps": cfg.steps,
        "lr": cfg.learning_rate,
        "restarts": cfg.restarts,
        "optimizer": cfg.optimizer,
        "ball_handling": cfg.ball_handling,
    }
    if cfg.method != "descent":
        doc["method"] = cfg.method
    if cfg.init != "gaussian":
        doc["init"] = cfg.init
    return doc


def projection_from_json(doc):
    """The config of a ``projection_to_json`` document; absent keys keep
    their defaults."""
    return ProjectionConfig(**{"learning_rate" if key == "lr" else key: value
                               for key, value in doc.items()})


def _start_latents(decoder, cfg, seed, label, warm_start):
    """Initial latent of every restart, one per row. A warm start is
    restart 0; restart i otherwise draws from derive_seed(seed, label, i)."""
    rows = []
    for i in range(cfg.restarts):
        if i == 0 and warm_start is not None:
            z = np.asarray(warm_start, dtype=float)
        elif cfg.init == "zero":
            z = np.zeros(decoder.latent_dim)
        else:
            rng = np.random.default_rng(derive_seed(seed, label, i))
            z = rng.standard_normal(decoder.latent_dim)
        rows.append(_clip_ball(z, decoder.latent_radius))
    return np.array(rows)


def _descend(decoder, cfg, z, objective):
    """Latent descent of every row of z, (B, k), as one batch.

    ``objective`` maps decoder outputs (B, p) to per-row values and their
    gradient in output space. Returns per row the first best feasible latent
    seen, its value, and the number of steps whose raw update left the ball.
    """
    r = decoder.latent_radius
    each_step = cfg.ball_handling == "project_each_step"
    fz, hidden = genmodel._forward_cached(decoder, z)
    val, g = objective(fz)
    seen_z, seen_val, norms = [z], [val], []
    m = np.zeros_like(z)
    v = np.zeros_like(z)
    for t in range(1, cfg.steps + 1):
        grad = genmodel._vjp_cached(decoder, hidden, g)
        if cfg.optimizer == "gradient_descent":
            z = z - cfg.learning_rate * grad
        elif cfg.optimizer == "momentum":
            m = cfg.momentum_beta * m + grad
            z = z - cfg.learning_rate * m
        else:
            m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * grad
            v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * grad * grad
            mhat = m / (1 - cfg.adam_beta1 ** t)
            vhat = v / (1 - cfg.adam_beta2 ** t)
            z = z - cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.adam_eps)
        nrm = np.sqrt(np.add.reduce(z * z, 1))
        norms.append(nrm)
        if each_step and (nrm > r).any():
            z = _clip_rows(z, nrm, r)
        fz, hidden = genmodel._forward_cached(decoder, z)
        val, g = objective(fz)
        if each_step:
            seen_z.append(z)
            seen_val.append(val)
    if not each_step:
        z = _clip_rows(z, nrm, r)  # nrm is still the norm of this z
        val, _ = objective(genmodel._forward_cached(decoder, z)[0])
        seen_z.append(z)
        seen_val.append(val)
    seen_val = np.array(seen_val)
    first = _first_min(seen_val, axis=0)
    rows = np.arange(len(z))
    oob = np.sum(np.array(norms) > r, axis=0)
    return np.array(seen_z)[first, rows], seen_val[first, rows], oob


def _owners(targets, restarts):
    """Target of every descent row: restarts consecutive rows per target."""
    return np.repeat(np.arange(targets), restarts)


def _best_rows(values, restarts):
    """Row of the first lowest value within each target's restarts."""
    values = np.asarray(values).reshape(-1, restarts)
    return np.arange(len(values)) * restarts + _first_min(values, axis=1)


def _clip_rows(z, nrm, r):
    """Rows of z with norm nrm above r scaled onto the ball; the others
    are multiplied by exactly 1."""
    return z * (r / np.maximum(nrm, r))[:, None]


def _first_min(values, axis=None):
    """Index of the first lowest value along axis. A non-finite value ranks
    last, so it is chosen only when no value is finite."""
    return np.argmin(np.where(np.isfinite(values), values, np.inf), axis=axis)


def _clip_ball(z, r):
    nrm = np.linalg.norm(z)
    if nrm > r:
        return z * (r / nrm)
    return z


def _orthonormal_weight(decoder):
    if (len(decoder.layers) != 1 or decoder.activation != "identity"
            or np.any(decoder.layers[0][1] != 0.0)):
        raise UnsupportedOperationError(
            "exact projection needs a single linear layer with zero bias")
    w = decoder.layers[0][0]
    gram = w.T @ w
    if not np.allclose(gram, np.eye(w.shape[1]), atol=1e-10):
        raise UnsupportedOperationError(
            "exact projection needs orthonormal columns")
    return w
