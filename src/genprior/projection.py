"""Approximate projection onto the decoder range by latent-space descent.

The projection minimizes 0.5 ||G(z) - x||^2 over the latent ball by damped
Gauss-Newton, with restarts, returning the best feasible point seen. A
closed-form path for single-layer decoders with orthonormal columns serves
as the exact-projection oracle.
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

BALL_HANDLING = ("project_each_step", "project_at_end")
INITS = ("zero", "gaussian")
METHODS = ("descent", "exact_linear")
# Gauss-Newton stops a row once a step moves its value by at most this share
GN_STALL = 1e-6


@dataclass(frozen=True)
class ProjectionConfig:
    steps: int = 200
    learning_rate: float = 0.03  # unread; perfbench/workloads.py still passes it
    restarts: int = 1
    init: str = "gaussian"
    ball_handling: str = "project_each_step"
    method: str = "descent"  # "exact_linear" routes to the analytic oracle

    def __post_init__(self):
        if self.steps < 1 or self.restarts < 1:
            raise ValueError("steps and restarts must be >= 1")
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
    targets = x[_owners(len(x), cfg.restarts)]

    def objective(fz, rows):
        d = fz - targets[rows]
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
    z = w.T @ x
    z = _clip_rows(z, np.linalg.norm(z), decoder.latent_radius)
    x_hat = genmodel.forward(decoder, z)
    return ProjectionResult(z, x_hat, float(np.linalg.norm(x_hat - x)), 0, 0)


def projection_to_json(cfg):
    doc = {
        "steps": cfg.steps,
        "restarts": cfg.restarts,
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
    return ProjectionConfig(**doc)


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
        rows.append(_clip_rows(z, np.linalg.norm(z), decoder.latent_radius))
    return np.array(rows)


def _descend(decoder, cfg, z, objective, metric=None, record=None):
    """Damped Gauss-Newton descent of every row of z, (B, k), as one batch.

    ``objective(fz, rows)`` maps the decoder outputs of batch rows ``rows``
    to their values and output-space gradients; ``metric(jac, rows)`` is the
    output Hessian pulled back through the Jacobians, J^T J (that of
    0.5 ||G(z) - x||^2) by default. ``record(rows, fz, values)`` sees every
    iterate: the start and each accepted step. Returns per row the first best
    feasible latent seen, its value, and the number of steps whose raw update
    left the ball.
    """
    every = np.arange(len(z))
    note = record or (lambda rows, fz, val: None)
    fz, hidden = genmodel._forward_cached(decoder, z)
    val, g = objective(fz, every)
    note(every, fz, val)
    end, end_val, oob = _gauss_newton(decoder, cfg, z, val, hidden, g,
                                      objective, metric, note)
    if cfg.ball_handling == "project_each_step":
        return end, end_val, oob  # its values never rise: the best seen
    end = _clip_rows(end, np.sqrt(np.add.reduce(end * end, 1)),
                     decoder.latent_radius)
    end_val, _ = objective(genmodel._forward_cached(decoder, end)[0], every)
    last = _first_min(np.array([val, end_val]), axis=0) == 1
    return np.where(last[:, None], end, z), np.where(last, end_val, val), oob


def _gauss_newton(decoder, cfg, z, val, hidden, g, objective, metric, note):
    """Levenberg-Marquardt descent of the rows of z (see ``_descend``). Each
    step solves (M + lam (tr M / k) I) d = J^T g, lam per row from 0: a step
    that does not lower the row's value is rejected and raises lam tenfold,
    to at least 1e-3; an accepted one lowers it tenfold. A row stops for good
    once a step moves its value by at most GN_STALL of it, or its latent by
    at most 1e-8 of its norm (an exact fit, where the value is round-off);
    a non-finite row never starts. Returns the latents, values and
    out-of-ball step counts."""
    r, k = decoder.latent_radius, decoder.latent_dim
    z, val = z.copy(), val.copy()
    lam, oob = np.zeros(len(z)), np.zeros(len(z), dtype=int)
    w, b, vec = np.zeros(z.shape), np.zeros(z.shape), np.zeros(z.shape + (k,))

    def refresh(at, sel, z, hs, g):  # eigen-pairs of M, J^T g in their basis
        jac = genmodel._jacobian_cached(decoder, z[sel], [h[sel] for h in hs])
        w[at], vec[at] = np.linalg.eigh(np.swapaxes(jac, 1, 2) @ jac
                                        if metric is None else metric(jac, at))
        b[at] = ((g[sel][:, None, :] @ jac) @ vec[at])[:, 0]

    rows = np.flatnonzero(np.isfinite(val))
    refresh(rows, rows, z, hidden, g)
    for _ in range(cfg.steps):
        if not len(rows):
            break
        wr = w[rows]  # M is singular for relu at z = 0: no step along its kernel
        den = wr + (lam[rows] * wr.sum(1) / k)[:, None]
        ok = den > 1e-12 * wr.max(1, keepdims=True)
        coef = np.where(ok, b[rows] / np.where(ok, den, 1.0), 0.0)
        zr, step = z[rows], (vec[rows] @ coef[:, :, None])[:, :, 0]
        trial = zr - step
        nrm = np.sqrt(np.add.reduce(trial * trial, 1))
        oob[rows] += nrm > r
        if cfg.ball_handling == "project_each_step":
            trial = _clip_rows(trial, nrm, r)
        fz, hid = genmodel._forward_cached(decoder, trial)
        new, g = objective(fz, rows)
        acc = new < val[rows]
        stop = ((np.abs(val[rows] - new) <= GN_STALL * val[rows])
                | (np.vecdot(step, step) <= 1e-16 * np.vecdot(zr, zr)))
        lam[rows] = np.where(acc, lam[rows] / 10,
                             np.maximum(lam[rows] * 10, 1e-3))
        z[rows[acc]], val[rows[acc]] = trial[acc], new[acc]
        note(rows[acc], fz[acc], new[acc])
        if (acc & ~stop).any():
            refresh(rows[acc & ~stop], acc & ~stop, trial, hid, g)
        rows = rows[~stop]
    return z, val, oob


def _owners(targets, restarts):
    """Target of every descent row: restarts consecutive rows per target."""
    return np.repeat(np.arange(targets), restarts)


def _best_rows(values, restarts):
    """Row of the first lowest value within each target's restarts."""
    values = np.asarray(values).reshape(-1, restarts)
    return np.arange(len(values)) * restarts + _first_min(values, axis=1)


def _clip_rows(z, nrm, r):
    """Rows of z (or the vector z) with norm nrm above r scaled onto the
    ball; the others are multiplied by exactly 1."""
    return z * (r / np.maximum(nrm, r))[..., None]


def _first_min(values, axis=None):
    """Index of the first lowest value along axis. A non-finite value ranks
    last, so it is chosen only when no value is finite."""
    return np.argmin(np.where(np.isfinite(values), values, np.inf), axis=axis)


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
