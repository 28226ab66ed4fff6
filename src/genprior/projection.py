"""Approximate projection onto the decoder range by latent-space descent.

The projection minimizes 0.5 ||G(z) - x||^2 over the latent ball by damped
Gauss-Newton, with restarts, returning the best feasible point seen. On a
single-layer decoder with orthonormal columns its first step is the exact
projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import genmodel
from .seeding import derive_seed

__all__ = [
    "ProjectionConfig",
    "ProjectionResult",
    "project",
]

# Gauss-Newton stops a row once a step moves its value by at most this share
GN_STALL = 1e-6


@dataclass(frozen=True)
class ProjectionConfig:
    steps: int = 200
    learning_rate: float = 0.03  # unread; perfbench/workloads.py still passes it
    restarts: int = 1

    def __post_init__(self):
        if self.steps < 1 or self.restarts < 1:
            raise ValueError("steps and restarts must be >= 1")


@dataclass(frozen=True)
class ProjectionResult:
    z_hat: np.ndarray
    x_hat: np.ndarray
    residual: float
    restart_index: int
    out_of_ball_steps: int


def project(decoder, x, cfg, seed, warm_start=None):
    """Approximate P_K(x): best feasible point over cfg.restarts descents.

    A warm start, when given, runs as restart 0; remaining restarts start
    from seeded Gaussian latents. Ties in residual go to the lowest
    restart index; a non-finite residual never wins over a finite one.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (decoder.ambient_dim,):
        raise ValueError(f"expected ambient vector of length {decoder.ambient_dim}")
    start = _start_latents(decoder, cfg, [seed], "restart", [warm_start])
    return _project_rows(decoder, x[None], cfg, start)[0][0]


def _project_rows(decoder, x, cfg, start):
    """``project`` of every row of x, (T, p). The T * cfg.restarts descents
    advance as one batch from ``start``: their start latents, restarts
    consecutive rows per target, or the end ``_Points`` of an earlier call
    on T targets, from which each descent resumes. Each target keeps the
    best of its own restarts. Returns the results and the end ``_Points``
    of every descent."""
    targets = x[_owners(len(x), cfg.restarts)]

    def objective(fz, rows):
        d = fz - targets[rows]
        return 0.5 * np.add.reduce(d * d, 1), d

    ends, res, oob = _descend(decoder, cfg, start, objective)
    best = _best_rows(res, cfg.restarts)
    z_hat, x_hat = ends.z[best], ends.fz[best]  # copies: descents move ends
    return [ProjectionResult(z_hat[t], x_hat[t],
                             float(np.linalg.norm(x_hat[t] - x[t])),
                             int(i - t * cfg.restarts), int(oob[i]))
            for t, i in enumerate(best)], ends


def _start_latents(decoder, cfg, seeds, label, warm_starts):
    """Initial latents of every restart of every seed, cfg.restarts
    consecutive rows per seed, clipped to the ball: the seed's warm start,
    when given, for restart 0, and a standard Gaussian drawn from
    derive_seed(seed, label, i) for each other restart i."""
    rows = []
    for seed, warm_start in zip(seeds, warm_starts):
        for i in range(cfg.restarts):
            if i == 0 and warm_start is not None:
                z = np.asarray(warm_start, dtype=float)
            else:
                rng = np.random.default_rng(derive_seed(seed, label, i))
                z = rng.standard_normal(decoder.latent_dim)
            rows.append(_clip_rows(z, np.linalg.norm(z), decoder.latent_radius))
    return np.array(rows)


class _Points(NamedTuple):
    """Descent rows at their current points: the latents z, (B, k), their
    decoder outputs fz, (B, p), and hidden activations, from which each
    refresh differentiates them."""
    z: np.ndarray
    fz: np.ndarray
    hidden: list


def _descend(decoder, cfg, start, objective, metric=None, record=None):
    """Damped Gauss-Newton (Levenberg-Marquardt) descent of every row of
    ``start`` as one batch, each step clipped to the latent ball. ``start``
    is a (B, k) array of latents, or the end ``_Points`` of an earlier
    descent of B rows, which each row then leaves from where it ended: its
    latent is not decoded again, and the points are moved in place.

    ``objective(fz, rows)`` maps the decoder outputs of batch rows ``rows``
    to their values and output-space gradients; ``metric(jac, rows)`` is the
    output Hessian pulled back through the Jacobians, M = J^T J (that of
    0.5 ||G(z) - x||^2) by default. Each step solves
    (M + lam (tr M / k) I) d = J^T g, lam per row from 0, and an update
    that leaves the ball is scaled radially onto it. A step that does not
    lower the row's value is rejected and raises lam tenfold, to at least
    1e-3; an accepted one lowers it tenfold. A row stops for good once a step
    moves its value by at most GN_STALL of it, or its latent by at most 1e-8
    of its norm (an exact fit, where the value is round-off); a non-finite
    row never starts. ``record(rows, fz, values)`` sees every iterate: the
    start and each accepted step.
    Returns the ``_Points`` of every row's last iterate (values never rise,
    so it is the best seen), its value, and the number of steps whose raw
    update left the ball.
    """
    r, k = decoder.latent_radius, decoder.latent_dim
    at = start
    if not isinstance(at, _Points):
        fz, hidden = genmodel._forward_cached(decoder, start)
        at = _Points(start.copy(), fz, hidden)
    every = np.arange(len(at.z))
    note = record or (lambda rows, fz, val: None)
    val, g = objective(at.fz, every)
    note(every, at.fz, val)
    lam, oob = np.zeros(len(every)), np.zeros(len(every), dtype=int)
    shape = at.z.shape
    w, b, vec = np.zeros(shape), np.zeros(shape), np.zeros(shape + (k,))

    def refresh(rows, g):  # eigen-pairs of M at rows, J^T g in their basis
        jac = genmodel._jacobian_cached(decoder, at.z[rows],
                                        [h[rows] for h in at.hidden])
        w[rows], vec[rows] = np.linalg.eigh(np.swapaxes(jac, 1, 2) @ jac
                                            if metric is None
                                            else metric(jac, rows))
        b[rows] = ((g[:, None, :] @ jac) @ vec[rows])[:, 0]

    rows = np.flatnonzero(np.isfinite(val))
    if len(rows):
        refresh(rows, g[rows])
    for _ in range(cfg.steps):
        if not len(rows):
            break
        wr = w[rows]  # M is singular for relu at z = 0: no step along its kernel
        den = wr + (lam[rows] * wr.sum(1) / k)[:, None]
        ok = den > 1e-12 * wr.max(1, keepdims=True)
        coef = np.where(ok, b[rows] / np.where(ok, den, 1.0), 0.0)
        zr, step = at.z[rows], (vec[rows] @ coef[:, :, None])[:, :, 0]
        trial = zr - step
        nrm = np.sqrt(np.add.reduce(trial * trial, 1))
        oob[rows] += nrm > r
        trial = _clip_rows(trial, nrm, r)
        fz, hid = genmodel._forward_cached(decoder, trial)
        new, g = objective(fz, rows)
        acc = new < val[rows]
        stop = ((np.abs(val[rows] - new) <= GN_STALL * val[rows])
                | (np.vecdot(step, step) <= 1e-16 * np.vecdot(zr, zr)))
        lam[rows] = np.where(acc, lam[rows] / 10,
                             np.maximum(lam[rows] * 10, 1e-3))
        moved = rows[acc]
        at.z[moved], at.fz[moved], val[moved] = trial[acc], fz[acc], new[acc]
        for h, h_new in zip(at.hidden, hid):
            h[moved] = h_new[acc]
        note(moved, fz[acc], new[acc])
        if (acc & ~stop).any():
            refresh(rows[acc & ~stop], g[acc & ~stop])
        rows = rows[~stop]
    return at, val, oob


def _owners(targets, restarts):
    """Target of every descent row: restarts consecutive rows per target."""
    return np.repeat(np.arange(targets), restarts)


def _best_rows(values, restarts):
    """Row of the first lowest value within each target's restarts. A
    non-finite value ranks last, so it is chosen only when none of its
    target's values is finite."""
    values = np.asarray(values).reshape(-1, restarts)
    first = np.argmin(np.where(np.isfinite(values), values, np.inf), axis=1)
    return np.arange(len(values)) * restarts + first


def _clip_rows(z, nrm, r):
    """Rows of z (or the vector z) with norm nrm above r scaled onto the
    ball; the others are multiplied by exactly 1."""
    return z * (r / np.maximum(nrm, r))[..., None]
