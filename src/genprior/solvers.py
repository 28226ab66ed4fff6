"""Projected gradient descent solvers and the latent-descent baseline.

Two ambient-space solvers are provided: one for unknown links, which descends
the linear least-squares loss (1/2n)||y - A x||^2, and one for known monotone
links, which descends the nonlinear loss (1/2n)||y - f(A x)||^2. Both project
every iterate onto the decoder range. The baseline descends the linear loss
over the latent variable directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import genmodel, projection, sensing
from .errors import UnsupportedOperationError
from .measurement import link_deriv, link_eval
from .seeding import derive_seed

__all__ = [
    "SolverConfig",
    "Trajectory",
    "loss_glasso",
    "grad_glasso",
    "loss_nlasso",
    "grad_nlasso",
    "pgd_glasso",
    "pgd_nlasso",
    "csgm_baseline",
    "mu1_of",
    "mu2_of",
    "NU_DEFAULT",
    "ZETA_DEFAULT",
    "ZETA_THEORY",
    "ITERATIONS_DEFAULT",
]

NU_DEFAULT = 1.0          # recommended step size, unknown link
ZETA_DEFAULT = 0.2        # replication step size, known link
ZETA_THEORY = 0.23        # inside the contraction window (1/(2l^2), 3/(2u^2))
                          # for l=1.5, u=2.5; ZETA_DEFAULT sits outside it
ITERATIONS_DEFAULT = 30
X0_MODES = ("zero", "random_range_point", "given")
KINDS = ("pgd_glasso", "pgd_nlasso", "csgm")  # the solvers _solve_group runs


@dataclass(frozen=True)
class SolverConfig:
    step_size: float
    iterations: int = ITERATIONS_DEFAULT
    projection: projection.ProjectionConfig = field(
        default_factory=projection.ProjectionConfig)
    x0_mode: str = "zero"
    x0: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.step_size > 0:
            raise ValueError("step size must be positive")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.x0_mode not in X0_MODES:
            raise ValueError(f"unknown x0 mode {self.x0_mode!r}")
        if self.x0_mode == "given" and self.x0 is None:
            raise ValueError("x0_mode 'given' requires x0")


@dataclass
class Trajectory:
    loss_values: list = field(default_factory=list)
    error_to_target: list = field(default_factory=list)

    @property
    def contraction_ratios(self):
        """error_t / error_{t-1} for t >= 1; nan after a zero error."""
        errs = self.error_to_target
        return [b / a if a > 0 else float("nan")
                for a, b in zip(errs[:-1], errs[1:])]


def loss_glasso(op, y_tilde, x):
    """``_fit``'s loss (1/2n) ||y - A x||^2."""
    return float(_fit(op, _check_measurements(op, y_tilde), None, x)[0])


def grad_glasso(op, y_tilde, x, ax=None):
    """(1/n) A^T (A x - y); ``ax``, when given, is A x and is not
    recomputed. A stack x, (m, p), gives the rows of ``_fit``."""
    return _fit(op, _check_measurements(op, y_tilde), None, x, ax)[1]


def loss_nlasso(op, y_tilde, link, x):
    """``_fit``'s loss (1/2n) ||y - f(A x)||^2, for a differentiable link."""
    _require_differentiable(link)
    return float(_fit(op, _check_measurements(op, y_tilde), link, x)[0])


def grad_nlasso(op, y_tilde, link, x, ax=None):
    """(1/n) A^T ((f(A x) - y) . f'(A x)); ``ax``, when given, is A x and
    is not recomputed. A stack x, (m, p), gives the rows of ``_fit``."""
    _require_differentiable(link)
    return _fit(op, _check_measurements(op, y_tilde), link, x, ax)[1]


def pgd_glasso(op, y_tilde, decoder, cfg, target=None):
    """Projected gradient descent on the linear least-squares loss.

    Returns the final iterate (in the decoder range) and a trajectory whose
    error series, when a target is given, is measured against that target;
    callers following the unknown-link theory pass mu * x_star.
    """
    return _solve_group("pgd_glasso", [op], [y_tilde], None, decoder, cfg,
                        [cfg.seed], [target])[0]


def pgd_nlasso(op, y_tilde, link, decoder, cfg, target=None):
    """Projected gradient descent on the nonlinear least-squares loss.

    Requires a differentiable link; the error target, when given, is the
    signal itself.
    """
    _require_differentiable(link)
    return _solve_group("pgd_nlasso", [op], [y_tilde], link, decoder, cfg,
                        [cfg.seed], [target])[0]


def csgm_baseline(op, y_tilde, decoder, cfg, target=None, warm_start=None):
    """Damped Gauss-Newton descent over the latent variable on the linear
    loss (no projection).

    Step cap and restarts are taken from cfg.projection, and every step is
    clipped to the latent ball; a latent warm start, when given, runs as
    restart 0. Returns the decoded best latent across restarts.
    """
    return _solve_group("csgm", [op], [y_tilde], None, decoder, cfg,
                        [cfg.seed], [target], [warm_start])[0]


def mu1_of(nu, eps):
    """Contraction factor max{1 - nu (1-eps), nu (1+eps) - 1}: mu2 at
    l = u = 1."""
    return mu2_of(nu, 1.0, 1.0, eps)


def mu2_of(zeta, l, u, eps):
    """Contraction factor max{1 - zeta l^2 (1-eps), zeta u^2 (1+eps) - 1}."""
    _check_eps(eps)
    return max(1.0 - zeta * (l * l) * (1.0 - eps),
               zeta * (u * u) * (1.0 + eps) - 1.0)


def _check_eps(eps):
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")


def _require_differentiable(link):
    if not link.differentiable:
        raise UnsupportedOperationError(
            "the nonlinear least-squares path needs a differentiable link")


def _check_measurements(op, y):
    y = np.asarray(y, dtype=float)
    if y.shape != (op.n,):
        raise ValueError(f"expected measurement vector of length {op.n}")
    return y


def _solve_group(kind, ops, ys, link, decoder, cfg, seeds, targets,
                 warm_starts=None):
    """Solve T trials in lockstep, one (x_hat, trajectory) per trial.

    Trial t has its own operator ops[t], measurements ys[t], error target
    targets[t] (or None) and seed seeds[t], which stands in for cfg.seed.
    The link is used by pgd_nlasso only, and its callers check that it is
    differentiable. Each trial's result matches its own solve to round-off:
    the trials share only the batched latent descents, whose rows never mix.
    """
    if not ops:
        return []
    ys = [_check_measurements(op, y) for op, y in zip(ops, ys)]
    if kind == "csgm":
        return _csgm_group(ops, ys, decoder, cfg, seeds, targets,
                           warm_starts or [None] * len(ops))
    return _pgd_loop(ops, ys, link if kind == "pgd_nlasso" else None,
                     decoder, cfg, seeds, targets)


def _fit(op, y, link, x, ax=None):
    """Loss (1/2n)||f(A x) - y||^2 and gradient (1/n) A^T ((f(A x) - y) .
    f'(A x)) from one product A x, or ``ax`` when given; f is the identity
    when link is None. A stack x gives rows, bit for bit the calls at each."""
    t = sensing._apply_each(op, x) if ax is None else ax
    if link is None:
        r = t - y
        g = sensing._adjoint_each(op, r)
    else:
        r = link_eval(link, t) - y
        g = sensing._adjoint_each(op, r * link_deriv(link, t))
    return np.vecdot(r, r) / (2.0 * op.n), g / op.n


def _pgd_loop(ops, ys, link, decoder, cfg, seeds, targets):
    """PGD on the rows of X, (T, p): row t takes its loss and gradient from
    trial t's own operator and measurements, and all T projections of an
    iteration run as one latent batch. Each restart is a chain: from the
    second iteration on, it starts where it ended at the one before, with
    the decoder output and activations it ended with. An iteration that
    moves no iterate and no chain is a fixed point: every later one would
    repeat it, so the trajectories repeat its record to the end instead. A
    finite loss whose gradient step overflows raises ValueError."""
    x = np.array([_initial_point(decoder, cfg, s) for s in seeds])
    trajs = [Trajectory() for _ in seeds]
    chains = projection._start_latents(
        decoder, cfg.projection, [derive_seed(s, "project", 0) for s in seeds],
        "restart", [None] * len(seeds))
    for t in range(cfg.iterations + 1):
        fits = [_fit(op, y, link, xt) for op, y, xt in zip(ops, ys, x)]
        for xt, traj, (loss, _), tgt in zip(x, trajs, fits, targets):
            _record(traj, xt, loss, tgt)
        if t == cfg.iterations:
            break
        with np.errstate(over="ignore"):
            v = x - cfg.step_size * np.array([g for _, g in fits])
            if (np.isfinite([f for f, _ in fits])
                    & ~np.isfinite(np.vecdot(v, v))).any():
                raise ValueError(f"PGD diverged at iteration {t}: the "
                                 f"gradient step at step_size "
                                 f"{cfg.step_size:g} overflows")
        starts = None if t == 0 else chains.z.copy()
        chains, best, _ = projection._project_rows(decoder, v, cfg.projection,
                                                   chains)
        x_next = chains.fz[best]
        if (starts is not None and np.array_equal(x_next, x)
                and np.array_equal(chains.z, starts)):
            for traj in trajs:
                for series in (traj.loss_values, traj.error_to_target):
                    series.extend(series[-1:] * (cfg.iterations - t))
            break
        x = x_next
    return list(zip(x, trajs))


def _csgm_group(ops, ys, decoder, cfg, seeds, targets, warm_starts):
    """Latent descent for T trials as one batch of T * restarts rows."""
    pcfg = cfg.projection
    z0 = projection._start_latents(decoder, pcfg, seeds, "csgm-restart",
                                   warm_starts)
    owner = projection._owners(len(ops), pcfg.restarts)
    trajs = [Trajectory() for _ in z0]

    def objective(fz, rows):
        fits = [_fit(ops[t], ys[t], None, x) for x, t in zip(fz, owner[rows])]
        return np.array([f for f, _ in fits]), np.array([g for _, g in fits])

    def metric(jac, rows):  # (A J)^T (A J) / n, on each row's own operator
        aj = [sensing.apply(ops[t], jt) / np.sqrt(ops[t].n)
              for jt, t in zip(np.swapaxes(jac, 1, 2), owner[rows])]
        return np.array([a @ a.T for a in aj])

    def record(rows, fz, loss):
        for i, xv, value in zip(rows, fz, loss):
            _record(trajs[i], xv, value, targets[owner[i]])

    ends, loss, _ = projection._descend(decoder, pcfg, z0, objective, metric,
                                        record)
    return [(ends.fz[i], trajs[i])
            for i in projection._best_rows(loss, pcfg.restarts)]


def _initial_point(decoder, cfg, seed):
    p = decoder.ambient_dim
    if cfg.x0_mode == "zero":
        return np.zeros(p)
    if cfg.x0_mode == "given":
        x0 = np.asarray(cfg.x0, dtype=float)
        if x0.shape != (p,):
            raise ValueError(f"x0 must have length {p}")
        return x0.copy()
    z0 = genmodel.sample_latent(decoder, derive_seed(seed, "x0"))
    return genmodel.forward(decoder, z0)


def _record(traj, x, loss, target):
    traj.loss_values.append(float(loss))
    if target is not None:
        traj.error_to_target.append(float(np.linalg.norm(x - target)))

