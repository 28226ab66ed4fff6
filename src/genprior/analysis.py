"""Empirical verification of the recovery conditions and rate behavior.

Each checker samples a randomized scenario, counts violations of the
condition it tests, and returns a CheckReport. The rate experiment runs
Monte Carlo trials of a full solve across a grid of measurement counts and
aggregates medians against the k log(L r / delta) / n scaling.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import genmodel, sensing, solvers
from .errors import InsufficientDataError, UnsupportedOperationError
from .measurement import link_eval, observe_known, observe_sim
from .seeding import derive_seed

__all__ = [
    "CheckReport",
    "RateRow",
    "RateTable",
    "TrialRecord",
    "TrialSetup",
    "cosine_similarity",
    "tsrec_check",
    "jle_check",
    "wnu_check",
    "polarization_check",
    "mvt_check",
    "adjoint_check",
    "gradient_check",
    "contraction_fit",
    "solve_instance",
    "run_trials",
    "rate_experiment",
]

WNU_SLACK = 0.05  # finite-sample allowance on the inner-product bound
POLARIZATION_TOL = 1e-9  # relative, on the polarization identity
ADJOINT_TOL = 1e-10  # relative, on <A x, v> = <x, A^T v>
GRADIENT_TOL = 1e-5  # normwise, loss gradients against central differences
VJP_TOL = 1e-4  # normwise, decoder vjp against central differences
FD_STEP = 1e-6  # central-difference step in ambient space
VJP_STEP = 1e-5  # central-difference step in latent space
N_CAP = 100_000  # largest measurement count of a solve or a rate grid point
DENSE_CAP = 2 ** 27  # cells n * p of one dense operator: 1 GiB of float64
JACOBIAN_CAP = 2 ** 27  # restarts * k * p: one target's descent Jacobians
OPERATOR_BUDGET = 2 ** 19  # dense operator cells (4 MiB) of one trial group
# floats (1 MiB) of the points and measurements of a check block. Shuffled
# in-process sweeps of the six check suites (2 vCPUs, numpy 2.4 on OpenBLAS,
# 150 rounds, twice): 2**17 and 2**18 5-6% faster than 2**16, 2**15 12-14%
# slower, 2**19 from 2% faster to 12% slower.
CHECK_CELLS = 2 ** 17
OBSERVATIONS = ("sim", "known", "auto")  # "auto" follows the solver kind


@dataclass(frozen=True)
class CheckReport:
    name: str
    trials: int
    violations: int
    worst_margin: float
    params: dict = field(default_factory=dict)
    passed: bool = True

    def summary(self):
        state = "PASS" if self.passed else "FAIL"
        return (f"[{state}] {self.name}: {self.violations}/{self.trials} "
                f"violations, worst margin {self.worst_margin:.3e}")


def _finish_report(name, trials, failed, worst, params):
    """The report of a check whose trials failed where ``failed`` is true:
    where their pass condition does not hold, so a NaN fails. worst is one
    numpy reduction over all trials, so a NaN shows. No violation passes."""
    violations = int(np.count_nonzero(failed))
    return CheckReport(name, trials, violations, float(worst),
                       {**params, "allowed_violations": 0},
                       passed=violations == 0)


def _exceeds(*checks):
    """(failed, worst) of (deviation per trial, tolerance) pairs: a trial
    fails unless each deviation is within tolerance; worst is the largest."""
    failed = np.logical_or.reduce([~(dev <= tol) for dev, tol in checks])
    return failed, np.max([dev for dev, _ in checks], initial=0.0)


def _rel_gap(lhs, rhs):
    """|lhs - rhs| relative to the larger side, floored at 1e-30."""
    return np.abs(lhs - rhs) / np.maximum(
        np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)


def _check_eps(eps):
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")


def cosine_similarity(a, b):
    """<a, b> / (||a|| ||b||), clipped into [-1, 1]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity of a zero vector is undefined")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def _block_len(cells):
    """Rows of a check block: as many rows of ``cells`` floats as fit in
    CHECK_CELLS, and at least one."""
    return max(1, CHECK_CELLS // cells)


def _rowwise(f, x, cells):
    """f over consecutive blocks of _block_len(cells) rows of x, the results
    concatenated: f maps a stack of m rows to m values or m rows of them."""
    step = _block_len(cells)
    blocks = [f(x[start:start + step]) for start in range(0, len(x), step)]
    return np.concatenate(blocks) if blocks else np.empty(0)


def _gram(op):
    """A^T A, (p, p): A^T A e_i for blocks of identity rows e_i, through
    apply and adjoint_apply, so it serves both operator kinds and each
    product holds at most CHECK_CELLS floats."""
    return _rowwise(lambda e: sensing.adjoint_apply(op, sensing.apply(op, e)),
                    np.eye(op.p), op.n + op.p)


def _range_map(f, decoder, seed, tags, pairs, n):
    """f(x_1, ..., x_m) through _rowwise over pairs 0..pairs-1, m (n + p)
    floats a pair: x_j is G at a block of tag j's latents, its
    ``_sample_latents`` draws, inset 1, from ``default_rng(derive_seed(seed,
    tag))``, all drawn up front. A block is decoded in one batch, tag-major."""
    def block(z):
        x = genmodel._forward_cached(decoder, z.swapaxes(0, 1).reshape(
            -1, decoder.latent_dim))[0]
        return f(*x.reshape(len(tags), len(z), decoder.ambient_dim))
    z = np.stack([genmodel._sample_latents(
        decoder, np.random.default_rng(derive_seed(seed, tag)), pairs, 1.0)
        for tag in tags], axis=1)
    return _rowwise(block, z, len(tags) * (n + decoder.ambient_dim))


def _sq_norms(x):
    return np.vecdot(x, x)


def _row_norms(x):
    return np.sqrt(_sq_norms(x))


def tsrec_check(op, decoder, eps, delta, pairs, seed):
    """Two-sided restricted eigenvalue condition on decoder range points.

    For sampled range pairs x1, x2 the scaled operator must satisfy
    (1-eps)||x1-x2|| - delta <= ||A(x1-x2)||/sqrt(n) <= (1+eps)||x1-x2|| + delta.
    worst_margin reports the largest relative isometry defect
    | ||A d|| / (sqrt(n) ||d||) - 1 | seen (the empirical eps-hat).
    ||A d||^2 is read as d^T (A^T A) d, with A^T A formed once.
    """
    _check_eps(eps)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    gram = _gram(op)

    def sides(x1, x2):  # (||A d|| / sqrt(n), ||d||) of each d = x1 - x2
        d = x1 - x2
        # clamped: round-off can take d^T A^T A d below 0 where A d ~ 0
        return np.stack([np.sqrt(np.maximum(np.vecdot(d @ gram, d), 0.0)
                                 / op.n), _row_norms(d)], axis=-1)

    s, nd = _range_map(sides, decoder, seed, ("tsrec-a", "tsrec-b"), pairs,
                       op.n).reshape(-1, 2).T
    pos = nd > 0
    return _finish_report(
        "tsrec", pairs, ~((s <= (1 + eps) * nd + delta)
                          & (s >= (1 - eps) * nd - delta)),
        np.max(np.abs(s[pos] / nd[pos] - 1.0), initial=0.0),
        {"eps": eps, "delta": delta, "n": op.n, "p": op.p,
         "k": decoder.latent_dim, "seed": seed})


def jle_check(op, points, eps):
    """Norm preservation on a finite point set:
    (1-eps)||x||^2 <= ||Ax||^2/n <= (1+eps)||x||^2 for every point.

    worst_margin is the largest relative defect of ||Ax||^2/(n ||x||^2) from 1.
    """
    _check_eps(eps)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    nx2 = np.vecdot(points, points)
    s2 = _rowwise(lambda x: _sq_norms(sensing.apply(op, x)), points,
                  op.n + op.p) / op.n
    keep = nx2 != 0.0  # a zero point is skipped; a NaN one is kept
    return _finish_report("jle", len(points),
                          *_exceeds((np.abs(s2[keep] / nx2[keep] - 1.0), eps)),
                          {"eps": eps, "n": op.n, "p": op.p})


def wnu_check(op, decoder, nu, eps, pairs, seed):
    """Inner-product bound for W = I - (nu/n) A^T A on range differences:
    |<W x1, x2>| <= (mu1(nu, eps) + WNU_SLACK) ||x1|| ||x2||.

    worst_margin is the smallest remaining slack (negative means violated).
    W is formed once, from A^T A.
    """
    _check_eps(eps)
    bound_coef = solvers.mu1_of(nu, eps) + WNU_SLACK
    w = np.eye(op.p) - (nu / op.n) * _gram(op)

    def margins(xa, xb, xc, xd):  # of each x1 = xa - xb, x2 = xc - xd
        x1, x2 = xa - xb, xc - xd
        return (bound_coef * (_row_norms(x1) * _row_norms(x2))
                - np.abs(np.vecdot(x1 @ w, x2)))

    margin = _range_map(margins, decoder, seed,
                        ("wnu-a", "wnu-b", "wnu-c", "wnu-d"), pairs, op.n)
    return _finish_report("wnu", pairs, ~(margin >= 0),
                          np.min(margin, initial=math.inf),
                          {"nu": nu, "eps": eps, "slack": WNU_SLACK,
                           "n": op.n, "seed": seed})


def polarization_check(op, pairs, seed):
    """x^T A^T A y must equal (||A(x+y)||^2 - ||A(x-y)||^2) / 4 up to
    POLARIZATION_TOL (relative); this is the algebraic identity behind the
    embedding bound."""
    def devs(xy):
        x, y = xy[:, 0], xy[:, 1]
        lhs = np.vecdot(sensing.apply(op, x), sensing.apply(op, y))
        rhs = (_sq_norms(sensing.apply(op, x + y))
               - _sq_norms(sensing.apply(op, x - y))) / 4.0
        return _rel_gap(lhs, rhs)

    # x then y of each pair, in the stream order of one draw at a time
    xy = np.random.default_rng(seed).standard_normal((pairs, 2, op.p))
    dev = _rowwise(devs, xy, 4 * (op.n + op.p))
    return _finish_report("polarization", pairs,
                          *_exceeds((dev, POLARIZATION_TOL)),
                          {"tol": POLARIZATION_TOL, "n": op.n, "p": op.p,
                           "seed": seed})


def mvt_check(op, link, triples, seed):
    """Derivative-bound sandwich for a differentiable link:
    l ||A x1 - A x2|| <= ||f(A x1) - f(A x2)|| <= u ||A x1 - A x2||,
    checked with zero tolerance. worst_margin is the smallest distance to
    either bound (0 when l = u). Triples are multiplied in blocks, as stacks
    of vector products, so the report has the bytes of one triple at a
    time."""
    if not link.differentiable:
        raise UnsupportedOperationError("mvt check needs a differentiable link")
    l, u = link.deriv_lo, link.deriv_hi

    def sides(x):  # (base, mid) of each triple (x1, x2)
        t1, t2 = (sensing._apply_each(op, x[:, i]) for i in (0, 1))
        return np.sqrt(np.stack(
            [_sq_norms(t1 - t2),
             _sq_norms(link_eval(link, t1) - link_eval(link, t2))], axis=-1))

    # x1 then x2 of each triple, in the stream order of one draw at a time
    x = np.random.default_rng(seed).standard_normal((triples, 2, op.p))
    base, mid = _rowwise(sides, x, op.n + op.p).reshape(-1, 2).T
    return _finish_report(
        "mvt", triples, ~((mid >= l * base) & (mid <= u * base)),
        np.min(np.minimum(mid - l * base, u * base - mid), initial=math.inf),
        {"l": l, "u": u, "n": op.n, "seed": seed})


def adjoint_check(op, trials, seed):
    """<A x, v> must match <x, A^T v> to ADJOINT_TOL relative. Each trial
    draws x, then v, from one stream; blocks of trials that hold at most
    CHECK_CELLS floats of x and v (or one trial) are drawn in one call and
    multiplied as stacks of vector products, so the report has the bytes of
    one trial at a time."""
    def devs(block):  # x then v of each trial of a block of trial indices
        xv = rng.standard_normal((len(block), op.p + op.n))
        x, v = xv[:, :op.p], xv[:, op.p:]
        lhs = np.vecdot(sensing._apply_each(op, x), v)
        rhs = np.vecdot(x, sensing._adjoint_each(op, v))
        return _rel_gap(lhs, rhs)

    rng = np.random.default_rng(seed)
    dev = _rowwise(devs, range(trials), op.n + op.p)
    return _finish_report("adjoint", trials, *_exceeds((dev, ADJOINT_TOL)),
                          {"tol": ADJOINT_TOL, "kind": op.kind, "n": op.n,
                           "p": op.p, "seed": seed})


def gradient_check(op, link, decoder, points, seed):
    """Central finite differences against the analytic gradients of both
    losses and against the decoder vjp. One trial per random point; a trial
    fails if, for any compared gradient, the normwise deviation of
    ``_rel_dev`` exceeds its tolerance. Each point draws x, a latent, then v
    from the check's one stream, so the draws do not depend on the blocks.
    Points run in blocks within CHECK_CELLS (stepped points and both losses'
    measurements), as stacks of the one-point products: the report has the
    bytes of one point at a time."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(op.n)

    def devs(block):
        x, z, v = map(np.array, zip(*[
            (rng.standard_normal(op.p),
             genmodel._sample_latents(decoder, rng, 1, 0.9)[0],
             rng.standard_normal(decoder.ambient_dim)) for _ in block]))
        fd = _central_differences(lambda u: _losses(  # one product for all
            op, y, (None, link), u.reshape(-1, op.p)).reshape(len(x), -1, 2),
            x, FD_STEP)
        ax = sensing._apply_each(op, x)  # both gradients from one product
        dev = _rel_dev(fd, np.dstack([
            solvers.grad_glasso(op, y, x, ax),
            solvers.grad_nlasso(op, y, link, x, ax)]))
        hidden = genmodel._forward_cached(decoder, z[:, None])[1]  # 1-row passes
        vjp = (v[:, None] @ genmodel._jacobian_cached(
            decoder, z, [h[:, 0] for h in hidden], each=True))[:, 0]
        vdev = _rel_dev(_central_differences(
            lambda u: (genmodel._forward_cached(decoder, u)[0]
                       @ v[:, :, None])[..., 0], z, VJP_STEP), vjp)
        return np.stack([dev, vdev], axis=-1)

    dev, vdev = _rowwise(devs, range(points),
                         2 * op.p * (op.p + 2 * op.n)).reshape(-1, 2).T
    return _finish_report("gradients", points,
                          *_exceeds((dev, GRADIENT_TOL), (vdev, VJP_TOL)),
                          {"tol": GRADIENT_TOL, "vjp_tol": VJP_TOL, "n": op.n,
                           "p": op.p, "seed": seed})


def _losses(op, y, links, u):
    """(1/2n) ||f(A u_i) - y||^2 for each row u_i of u, one column per link
    f of the tuple links, f the identity where it is None: the losses of
    ``solvers.loss_glasso`` and ``loss_nlasso``, all from one product."""
    def block(rows):
        t = sensing.apply(op, rows)
        return np.stack([_sq_norms((t if f is None else link_eval(f, t)) - y)
                         for f in links], axis=-1)
    return _rowwise(block, u, op.n + op.p) / (2.0 * op.n)


def _central_differences(f, x, h):
    """Central differences with step h at x, or at each row x_i of a stack x,
    of a scalar function that f evaluates at each point of a stack (or of
    several, one column each): all 2 p points, x_i +- h e_j, in one call."""
    steps = h * np.eye(x.shape[-1])
    values = f(x[..., None, :] + np.concatenate([steps, -steps]))
    plus, minus = np.split(values, 2, axis=x.ndim - 1)
    return (plus - minus) / (2 * h)


def _rel_dev(fd, grad):
    """Normwise deviation of central differences fd from the analytic
    gradient grad at each point (axis 0) of a stack, the worst over the
    compared gradients (axis 2, if any): max_j |fd_j - g_j| over
    max(max_j |g_j|, 1e-8), j the coordinates (axis 1). A coordinate-wise
    ratio would divide the differences' round-off, about eps |L| / FD_STEP,
    by a small coordinate and fail correct gradients on some seeds."""
    err = np.max(np.abs(fd - grad), axis=1)
    scale = np.maximum(np.max(np.abs(grad), axis=1), 1e-8)
    return np.max(err / scale, axis=tuple(range(1, err.ndim)))


def contraction_fit(traj, floor):
    """Least-squares slope of log(error_t) over iterations with error above
    the floor. Returns (slope, smallest error seen)."""
    errs = np.asarray(traj.error_to_target, dtype=float)
    if errs.size == 0:
        raise InsufficientDataError("trajectory has no error series")
    mask = errs > floor
    if mask.sum() < 3:
        raise InsufficientDataError("fewer than 3 points above the floor")
    t = np.arange(errs.size)[mask]
    slope = float(np.polyfit(t, np.log(errs[mask]), 1)[0])
    return slope, float(errs.min())


@dataclass(frozen=True)
class TrialSetup:
    """Everything a Monte Carlo trial needs except its size and seed."""
    decoder: object
    link: object
    solver_kind: str                 # one of solvers.KINDS
    solver_cfg: solvers.SolverConfig
    sensing_kind: str = "dense_gaussian"
    observation: str = "auto"        # one of OBSERVATIONS
    delta: float = 1e-3

    def __post_init__(self):
        if self.solver_kind not in solvers.KINDS:
            raise ValueError(f"unknown solver kind {self.solver_kind!r}")
        if self.observation not in OBSERVATIONS:
            raise ValueError(f"unknown observation mode {self.observation!r}")
        if self.solver_kind == "pgd_nlasso" and not self.link.differentiable:
            raise UnsupportedOperationError(
                "pgd_nlasso needs a differentiable link")

    def resolved_observation(self):
        if self.observation != "auto":
            return self.observation
        return "known" if self.solver_kind == "pgd_nlasso" else "sim"

    def matched(self):
        """Whether the solver's theory target is defined for the observation
        model: the signal for pgd_nlasso on known-link data, the
        gain-scaled signal for the unknown-link solvers on sim data."""
        mode = self.resolved_observation()
        return ((mode == "known" and self.solver_kind == "pgd_nlasso")
                or (mode == "sim" and self.solver_kind in ("pgd_glasso", "csgm")))


@dataclass(frozen=True)
class TrialRecord:
    n: int
    seed: int
    error: float        # l2 distance to the solver's theory target
    cosine: float       # cosine similarity to the planted signal
    loss: float


@dataclass(frozen=True)
class SolveResult:
    op: object
    x_hat: np.ndarray
    trajectory: object
    record: TrialRecord


def solve_instance(setup, n, seed):
    """One independent draw of (operator, signal, noise) plus a solve.

    The error target follows the solver's theory: the gain-scaled signal for
    the unknown-link solvers, the signal itself for the known-link solver.
    For mismatched solver/observation combinations the l2 error is undefined
    (nan) and only the cosine metric is meaningful.
    """
    return _solve_seeds(setup, n, [seed])[0]


def run_trials(setup, n, seeds):
    """TrialRecords of independent instance draws at n, one per seed.

    The trials are solved in lockstep as one group; each record matches the
    record of its own ``solve_instance`` to round-off.
    """
    return [res.record for res in _solve_seeds(setup, n, seeds)]


def _solve_seeds(setup, n, seeds):
    """SolveResults of the instances drawn from seeds, solved as one group."""
    draws = [_draw_instance(setup, n, seed) for seed in seeds]
    solved = solvers._solve_group(
        setup.solver_kind, [op for op, *_ in draws],
        [y for _, y, *_ in draws], setup.link, setup.decoder,
        setup.solver_cfg, [derive_seed(seed, "solver") for seed in seeds],
        [target for *_, target in draws])
    results = []
    for seed, (op, _, x_star, target), (x_hat, traj) in zip(seeds, draws,
                                                              solved):
        error = (float("nan") if target is None
                 else float(np.linalg.norm(x_hat - target)))
        cos = (cosine_similarity(x_star, x_hat)
               if np.linalg.norm(x_hat) > 0 else float("nan"))
        rec = TrialRecord(int(n), int(seed), error, cos, traj.loss_values[-1])
        results.append(SolveResult(op, x_hat, traj, rec))
    return results


def _draw_instance(setup, n, seed):
    """The operator, measurements, signal x* and error target of one seed.

    Both observation models plant x* = G(z*) at the latent z* of
    ``derive_seed(seed, "signal")`` and reject a G(z*) that is zero or has
    no finite norm. The target of known mode is x*. Sim mode scales x* to
    unit norm, as the link hides its scale, and targets mu x*. A rescaled
    t x*, t >= 0, lies in the decoder range exactly when the decoder is
    positively homogeneous (linear, or relu with its zero biases) and
    t z* / ||G(z*)|| stays in the latent ball. Tanh decoders are not: on
    those measured, the median relative distance from mu x* to G(B_2^k(r))
    was 0.17 to 0.45, a representation error at which sim-mode errors
    floor. A solver that does not match the observation model
    (``TrialSetup.matched``) has the target None.
    """
    decoder, link = setup.decoder, setup.link
    op = sensing.sensing_new(setup.sensing_kind, n, decoder.ambient_dim,
                             derive_seed(seed, "sensing"))
    with np.errstate(all="ignore"):  # a non-finite norm is reported below
        x_star = genmodel.forward(decoder, genmodel.sample_latent(
            decoder, derive_seed(seed, "signal")))
        norm = np.linalg.norm(x_star)
    if norm == 0.0:
        raise ValueError("decoder output at the planted latent is zero")
    if not np.isfinite(norm):
        raise ValueError("decoder output at the planted latent has no finite "
                         "norm")
    if setup.resolved_observation() == "sim":
        x_star = x_star / norm
        y = observe_sim(link, op, x_star, derive_seed(seed, "observe"))
        target = link.mu * x_star
    else:
        y = observe_known(link, op, x_star, derive_seed(seed, "observe"))
        target = x_star
    return op, y, x_star, target if setup.matched() else None


@dataclass(frozen=True)
class RateRow:
    n: int
    trials: int
    median_error: float
    q25: float
    q75: float
    predicted: float


@dataclass(frozen=True)
class RateTable:
    rows: tuple
    fitted_constant: float
    k: int
    p: int
    lipschitz: float
    r: float
    delta: float
    link_kind: str
    solver_kind: str


def rate_experiment(grid, trials, setup, seed, threads=1):
    """Median recovery error across a grid of measurement counts.

    Each grid point runs ``trials`` independent draws; medians are fitted
    against c * sqrt(k log(L r / delta) / n) by least squares. The trials of
    a grid point run in lockstep groups of consecutive seeds (see
    ``_split_trials``). Up to ``threads`` forked workers take whole groups,
    at most one per group and one per CPU; one worker runs in-process. The
    split does not depend on ``threads`` and aggregation folds trials in
    seed order, so the output is independent of scheduling.
    """
    grid = sorted(int(n) for n in set(grid))
    if len(grid) < 1:
        raise ValueError("grid must be nonempty")
    if trials < 10:
        raise ValueError("need at least 10 trials per grid point")
    for n in grid:
        _check_n(n, setup.sensing_kind, setup.decoder.ambient_dim, "grid")
    if not setup.matched():
        raise ValueError("rate experiment needs a solver matching the "
                         "observation model so the error target is defined")
    decoder = setup.decoder
    log_term = _log_lr_over_delta(decoder, setup.delta)
    jobs = []
    for n in grid:
        dense = setup.sensing_kind == "dense_gaussian"
        cells = n * decoder.ambient_dim if dense else 0
        seeds = [derive_seed(seed, f"rate-n{n}", i) for i in range(trials)]
        jobs += [(setup, n, group) for group in _split_trials(seeds, cells)]
    # workers inherit the parent's pin, which needs fork: forkserver (the
    # Linux default from Python 3.14) would start them at the host's count
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    with _one_blas_thread():
        if workers > 1:
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor
            fork = "fork" if "fork" in mp.get_all_start_methods() else None
            with ProcessPoolExecutor(workers, mp.get_context(fork)) as ex:
                groups = list(ex.map(_run_trials_star, jobs, chunksize=1))
        else:
            groups = [run_trials(*j) for j in jobs]
    records = [rec for group in groups for rec in group]
    scale = math.sqrt(decoder.latent_dim * log_term)
    errs = np.reshape([r.error for r in records], (len(grid), trials))
    m = np.median(errs, axis=1)  # the 0.5 quantile rounds it differently
    q25, q75 = np.quantile(errs, [0.25, 0.75], axis=1)
    s = np.asarray([scale / math.sqrt(n) for n in grid])
    c = float(m @ s / (s @ s))
    rows = tuple(RateRow(n, trials, *map(float, row))
                 for n, *row in zip(grid, m, q25, q75, c * s))
    return RateTable(rows, c, decoder.latent_dim, decoder.ambient_dim,
                     decoder.lipschitz, decoder.latent_radius, setup.delta,
                     setup.link.kind, setup.solver_kind)


def _log_lr_over_delta(decoder, delta):
    """log(L r / delta) of the rate sqrt(k log(L r / delta) / n), for the
    decoder's L and r; delta must lie in (0, L r), so the log is positive."""
    lr = decoder.lipschitz * decoder.latent_radius
    if not 0 < delta < lr:
        raise ValueError(f"delta must be in (0, L r) = (0, {lr:.6g}), "
                         f"got {delta}")
    return math.log(lr / delta)


def _check_n(n, kind, p, key):
    """Reject, before any draw, a measurement count n outside [1, N_CAP],
    above p for partial_circulant, or above DENSE_CAP // p for
    dense_gaussian; the message names the key."""
    cap = min(N_CAP, p if kind == "partial_circulant" else DENSE_CAP // p)
    if not 1 <= n <= cap:
        raise ValueError(f"{key}: need 1 <= n <= {cap}, got {n}")


def _split_trials(seeds, cells):
    """Consecutive groups of near-equal size, in seed order, each holding at
    most OPERATOR_BUDGET dense operator cells (``cells`` per trial; 0 for an
    operator of size O(p), whose seeds form one group)."""
    per_group = max(1, OPERATOR_BUDGET // cells) if cells else len(seeds)
    count = -(-len(seeds) // per_group)
    size, extra = divmod(len(seeds), count)
    bounds = np.cumsum([0] + [size + (i < extra) for i in range(count)])
    return [seeds[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _run_trials_star(job):
    """run_trials(*job), for a worker pool's map."""
    return run_trials(*job)


@contextlib.contextmanager
def _one_blas_thread():
    """Every loaded OpenBLAS at one thread inside the block, and at the
    count it had on leaving, also when the block raises. OpenBLAS rounds
    differently at different thread counts, and forked workers that each
    run several BLAS threads oversubscribe the cores. An OpenBLAS already
    at one thread is left alone, neither set nor restored: a forked worker
    inherits the parent's pin and must not set the count, because the
    first set after a fork, even to 1, restarts OpenBLAS's thread pool,
    whose new helper busy-waits on a core for about 128 ms."""
    blas = [(count, put) for get, put in _openblas() if (count := get()) != 1]
    for _, put in blas:
        put(1)
    try:
        yield
    finally:
        for count, put in blas:
            put(count)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of each OpenBLAS listed in
    /proc/self/maps; empty where none is listed or the file is missing."""
    try:
        with open("/proc/self/maps") as fh:
            libs = [ctypes.CDLL(path) for path in sorted(
                {ln.split(None, 5)[-1].strip() for ln in fh if "openblas" in ln})]
    except OSError:  # not Linux, or a mapping marked "(deleted)"
        return ()
    names = (("scipy_openblas_", "_num_threads64_"), ("openblas_", "_num_threads"))
    return tuple((getattr(lib, pre + "get" + suf), getattr(lib, pre + "set" + suf))
                 for lib in libs for pre, suf in names
                 if hasattr(lib, pre + "get" + suf))
