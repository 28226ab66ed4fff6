"""The batched latent-descent kernel against a serial reference.

The reference below is the one-restart-at-a-time, one-vector-at-a-time
descent that ``project`` and ``csgm_baseline`` ran before the kernel: it
calls the public single-vector ``forward`` and ``vjp`` and keeps its own
GD/momentum/Adam update, ball handling and best-seen tracking. Batched gemm
and serial gemv round differently, so agreement is asserted to 1e-10, not
bitwise. The descents stop well short of convergence: near a minimizer the
residual changes by less than its rounding from step to step, and best-seen
tracking then chooses between near-tied points by round-off.
"""

import itertools

import numpy as np
import pytest

from genprior import genmodel, projection, sensing, solvers
from genprior.projection import ProjectionConfig
from genprior.seeding import derive_seed
from genprior.solvers import SolverConfig

TOL = 1e-10


def _clip_ball(z, r):
    nrm = np.linalg.norm(z)
    if nrm > r:
        return z * (r / nrm)
    return z


def _start(decoder, cfg, seed, label, i, warm_start):
    rng = np.random.default_rng(derive_seed(seed, label, i))
    if i == 0 and warm_start is not None:
        z0 = np.asarray(warm_start, dtype=float).copy()
    elif cfg.init == "zero":
        z0 = np.zeros(decoder.latent_dim)
    else:
        z0 = rng.standard_normal(decoder.latent_dim)
    return _clip_ball(z0, decoder.latent_radius)


def _step(cfg, z, grad, m, v, t):
    if cfg.optimizer == "gradient_descent":
        return z - cfg.learning_rate * grad, m, v
    if cfg.optimizer == "momentum":
        m = projection.MOMENTUM_BETA * m + grad
        return z - cfg.learning_rate * m, m, v
    b1, b2, eps = projection.ADAM_BETA1, projection.ADAM_BETA2, projection.ADAM_EPS
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * grad * grad
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    return z - cfg.learning_rate * mhat / (np.sqrt(vhat) + eps), m, v


def serial_descend(decoder, x, cfg, z0):
    r = decoder.latent_radius
    each_step = cfg.ball_handling == "project_each_step"
    z = z0
    fz = genmodel.forward(decoder, z)
    best_z, best_res = z.copy(), float(np.linalg.norm(fz - x))
    m = np.zeros_like(z)
    v = np.zeros_like(z)
    oob = 0
    for t in range(1, cfg.steps + 1):
        grad = genmodel.vjp(decoder, z, fz - x)
        z, m, v = _step(cfg, z, grad, m, v, t)
        if np.linalg.norm(z) > r:
            oob += 1
            if each_step:
                z = _clip_ball(z, r)
        fz = genmodel.forward(decoder, z)
        if each_step:
            res = float(np.linalg.norm(fz - x))
            if res < best_res:
                best_z, best_res = z.copy(), res
    if not each_step:
        z = _clip_ball(z, r)
        res = float(np.linalg.norm(genmodel.forward(decoder, z) - x))
        if res < best_res:
            best_z, best_res = z.copy(), res
    return best_z, best_res, oob


def serial_project(decoder, x, cfg, seed, warm_start=None):
    best = None
    for i in range(cfg.restarts):
        z0 = _start(decoder, cfg, seed, "restart", i, warm_start)
        z, res, oob = serial_descend(decoder, x, cfg, z0)
        if best is None or res < best[1]:
            best = (z, res, oob, i)
    return best


def serial_csgm_descent(op, y, decoder, cfg, z0, target):
    r = decoder.latent_radius
    each_step = cfg.ball_handling == "project_each_step"
    z = z0
    traj = solvers.Trajectory()

    def note(xv, loss):
        traj.loss_values.append(loss)
        if target is not None:
            traj.error_to_target.append(float(np.linalg.norm(xv - target)))

    fz = genmodel.forward(decoder, z)
    cur = solvers.loss_glasso(op, y, fz)
    best_z, best_loss = z.copy(), cur
    note(fz, cur)
    m = np.zeros_like(z)
    v = np.zeros_like(z)
    for t in range(1, cfg.steps + 1):
        grad = genmodel.vjp(
            decoder, z, sensing.adjoint_apply(op, sensing.apply(op, fz) - y) / op.n)
        z, m, v = _step(cfg, z, grad, m, v, t)
        if each_step:
            z = _clip_ball(z, r)
        fz = genmodel.forward(decoder, z)
        cur = solvers.loss_glasso(op, y, fz)
        if each_step and cur < best_loss:
            best_z, best_loss = z.copy(), cur
        note(fz, cur)
    if not each_step:
        z = _clip_ball(z, r)
        cur = solvers.loss_glasso(op, y, genmodel.forward(decoder, z))
        if cur < best_loss:
            best_z, best_loss = z.copy(), cur
    return best_z, best_loss, traj


def serial_csgm(op, y, decoder, cfg, target=None, warm_start=None):
    best = None
    for i in range(cfg.projection.restarts):
        z0 = _start(decoder, cfg.projection, cfg.seed, "csgm-restart", i,
                    warm_start)
        run = serial_csgm_descent(op, y, decoder, cfg.projection, z0, target)
        if best is None or run[1] < best[1]:
            best = run
    return best


GRID = list(itertools.product(
    ("gradient_descent", "momentum", "adam_style"),
    ("project_each_step", "project_at_end"),
    ("tanh", "relu", "identity")))

LEARNING_RATE = {"gradient_descent": 0.03, "momentum": 0.02, "adam_style": 0.05}


def _decoder(activation):
    return genmodel.decoder_new(31, 3, [12], 20, 1.0, activation, 1.0)


@pytest.mark.parametrize("optimizer,ball,activation", GRID)
def test_project_matches_serial_reference(optimizer, ball, activation):
    dec = _decoder(activation)
    rng = np.random.default_rng(7)
    oob_seen = 0
    for restarts in (1, 2, 3):
        cfg = ProjectionConfig(steps=15, learning_rate=LEARNING_RATE[optimizer],
                               restarts=restarts, optimizer=optimizer,
                               ball_handling=ball)
        # the warm start sits on the sphere and the target lies beyond it,
        # so the warm descent pushes against the ball
        edge = rng.standard_normal(dec.latent_dim)
        edge /= np.linalg.norm(edge)
        x = (genmodel.forward(dec, 2.0 * edge)
             + 0.3 * rng.standard_normal(dec.ambient_dim))
        for warm in (None, edge):
            got = projection.project(dec, x, cfg, seed=restarts, warm_start=warm)
            z, _, oob, idx = serial_project(dec, x, cfg, restarts, warm)
            assert np.max(np.abs(got.z_hat - z)) <= TOL
            assert got.restart_index == idx
            assert got.out_of_ball_steps == oob
            oob_seen += oob
    assert oob_seen > 0


@pytest.mark.parametrize("optimizer,ball,activation", GRID)
def test_csgm_matches_serial_reference(optimizer, ball, activation):
    dec = _decoder(activation)
    op = sensing.sensing_new("dense_gaussian", 12, dec.ambient_dim, 5)
    rng = np.random.default_rng(11)
    for restarts in (1, 2, 3):
        pcfg = ProjectionConfig(steps=15,
                                learning_rate=LEARNING_RATE[optimizer],
                                restarts=restarts, optimizer=optimizer,
                                ball_handling=ball)
        cfg = SolverConfig(step_size=1.0, iterations=1, projection=pcfg,
                           seed=restarts)
        y = 2.0 * rng.standard_normal(op.n)
        target = rng.standard_normal(dec.ambient_dim)
        for warm in (None, 0.8 * rng.standard_normal(dec.latent_dim)):
            x_hat, traj = solvers.csgm_baseline(op, y, dec, cfg, target, warm)
            z, _, ref = serial_csgm(op, y, dec, cfg, target, warm)
            assert np.max(np.abs(x_hat - genmodel.forward(dec, z))) <= TOL
            assert len(traj.loss_values) == pcfg.steps + 1
            np.testing.assert_allclose(traj.loss_values, ref.loss_values,
                                       rtol=0, atol=TOL)
            np.testing.assert_allclose(traj.error_to_target,
                                       ref.error_to_target, rtol=0, atol=TOL)


def check_nan_warm_start_projection(optimizer):
    dec = _decoder("tanh")
    x = np.random.default_rng(3).standard_normal(dec.ambient_dim)
    cfg = ProjectionConfig(steps=20, restarts=2, optimizer=optimizer)
    res = projection.project(dec, x, cfg, seed=0,
                             warm_start=np.full(dec.latent_dim, np.nan))
    assert res.restart_index == 1
    assert np.all(np.isfinite(res.z_hat)) and np.isfinite(res.residual)


def check_nan_warm_start_csgm(optimizer):
    dec = _decoder("tanh")
    op = sensing.sensing_new("dense_gaussian", 12, dec.ambient_dim, 5)
    y = np.random.default_rng(4).standard_normal(op.n)
    cfg = SolverConfig(step_size=1.0, iterations=1,
                       projection=ProjectionConfig(steps=20, restarts=2,
                                                   optimizer=optimizer))
    x_hat, traj = solvers.csgm_baseline(
        op, y, dec, cfg, warm_start=np.full(dec.latent_dim, np.nan))
    assert np.all(np.isfinite(x_hat))
    assert np.all(np.isfinite(traj.loss_values))


# at the default optimizer, gauss_newton, and under their own names at
# adam_style, so a failure names its optimizer
def test_nan_warm_start_never_wins_projection():
    check_nan_warm_start_projection("gauss_newton")


def test_nan_warm_start_never_wins_projection_adam_style():
    check_nan_warm_start_projection("adam_style")


def test_nan_warm_start_never_wins_csgm():
    check_nan_warm_start_csgm("gauss_newton")


def test_nan_warm_start_never_wins_csgm_adam_style():
    check_nan_warm_start_csgm("adam_style")


def test_first_min_ranks_non_finite_last():
    first = projection._first_min
    assert first(np.array([np.nan, 2.0, 1.0])) == 2
    assert first(np.array([np.inf, -np.inf, 3.0])) == 2
    assert first(np.array([1.0, 1.0])) == 0
    assert first(np.array([np.nan, np.nan])) == 0
    cols = first(np.array([[np.nan, 5.0], [1.0, 5.0], [1.0, 4.0]]), axis=0)
    assert list(cols) == [1, 2]
