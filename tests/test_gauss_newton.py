"""The Gauss-Newton latent projection, the only latent descent.

Its Jacobian against finite differences, its exactness where the projection
has a closed form, its feasibility, the independence of the rows of a batch,
and how few steps a warm-started projection takes inside PGD.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genprior import (analysis, genmodel, measurement, projection, sensing,
                      solvers)
from genprior.projection import ProjectionConfig
from genprior.solvers import SolverConfig


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
@pytest.mark.parametrize("hidden", [[], [7], [6, 5]])
@pytest.mark.parametrize("batch", [1, 2, 3])
def test_jacobian_matches_central_differences(activation, hidden, batch):
    dec = genmodel.decoder_new(3, 4, hidden, 11, 2.0, activation, 1.0)
    z = np.random.default_rng(batch).standard_normal((batch, 4))
    fz, cache = genmodel._forward_cached(dec, z)
    jac = genmodel._jacobian_cached(dec, z, cache)
    assert jac.shape == (batch, 11, 4)
    h = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd = (genmodel._forward_cached(dec, z + e)[0]
              - genmodel._forward_cached(dec, z - e)[0]) / (2 * h)
        assert np.max(np.abs(fd - jac[:, :, j])) <= 1e-8


def _targets(dec, rng):
    """An interior target (its exact projection inside the ball) and a
    boundary one (outside the range, beyond the ball)."""
    w = dec.layers[0][0]
    z = rng.standard_normal(dec.latent_dim)
    noise = rng.standard_normal(dec.ambient_dim)
    noise -= w @ (w.T @ noise)
    return (w @ (0.8 * dec.latent_radius * z / np.linalg.norm(z)) + noise,
            w @ (3.0 * dec.latent_radius * z / np.linalg.norm(z)) + noise)


@pytest.mark.parametrize("start", ["zero", "gaussian"])
def test_default_projection_is_exact_on_orthonormal_linear(start):
    dec = genmodel.orthonormal_linear_decoder(3, 4, 24, 1.5)
    rng = np.random.default_rng(5)
    warm = np.zeros(dec.latent_dim) if start == "zero" else None
    for i in range(10):
        for x in _targets(dec, rng):
            got = projection.project(dec, x, ProjectionConfig(), seed=i,
                                     warm_start=warm)
            exact = oracles.project_exact_linear(dec, x)
            assert np.max(np.abs(got.z_hat - exact.z_hat)) <= 1e-12
            assert abs(got.residual - exact.residual) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), k=st.integers(1, 8),
       extra=st.integers(0, 72), r=st.floats(0.1, 5.0),
       reach=st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 100.0)),
       noise=st.floats(0.0, 50.0), restarts=st.integers(1, 3))
def test_default_projection_matches_the_closed_form(seed, k, extra, r, reach,
                                                    noise, restarts):
    # the invariant that leaves one projection: where J^T J = I the default
    # descent lands on the exact projection, whether the target's latent
    # W^T x lies inside the ball (reach < 1) or far outside it
    dec = genmodel.orthonormal_linear_decoder(seed, k, k + extra, r)
    w = dec.layers[0][0]
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(k)
    off = rng.standard_normal(dec.ambient_dim)
    off -= w @ (w.T @ off)
    x = w @ (reach * r * z / np.linalg.norm(z)) + noise * off
    got = projection.project(dec, x, ProjectionConfig(restarts=restarts), seed)
    exact = oracles.project_exact_linear(dec, x)
    assert np.max(np.abs(got.z_hat - exact.z_hat)) <= 1e-10
    assert np.max(np.abs(got.x_hat - exact.x_hat)) <= 1e-10
    assert abs(got.residual - exact.residual) <= 1e-10 * max(
        1.0, exact.residual)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), k=st.integers(1, 5),
       activation=st.sampled_from(genmodel.ACTIVATIONS),
       restarts=st.integers(1, 3), scale=st.floats(0.1, 50.0),
       warm=st.booleans())
def test_result_stays_in_ball(seed, k, activation, restarts, scale, warm):
    dec = genmodel.decoder_new(seed, k, [6], 9, 1.0, activation, 1.0)
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((2, dec.ambient_dim))
    warms = [scale * rng.standard_normal(k) if warm else None, None]
    cfg = ProjectionConfig(restarts=restarts)
    start = projection._start_latents(dec, cfg, [seed, seed + 1], "restart",
                                      warms)
    ends, best, _ = projection._project_rows(dec, x, cfg, start)
    for z_hat in ends.z[best]:
        assert np.linalg.norm(z_hat) <= dec.latent_radius + 1e-12


def test_nan_target_row_freezes_and_leaves_the_others_alone():
    dec = genmodel.decoder_new(31, 3, [12], 20, 1.5, "tanh", 1.0)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, dec.ambient_dim))
    x[1] = np.nan
    cfg = ProjectionConfig(restarts=2)
    start = projection._start_latents(dec, cfg, [4, 5, 6], "restart",
                                      [None] * 3)
    ends, best, oob = projection._project_rows(dec, x, cfg, start)
    assert np.array_equal(ends.z[best[1]], start[2])
    assert oob[best[1]] == 0 and np.isnan(
        np.linalg.norm(ends.fz[best[1]] - x[1]))
    for t in (0, 2):
        solo = projection.project(dec, x[t], cfg, seed=4 + t)
        assert np.max(np.abs(ends.z[best[t]] - solo.z_hat)) <= 1e-10
        assert best[t] - t * cfg.restarts == solo.restart_index


@pytest.mark.parametrize("restarts", [1, 2])
def test_batch_with_no_finite_row_returns_its_starts(restarts):
    # no row starts, so no Jacobian is taken of an empty batch
    dec = genmodel.decoder_new(101, 8, [32], 256, 3.0)
    cfg = ProjectionConfig(restarts=restarts)
    res = projection.project(dec, np.full(256, np.nan), cfg, 0)
    start = projection._start_latents(dec, cfg, [0], "restart", [None])
    assert np.array_equal(res.z_hat, start[0])
    assert res.restart_index == 0 and res.out_of_ball_steps == 0
    assert np.isnan(res.residual)


def test_csgm_with_no_finite_row_returns_its_start():
    dec = genmodel.decoder_new(31, 3, [12], 20, 1.5, "tanh", 1.0)
    op = sensing.sensing_new("dense_gaussian", 12, dec.ambient_dim, 5)
    cfg = SolverConfig(step_size=1.0, iterations=1,
                       projection=ProjectionConfig(restarts=2))
    z0 = np.full(dec.latent_dim, 0.5)
    x_hat, traj = solvers.csgm_baseline(op, np.full(op.n, np.nan), dec, cfg,
                                        warm_start=z0)
    # the output of z0 as decoded with the other restart's start
    starts = projection._start_latents(dec, cfg.projection, [cfg.seed],
                                       "csgm-restart", [z0])
    assert np.array_equal(x_hat, genmodel._forward_cached(dec, starts)[0][0])
    assert len(traj.loss_values) == 1 and np.isnan(traj.loss_values[0])


def test_singular_jacobian_takes_no_step():
    # relu at z = 0 has J = 0, so M = 0: the row is stationary, as it is
    # for gradient descent, and the solve divides by no zero
    dec = genmodel.decoder_new(1, 3, [8], 12, 1.0, "relu", 1.0)
    x = np.random.default_rng(0).standard_normal(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = projection.project(dec, x, ProjectionConfig(), 0,
                                 warm_start=np.zeros(3))
    assert np.array_equal(res.z_hat, np.zeros(3))


def test_converged_row_stops_after_one_step(monkeypatch):
    # started at its exact projection, a row's first step moves nothing,
    # and no rejected step follows it
    dec = genmodel.orthonormal_linear_decoder(3, 4, 24, 1.5)
    for x in _targets(dec, np.random.default_rng(8)):
        exact = oracles.project_exact_linear(dec, x)
        calls = []
        real = genmodel._forward_cached
        monkeypatch.setattr(genmodel, "_forward_cached",
                            lambda d, z: calls.append(z) or real(d, z))
        got = projection.project(dec, x, ProjectionConfig(), seed=0,
                                 warm_start=exact.z_hat)
        monkeypatch.undo()
        assert np.max(np.abs(got.z_hat - exact.z_hat)) <= 1e-15
        assert len(calls) == 2  # start and one step; x_hat is the last


def test_csgm_trajectory_is_its_accepted_iterates():
    # every recorded loss lowers the one before it, and the last is the
    # loss of the returned point
    dec = genmodel.decoder_new(9, 3, [8], 24, 1.5, "tanh", 1.0)
    op = sensing.sensing_new("dense_gaussian", 12, 24, 1)
    y = np.random.default_rng(2).standard_normal(12)
    cfg = SolverConfig(step_size=1.0, iterations=1, seed=1,
                       projection=ProjectionConfig(restarts=2))
    x_hat, traj = solvers.csgm_baseline(op, y, dec, cfg)
    assert len(traj.loss_values) >= 2
    assert np.all(np.diff(traj.loss_values) < 0)
    last = solvers.loss_glasso(op, y, x_hat)
    assert abs(traj.loss_values[-1] - last) <= 1e-12


# Proof run at the acceptance decoder, seeds 0-4: the median was 1 step
# per warm-started projection (mean 1.4 to 1.5 over 30 projections; 1.72
# over the ones run before PGD stops at its fixed point).
MAX_MEDIAN_STEPS = 2


def test_warm_started_projection_takes_few_steps(monkeypatch):
    # one restart, so every projection after the first starts where the
    # last ended; a step is a decoder evaluation other than the first
    # projection's decode of its start, and the Jacobian, evaluated at a
    # start that carries none and after each step that makes progress (not
    # after the last), shows that the steps are Gauss-Newton steps
    steps, jacobians, inside = [], [], []
    descend = projection._descend
    forward, jacobian = genmodel._forward_cached, genmodel._jacobian_cached

    def spy_descend(*args):
        # a chain's start is not decoded again: every forward is a step
        steps.append(0 if isinstance(args[2], projection._Points) else -1)
        jacobians.append(0)
        inside.append(True)
        try:
            return descend(*args)
        finally:
            inside.pop()

    def spy_forward(*args):
        if inside:
            steps[-1] += 1
        return forward(*args)

    def spy_jacobian(*args):
        jacobians[-1] += 1
        return jacobian(*args)

    monkeypatch.setattr(projection, "_descend", spy_descend)
    monkeypatch.setattr(genmodel, "_forward_cached", spy_forward)
    monkeypatch.setattr(genmodel, "_jacobian_cached", spy_jacobian)
    dec = genmodel.decoder_new(101, 8, [32], 256, 3.0, "tanh", 1.0)
    cfg = SolverConfig(step_size=solvers.ZETA_THEORY, iterations=30,
                       projection=ProjectionConfig(steps=200, restarts=1),
                       x0_mode="zero")
    setup = analysis.TrialSetup(
        decoder=dec, link=measurement.shifted_cosine_link(sigma=0.1),
        solver_kind="pgd_nlasso", solver_cfg=cfg)
    analysis.solve_instance(setup, 250, 0)
    assert 1 < len(steps) <= 30 and jacobians[0] >= 1
    assert all(j <= s for s, j in zip(steps, jacobians))
    assert np.median(steps[1:]) <= MAX_MEDIAN_STEPS


@pytest.mark.parametrize("restarts", [1, 2])
def test_pgd_evaluates_each_latent_once(monkeypatch, restarts):
    # a restart chain starts each projection with the decoder output and
    # hidden activations it ended the last one with, x_hat is the output
    # the descent ended with, and PGD stops projecting at a fixed point:
    # only the first projection's starts and the Gauss-Newton steps are
    # decoded, and no latent twice. A latent is differentiated at each
    # refresh that includes it; in this solve no chain carries a latent it
    # differentiated into a later projection, so none is differentiated
    # twice
    forwards, jacobians, evaluated, calls = [], [], [], []
    forward, jacobian = genmodel._forward_cached, genmodel._jacobian_cached
    descend, project_rows = projection._descend, projection._project_rows

    def spy_forward(decoder, z):
        forwards.extend(row.tobytes() for row in z)
        return forward(decoder, z)

    def spy_jacobian(decoder, z, hidden):
        jacobians.extend(row.tobytes() for row in z)
        return jacobian(decoder, z, hidden)

    def spy_descend(decoder, cfg, start, objective, *args):
        def counted(fz, rows):
            evaluated.append(len(rows))
            return objective(fz, rows)
        return descend(decoder, cfg, start, counted, *args)

    def spy_project_rows(*args):
        ends, best, oob = project_rows(*args)  # copies: later calls move ends
        calls.append((args, list(zip(ends.z[best], ends.fz[best]))))
        return ends, best, oob

    dec = genmodel.decoder_new(101, 8, [32], 256, 3.0, "tanh", 1.0)
    op = sensing.sensing_new("dense_gaussian", 250, 256, 3)
    x_star = genmodel.forward(dec, genmodel.sample_latent(dec, 4))
    y = np.sign(sensing.apply(op, x_star))
    cfg = SolverConfig(step_size=1.0, iterations=30, seed=5,
                       projection=ProjectionConfig(restarts=restarts))
    monkeypatch.setattr(genmodel, "_forward_cached", spy_forward)
    monkeypatch.setattr(genmodel, "_jacobian_cached", spy_jacobian)
    monkeypatch.setattr(projection, "_descend", spy_descend)
    monkeypatch.setattr(projection, "_project_rows", spy_project_rows)
    x_hat, traj = solvers.pgd_glasso(op, y, dec, cfg, target=x_star)
    monkeypatch.undo()
    assert len(set(forwards)) == len(forwards)
    assert len(set(jacobians)) == len(jacobians) > 0
    # every projection evaluates its restarts' starts, then one row per step
    steps = sum(evaluated) - len(calls) * restarts
    assert len(forwards) == restarts + steps
    if restarts == 1:
        for _, [(z_hat, x_proj)] in calls:
            assert np.array_equal(x_proj, genmodel.forward(dec, z_hat))
    # the solve stopped at a fixed point: its last projection, run again
    # from where it left its chains, moves nothing, and the trajectory
    # repeats its record to the end
    assert 1 < len(calls) < 30 and len(traj.loss_values) == 31
    (_, v, pcfg, chains), last = calls[-1]
    ends = chains.z.copy()
    moved, best, _ = project_rows(dec, v, pcfg, chains)
    assert np.array_equal(moved.z, ends)
    assert np.array_equal(moved.fz[best[0]], last[0][1])
    assert np.array_equal(x_hat, last[0][1])
    for series in (traj.loss_values, traj.error_to_target):
        assert len(set(series[len(calls) - 1:])) == 1
