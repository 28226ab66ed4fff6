"""The Gauss-Newton latent projection, the only latent descent.

Its Jacobian against finite differences, its exactness where the projection
has a closed form, its feasibility, the independence of the rows of a batch,
and how few steps a warm-started projection takes inside PGD.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("init", ["zero", "gaussian"])
def test_default_projection_is_exact_on_orthonormal_linear(init):
    dec = genmodel.orthonormal_linear_decoder(3, 4, 24, 1.5)
    rng = np.random.default_rng(5)
    cfg = ProjectionConfig(init=init)
    for i in range(10):
        for x in _targets(dec, rng):
            got = projection.project(dec, x, cfg, seed=i)
            exact = projection.project_exact_linear(dec, x)
            assert np.max(np.abs(got.z_hat - exact.z_hat)) <= 1e-12
            assert abs(got.residual - exact.residual) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), k=st.integers(1, 5),
       activation=st.sampled_from(genmodel.ACTIVATIONS),
       ball=st.sampled_from(projection.BALL_HANDLING),
       restarts=st.integers(1, 3), scale=st.floats(0.1, 50.0),
       warm=st.booleans())
def test_result_stays_in_ball(seed, k, activation, ball, restarts, scale,
                              warm):
    dec = genmodel.decoder_new(seed, k, [6], 9, 1.0, activation, 1.0)
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((2, dec.ambient_dim))
    warms = [scale * rng.standard_normal(k) if warm else None, None]
    cfg = ProjectionConfig(restarts=restarts, ball_handling=ball)
    for res in projection._project_rows(dec, x, cfg, [seed, seed + 1], warms):
        assert np.linalg.norm(res.z_hat) <= dec.latent_radius + 1e-12


def test_nan_target_row_freezes_and_leaves_the_others_alone():
    dec = genmodel.decoder_new(31, 3, [12], 20, 1.5, "tanh", 1.0)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, dec.ambient_dim))
    x[1] = np.nan
    cfg = ProjectionConfig(restarts=2)
    got = projection._project_rows(dec, x, cfg, [4, 5, 6], [None] * 3)
    start = projection._start_latents(dec, cfg, 5, "restart", None)
    assert np.array_equal(got[1].z_hat, start[0])
    assert got[1].out_of_ball_steps == 0 and np.isnan(got[1].residual)
    for t in (0, 2):
        solo = projection.project(dec, x[t], cfg, seed=4 + t)
        assert np.max(np.abs(got[t].z_hat - solo.z_hat)) <= 1e-10
        assert got[t].restart_index == solo.restart_index


def test_singular_jacobian_takes_no_step():
    # relu at z = 0 has J = 0, so M = 0: the row is stationary, as it is
    # for gradient descent, and the solve divides by no zero
    dec = genmodel.decoder_new(1, 3, [8], 12, 1.0, "relu", 1.0)
    x = np.random.default_rng(0).standard_normal(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = projection.project(dec, x, ProjectionConfig(init="zero"), 0)
    assert np.array_equal(res.z_hat, np.zeros(3))


def test_converged_row_stops_after_one_step(monkeypatch):
    # started at its exact projection, a row's first step moves nothing,
    # and no rejected step follows it
    dec = genmodel.orthonormal_linear_decoder(3, 4, 24, 1.5)
    for x in _targets(dec, np.random.default_rng(8)):
        exact = projection.project_exact_linear(dec, x)
        calls = []
        real = genmodel._forward_cached
        monkeypatch.setattr(genmodel, "_forward_cached",
                            lambda d, z: calls.append(z) or real(d, z))
        got = projection.project(dec, x, ProjectionConfig(), seed=0,
                                 warm_start=exact.z_hat)
        monkeypatch.undo()
        assert np.max(np.abs(got.z_hat - exact.z_hat)) <= 1e-15
        assert len(calls) == 3  # start, one step, the returned x_hat


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
# per warm-started projection (mean 1.4 to 1.5).
MAX_MEDIAN_STEPS = 2


def test_warm_started_projection_takes_few_steps(monkeypatch):
    # one restart, so every projection after the first starts from the
    # last; a step is a decoder evaluation after the descent's first, and
    # the Jacobian, evaluated at the start and after each step that makes
    # progress, shows that the steps are Gauss-Newton steps
    steps, jacobians, inside = [], [], []
    descend = projection._descend
    forward, jacobian = genmodel._forward_cached, genmodel._jacobian_cached

    def spy_descend(*args):
        steps.append(-1)
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
    assert len(steps) == 30 and min(jacobians) >= 1
    assert all(j <= s + 1 for s, j in zip(steps, jacobians))
    assert np.median(steps[1:]) <= MAX_MEDIAN_STEPS
