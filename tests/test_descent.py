"""The batched latent-descent kernel against each of its rows descended
alone.

A projection or a CSGM solve descends all its restarts as one batch of
Gauss-Newton rows. The rows never mix: each must match the descent of its
start latent as a batch of its own, in latent, value and out-of-ball step
count, whether the fit is the distance to a target (projection) or a
measurement loss with its own metric (CSGM, on either sensing operator).
Batched and one-row products round differently, so agreement is asserted to
1e-10, not bitwise.
"""

import itertools

import numpy as np
import pytest

from genprior import genmodel, projection, sensing, solvers
from genprior.projection import ProjectionConfig
from genprior.solvers import SolverConfig

TOL = 1e-10

GRID = list(itertools.product(("distance",) + sensing.KINDS,
                              ("tanh", "relu", "identity")))


def _decoder(activation):
    return genmodel.decoder_new(31, 3, [12], 20, 1.0, activation, 1.0)


def _fit(dec, fit, x):
    """Label, objective and metric of a descent towards x: the distance to
    x, or the CSGM loss of measurements of x on a sensing operator."""
    if fit == "distance":
        def objective(fz, rows):
            d = fz - x
            return 0.5 * np.add.reduce(d * d, 1), d
        return "restart", objective, None, None
    op = sensing.sensing_new(fit, 12, dec.ambient_dim, 5)
    y = sensing.apply(op, x)

    def objective(fz, rows):
        fits = [solvers._fit(op, y, None, xv) for xv in fz]
        return np.array([v for v, _ in fits]), np.array([g for _, g in fits])

    def metric(jac, rows):
        aj = [sensing.apply(op, jt) / np.sqrt(op.n)
              for jt in np.swapaxes(jac, 1, 2)]
        return np.array([a @ a.T for a in aj])
    return "csgm-restart", objective, metric, (op, y)


@pytest.mark.parametrize("fit,activation", GRID)
def test_batch_matches_rows_alone(fit, activation):
    dec = _decoder(activation)
    rng = np.random.default_rng(7)
    oob_seen = 0
    for restarts in (1, 2, 3):
        cfg = ProjectionConfig(steps=15, restarts=restarts)
        # the warm start sits on the sphere and the target lies beyond it,
        # so the warm descent pushes against the ball
        edge = rng.standard_normal(dec.latent_dim)
        edge /= np.linalg.norm(edge)
        x = (genmodel.forward(dec, 2.0 * edge)
             + 0.3 * rng.standard_normal(dec.ambient_dim))
        label, objective, metric, measured = _fit(dec, fit, x)

        for warm in (None, edge):
            z0 = projection._start_latents(dec, cfg, [restarts], label, [warm])
            ends, val, oob = projection._descend(dec, cfg, z0, objective,
                                                 metric)
            z = ends.z
            for i, row in enumerate(z0):
                ei, vi, oi = projection._descend(dec, cfg, row[None],
                                                 objective, metric)
                assert np.max(np.abs(z[i] - ei.z[0])) <= TOL
                assert np.max(np.abs(ends.fz[i] - ei.fz[0])) <= TOL
                assert abs(val[i] - vi[0]) <= TOL
                assert oob[i] == oi[0]
            i = projection._best_rows(val, restarts)[0]
            if measured is None:
                got = projection.project(dec, x, cfg, seed=restarts,
                                         warm_start=warm)
                assert got.restart_index == i
                assert np.array_equal(got.z_hat, z[i])
                assert got.out_of_ball_steps == oob[i]
            else:
                scfg = SolverConfig(step_size=1.0, projection=cfg,
                                    seed=restarts)
                x_hat, _ = solvers.csgm_baseline(*measured, dec, scfg,
                                                 warm_start=warm)
                assert np.array_equal(x_hat, ends.fz[i])
            oob_seen += oob.sum()
    assert oob_seen > 0


def test_nan_warm_start_never_wins_projection():
    dec = _decoder("tanh")
    x = np.random.default_rng(3).standard_normal(dec.ambient_dim)
    cfg = ProjectionConfig(steps=20, restarts=2)
    res = projection.project(dec, x, cfg, seed=0,
                             warm_start=np.full(dec.latent_dim, np.nan))
    assert res.restart_index == 1
    assert np.all(np.isfinite(res.z_hat)) and np.isfinite(res.residual)


def test_nan_warm_start_never_wins_csgm():
    dec = _decoder("tanh")
    op = sensing.sensing_new("dense_gaussian", 12, dec.ambient_dim, 5)
    y = np.random.default_rng(4).standard_normal(op.n)
    cfg = SolverConfig(step_size=1.0, iterations=1,
                       projection=ProjectionConfig(steps=20, restarts=2))
    x_hat, traj = solvers.csgm_baseline(
        op, y, dec, cfg, warm_start=np.full(dec.latent_dim, np.nan))
    assert np.all(np.isfinite(x_hat))
    assert np.all(np.isfinite(traj.loss_values))


def test_first_min_ranks_non_finite_last():
    def first(values):  # the best row of a single target
        return projection._best_rows(values, len(values))[0]
    assert first(np.array([np.nan, 2.0, 1.0])) == 2
    assert first(np.array([np.inf, -np.inf, 3.0])) == 2
    assert first(np.array([1.0, 1.0])) == 0
    assert first(np.array([np.nan, np.nan])) == 0
    # two targets of three restarts each: rows 0-2 and 3-5
    rows = projection._best_rows(np.array([np.nan, 1.0, 1.0, 5.0, 5.0, 4.0]),
                                 3)
    assert list(rows) == [1, 5]
