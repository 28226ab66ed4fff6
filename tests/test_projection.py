import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genprior import genmodel, projection
from genprior.errors import UnsupportedOperationError
from genprior.projection import ProjectionConfig


def grid_search_residual(dec, x, step=1e-3):
    """Grid search over the latent ball for a LINEAR decoder.

    The objective ||Wz - x|| is convex in z, so a coarse pass followed by
    local refinement at the requested step cannot miss the global minimum.
    """
    w = dec.layers[0][0]
    r = dec.latent_radius
    k = dec.latent_dim

    def batch_residuals(centers):
        vals = w @ centers.T - x[:, None]
        return np.linalg.norm(vals, axis=0)

    def sweep(center, half_width, n_pts):
        axes = [np.linspace(center[j] - half_width, center[j] + half_width,
                            n_pts) for j in range(k)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
        norms = np.linalg.norm(mesh, axis=1)
        mask = norms <= r
        mesh = np.where(mask[:, None], mesh, mesh * (r / np.maximum(norms, 1e-12))[:, None])
        res = batch_residuals(mesh)
        best = np.argmin(res)
        return mesh[best], res[best]

    coarse = 0.05
    z0, _ = sweep(np.zeros(k), r, int(2 * r / coarse) + 1)
    z1, best = sweep(z0, coarse, int(2 * coarse / step) + 1)
    return float(best)


class TestProject:
    def test_warm_start_fixed_point(self):
        dec = genmodel.decoder_new(4, 3, [10], 20, 2.0, "tanh", 1.0)
        z0 = genmodel.sample_latent(dec, 7)
        x = genmodel.forward(dec, z0)
        res = projection.project(dec, x, ProjectionConfig(),
                                 seed=1, warm_start=z0)
        assert res.residual <= 1e-9

    @staticmethod
    def _interior_instance(dec, rng):
        # x whose exact projection is interior to the latent ball, the case
        # PGD feeds the projector (planted latents sit at inset 0.9)
        w = dec.layers[0][0]
        z0 = rng.standard_normal(dec.latent_dim)
        z0 *= 0.8 * dec.latent_radius / np.linalg.norm(z0)
        noise = rng.standard_normal(dec.ambient_dim)
        noise -= w @ (w.T @ noise)
        return w @ z0 + noise

    def test_matches_exact_linear_oracle_residual(self):
        dec = genmodel.orthonormal_linear_decoder(3, 4, 24, 1.5)
        rng = np.random.default_rng(5)
        cfg = ProjectionConfig(restarts=2)
        for _ in range(20):
            x = self._interior_instance(dec, rng)
            it = projection.project(dec, x, cfg, seed=9)
            ex = oracles.project_exact_linear(dec, x)
            assert it.residual - ex.residual <= 1e-6

    def test_matches_exact_linear_oracle_point(self):
        # in latent space this objective has identity Hessian, so the first
        # Gauss-Newton step lands on the minimizer and pins the point itself
        dec = genmodel.orthonormal_linear_decoder(3, 4, 24, 1.5)
        rng = np.random.default_rng(5)
        cfg = ProjectionConfig(restarts=1)
        for _ in range(5):
            x = rng.standard_normal(24)
            it = projection.project(dec, x, cfg, seed=9)
            ex = oracles.project_exact_linear(dec, x)
            assert np.linalg.norm(it.x_hat - ex.x_hat) <= 1e-6

    def test_restarts_take_the_best(self):
        dec = genmodel.decoder_new(11, 3, [12], 18, 2.0, "tanh", 1.0)
        x = np.random.default_rng(3).standard_normal(18)
        cfg5 = ProjectionConfig(steps=60, restarts=5)
        combined = projection.project(dec, x, cfg5, seed=42)
        singles = []
        for i in range(5):
            # same underlying restart stream: restart i of the combined run
            cfg1 = ProjectionConfig(steps=60, restarts=i + 1)
            singles.append(projection.project(dec, x, cfg1, seed=42).residual)
        assert combined.residual <= min(singles) + 1e-12

    def test_feasibility_invariant(self):
        dec = genmodel.decoder_new(2, 3, [8], 12, 1.0, "tanh", 1.0)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(12) * 3
        res = projection.project(dec, x, ProjectionConfig(steps=50), seed=2)
        assert np.linalg.norm(res.z_hat) <= dec.latent_radius + 1e-12
        assert np.array_equal(res.x_hat, genmodel.forward(dec, res.z_hat))

    def test_improvement_over_own_start(self):
        dec = genmodel.decoder_new(6, 3, [10], 14, 1.5, "tanh", 1.0)
        rng = np.random.default_rng(4)
        cfg = ProjectionConfig(steps=40, restarts=1)
        for _ in range(10):
            x = rng.standard_normal(14)
            res = projection.project(dec, x, cfg, seed=0,
                                     warm_start=np.zeros(3))
            start = np.linalg.norm(genmodel.forward(dec, np.zeros(3)) - x)
            assert res.residual <= start + 1e-12

    def test_out_of_ball_steps_counted(self):
        # target far outside the range pushes the latent against the ball
        dec = genmodel.orthonormal_linear_decoder(1, 2, 8, 0.1)
        x = 100.0 * dec.layers[0][0][:, 0]
        res = projection.project(dec, x, ProjectionConfig(steps=30), seed=0,
                                 warm_start=np.zeros(2))
        assert res.out_of_ball_steps > 0
        assert np.linalg.norm(res.z_hat) <= 0.1 + 1e-12

    def test_deterministic_given_seed(self):
        dec = genmodel.decoder_new(9, 3, [9], 15, 2.0, "tanh", 1.0)
        x = np.random.default_rng(1).standard_normal(15)
        cfg = ProjectionConfig(steps=25, restarts=3)
        a = projection.project(dec, x, cfg, seed=5)
        b = projection.project(dec, x, cfg, seed=5)
        assert np.array_equal(a.z_hat, b.z_hat)
        assert a.restart_index == b.restart_index

    @pytest.mark.parametrize("activation, restarts, warm", [
        ("tanh", 1, False), ("tanh", 3, True), ("relu", 2, False),
        ("identity", 2, True)])
    def test_result_is_the_winning_row_of_the_batch(self, activation,
                                                    restarts, warm):
        # project builds its one result from _project_rows' arrays: the
        # best row's latent and output, their residual, its restart and
        # its out-of-ball steps, bit for bit
        dec = genmodel.decoder_new(7, 4, [12], 20, 1.5, activation, 1.0)
        rng = np.random.default_rng(3)
        x = 20.0 * rng.standard_normal(dec.ambient_dim)
        z0 = 5.0 * rng.standard_normal(4) if warm else None
        cfg = ProjectionConfig(restarts=restarts)
        res = projection.project(dec, x, cfg, seed=11, warm_start=z0)
        start = projection._start_latents(dec, cfg, [11], "restart", [z0])
        ends, (i,), oob = projection._project_rows(dec, x[None], cfg, start)
        assert res.z_hat.tobytes() == ends.z[i].tobytes()
        assert res.x_hat.tobytes() == ends.fz[i].tobytes()
        assert res.residual.hex() == float(
            np.linalg.norm(ends.fz[i] - x)).hex()
        assert (res.restart_index, res.out_of_ball_steps) == (i, oob[i])
        assert type(res.restart_index) is int
        assert type(res.out_of_ball_steps) is int

    def test_dimension_mismatch(self):
        dec = genmodel.decoder_new(0, 2, [], 4, 1.0)
        with pytest.raises(ValueError):
            projection.project(dec, np.zeros(3),
                               ProjectionConfig(), 0)


class TestProjectExactLinear:
    def test_in_range_interior_point_is_fixed(self):
        dec = genmodel.orthonormal_linear_decoder(2, 3, 12, 2.0)
        z = np.array([0.5, -0.2, 0.4])
        x = genmodel.forward(dec, z)
        res = oracles.project_exact_linear(dec, x)
        assert np.linalg.norm(res.x_hat - x) <= 1e-12

    def test_orthogonal_input_maps_to_zero(self):
        dec = genmodel.orthonormal_linear_decoder(4, 2, 10, 1.0)
        w = dec.layers[0][0]
        x = np.random.default_rng(0).standard_normal(10)
        x -= w @ (w.T @ x)
        res = oracles.project_exact_linear(dec, x)
        assert np.linalg.norm(res.x_hat) <= 1e-12

    def test_matches_grid_search(self):
        dec = genmodel.orthonormal_linear_decoder(7, 3, 10, 1.0)
        rng = np.random.default_rng(6)
        for _ in range(3):
            x = rng.standard_normal(10)
            res = oracles.project_exact_linear(dec, x)
            assert abs(res.residual - grid_search_residual(dec, x)) <= 1e-3

    def test_rejects_nonlinear_decoder(self):
        dec = genmodel.decoder_new(1, 2, [4], 8, 1.0, "tanh", 1.0)
        with pytest.raises(UnsupportedOperationError):
            oracles.project_exact_linear(dec, np.zeros(8))

    def test_rejects_non_orthonormal_linear(self):
        dec = genmodel.decoder_new(1, 2, [], 8, 1.0, "identity", 1.0)
        with pytest.raises(UnsupportedOperationError):
            oracles.project_exact_linear(dec, np.zeros(8))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), k=st.integers(1, 4),
       extra=st.integers(0, 12), scale=st.floats(0.1, 10.0),
       restarts=st.integers(1, 2))
def test_descent_never_beats_exact_projection(seed, k, extra, scale,
                                              restarts):
    # on an orthonormal linear decoder the exact projection is optimal over
    # the ball, and every point the descent can return lies in the ball
    dec = genmodel.orthonormal_linear_decoder(seed, k, k + extra, 2.0)
    x = scale * np.random.default_rng(seed).standard_normal(dec.ambient_dim)
    cfg = ProjectionConfig(steps=25, restarts=restarts)
    got = projection.project(dec, x, cfg, seed=seed)
    exact = oracles.project_exact_linear(dec, x)
    assert got.residual >= exact.residual - 1e-12


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProjectionConfig(steps=0)
        with pytest.raises(ValueError):
            ProjectionConfig(restarts=0)
