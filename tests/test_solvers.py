import math

import numpy as np
import pytest

from genprior import analysis, genmodel, measurement, sensing, solvers
from genprior.errors import UnsupportedOperationError
from genprior.projection import ProjectionConfig
from genprior.solvers import SolverConfig


def exact_proj_config(step_size, iterations, x0_mode="zero", seed=0, **kw):
    return SolverConfig(step_size=step_size, iterations=iterations,
                        projection=ProjectionConfig(method="exact_linear"),
                        x0_mode=x0_mode, seed=seed, **kw)


class TestLosses:
    def _instance(self, n=6, p=4, seed=0):
        op = sensing.sensing_new("dense_gaussian", n, p, seed)
        rng = np.random.default_rng(seed + 1)
        return op, rng.standard_normal(p), rng

    def test_glasso_zero_at_consistent_point(self):
        op, x, _ = self._instance()
        y = sensing.apply(op, x)
        assert solvers.loss_glasso(op, y, x) == 0.0

    def test_glasso_hand_value(self):
        m = np.zeros((2, 3))
        op = sensing.SensingOperator("dense_gaussian", 2, 3, 0, matrix=m)
        y = np.array([1.0, 1.0])
        assert solvers.loss_glasso(op, y, np.zeros(3)) == 0.5

    def test_nlasso_zero_at_consistent_point(self):
        op, x, _ = self._instance()
        link = measurement.shifted_cosine_link()
        y = measurement.link_eval(link, sensing.apply(op, x))
        assert solvers.loss_nlasso(op, y, link, x) == 0.0

    def test_nlasso_linear_equals_glasso(self):
        op, x, rng = self._instance()
        y = rng.standard_normal(op.n)
        link = measurement.linear_link()
        assert (solvers.loss_nlasso(op, y, link, x)
                == solvers.loss_glasso(op, y, x))

    def test_nlasso_rejects_sign_link(self):
        op, x, rng = self._instance()
        y = rng.standard_normal(op.n)
        with pytest.raises(UnsupportedOperationError):
            solvers.loss_nlasso(op, y, measurement.sign_dithered_link(0.1), x)

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_gradients_match_finite_differences(self, nonlinear):
        op, _, rng = self._instance(n=12, p=7, seed=3)
        y = rng.standard_normal(op.n)
        link = measurement.shifted_cosine_link()
        h = 1e-6
        for _ in range(50):
            x = rng.standard_normal(7)
            if nonlinear:
                grad = solvers.grad_nlasso(op, y, link, x)
                loss = lambda v: solvers.loss_nlasso(op, y, link, v)
            else:
                grad = solvers.grad_glasso(op, y, x)
                loss = lambda v: solvers.loss_glasso(op, y, v)
            for j in range(7):
                e = np.zeros(7)
                e[j] = h
                fd = (loss(x + e) - loss(x - e)) / (2 * h)
                assert abs(fd - grad[j]) <= 1e-5 * max(abs(grad[j]), 1e-8)


class TestMuFactors:
    def test_mu1_balanced_at_unit_step(self):
        assert abs(solvers.mu1_of(1.0, 0.05) - 0.05) <= 1e-15

    def test_mu1_no_contraction_at_two(self):
        assert solvers.mu1_of(2.0, 0.0) == 1.0

    def test_mu1_window(self):
        # 2 mu1 < 1 at eps -> 0 exactly for step sizes in (0.5, 1.5)
        for nu in (0.51, 0.75, 1.0, 1.25, 1.49):
            assert 2 * solvers.mu1_of(nu, 0.0) < 1
        for nu in (0.5, 1.5, 0.1, 2.0):
            assert 2 * solvers.mu1_of(nu, 0.0) >= 1

    def test_mu2_replication_step_size_is_outside_window(self):
        # the replication step size 0.2 gives 2 mu2 = 1.1 > 1
        assert solvers.mu2_of(0.2, 1.5, 2.5, 0.0) == 0.55

    def test_mu2_theory_step_size_contracts(self):
        assert solvers.mu2_of(solvers.ZETA_THEORY, 1.5, 2.5, 0.0) < 0.5

    def test_mu2_window_edges(self):
        l, u = 1.5, 2.5
        lo, hi = 1 / (2 * l * l), 3 / (2 * u * u)
        assert abs(lo - 0.2222222222222222) <= 1e-15 and abs(hi - 0.24) <= 1e-15
        assert 2 * solvers.mu2_of(0.23, l, u, 0.0) < 1
        assert 2 * solvers.mu2_of(0.22, l, u, 0.0) >= 1
        assert 2 * solvers.mu2_of(0.25, l, u, 0.0) >= 1

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            solvers.mu1_of(1.0, 1.0)
        with pytest.raises(ValueError):
            solvers.mu2_of(0.2, 1.5, 2.5, -0.1)


def _planted_linear_instance(seed, k=8, p=256, n=178, tau=0.0):
    dec = genmodel.orthonormal_linear_decoder(seed, k, p, 3.0)
    x_star, _ = analysis.plant_unit_signal(dec, seed + 1000)
    op = sensing.sensing_new("dense_gaussian", n, p, seed + 2000)
    link = measurement.linear_link(tau=tau)
    obs = measurement.observe_sim(link, op, x_star, seed + 3000)
    return dec, op, obs, x_star


class TestPgdGlasso:
    def test_defaults_match_recommended_values(self):
        assert solvers.NU_DEFAULT == 1.0
        assert solvers.ITERATIONS_DEFAULT == 30
        cfg = SolverConfig(step_size=solvers.NU_DEFAULT)
        assert cfg.step_size == 1.0 and cfg.iterations == 30

    def test_exact_projection_geometric_convergence(self):
        # noiseless linear SIM, exact projection, unit step: the error to the
        # gain-scaled signal must fall below 1e-8 well within 50 iterations
        dec, op, obs, x_star = _planted_linear_instance(seed=0)
        cfg = exact_proj_config(1.0, 50, x0_mode="random_range_point", seed=5)
        _, traj = solvers.pgd_glasso(op, obs.y_tilde, dec, cfg, target=x_star)
        errs = np.asarray(traj.error_to_target)
        assert (errs < 1e-8).any()
        slope, _ = analysis.contraction_fit(traj, 1e-8)
        assert slope < 0

    def test_iterates_feasible(self):
        # the final iterate of a T-iteration run is iterate T of any longer
        # run from the same start, so iterates 1..5 are checked one by one
        dec, op, obs, _ = _planted_linear_instance(seed=1, n=120)
        w = dec.layers[0][0]
        for iterations in range(1, 6):
            cfg = exact_proj_config(1.0, iterations, seed=2)
            x, _ = solvers.pgd_glasso(op, obs.y_tilde, dec, cfg)
            # in range: x = W W^T x, and the latent is inside the ball
            assert np.linalg.norm(x - w @ (w.T @ x)) <= 1e-10
            assert np.linalg.norm(w.T @ x) <= dec.latent_radius + 1e-12

    def test_exact_projection_contraction_bound(self):
        # per-step error ratios stay below 2 mu1(1, eps_hat) + 0.05, where
        # eps_hat is the measured isometry defect of A on the range subspace
        for seed in range(20):
            dec, op, obs, x_star = _planted_linear_instance(seed=seed, n=360)
            w = dec.layers[0][0]
            s = np.linalg.svd(op.matrix @ w, compute_uv=False) / math.sqrt(op.n)
            eps_hat = max(s.max() - 1.0, 1.0 - s.min())
            bound = 2 * solvers.mu1_of(1.0, eps_hat) + 0.05
            cfg = exact_proj_config(1.0, 40, x0_mode="random_range_point",
                                    seed=seed)
            _, traj = solvers.pgd_glasso(op, obs.y_tilde, dec, cfg, target=x_star)
            errs = traj.error_to_target
            for e0, e1 in zip(errs[:-1], errs[1:]):
                if e0 < 1e-10:
                    break
                assert e1 / e0 <= bound

    def test_arbitrary_initialization_same_floor(self):
        dec, op, _, x_star = _planted_linear_instance(seed=3, n=200)
        link = measurement.linear_link(sigma=0.0, tau=0.05)
        obs = measurement.observe_sim(link, op, x_star, 77)
        finals = []
        rng = np.random.default_rng(9)
        for i in range(10):
            x0 = rng.standard_normal(256) * rng.uniform(0.1, 10)
            cfg = exact_proj_config(1.0, 60, x0_mode="given", seed=i, x0=x0)
            _, traj = solvers.pgd_glasso(op, obs.y_tilde, dec, cfg, target=x_star)
            finals.append(traj.error_to_target[-1])
        floor = min(finals)
        assert max(finals) <= 10 * floor

    def test_trajectory_lengths(self):
        dec, op, obs, x_star = _planted_linear_instance(seed=4, n=64)
        cfg = exact_proj_config(1.0, 7, seed=0)
        _, traj = solvers.pgd_glasso(op, obs.y_tilde, dec, cfg, target=x_star)
        assert len(traj.loss_values) == 8
        assert len(traj.error_to_target) == 8
        assert len(traj.contraction_ratios) == 7
        assert all(l >= 0 for l in traj.loss_values)


class TestPgdNlasso:
    def test_default_step_sizes(self):
        assert solvers.ZETA_DEFAULT == 0.2
        assert solvers.ZETA_THEORY == 0.23

    def test_linear_link_reproduces_glasso_bitwise(self):
        dec, op, obs, _ = _planted_linear_instance(seed=6, n=100)
        link = measurement.linear_link()
        cfg = SolverConfig(step_size=1.0, iterations=10,
                           projection=ProjectionConfig(steps=40, restarts=2),
                           x0_mode="zero", seed=123)
        xg, tg = solvers.pgd_glasso(op, obs.y_tilde, dec, cfg)
        xn, tn = solvers.pgd_nlasso(op, obs.y_tilde, link, dec, cfg)
        assert np.array_equal(xg, xn)
        assert tg.loss_values == tn.loss_values

    def test_theory_step_size_converges_monotonically(self):
        # known shifted-cosine link, noiseless, exact projection: with the
        # step size inside the contraction window the error must decrease
        # monotonically to below 1e-6
        dec = genmodel.orthonormal_linear_decoder(7, 8, 128, 3.0)
        z_star = genmodel.sample_latent(dec, 17)
        x_star = genmodel.forward(dec, z_star)
        op = sensing.sensing_new("dense_gaussian", 200, 128, 27)
        link = measurement.shifted_cosine_link()
        obs = measurement.observe_known(link, op, x_star, 37)
        cfg = exact_proj_config(solvers.ZETA_THEORY, 60,
                                x0_mode="random_range_point", seed=8)
        _, traj = solvers.pgd_nlasso(op, obs.y_tilde, link, dec, cfg,
                                     target=x_star)
        errs = np.asarray(traj.error_to_target)
        assert errs[-1] <= 1e-6
        above = errs[errs > 1e-12]
        assert np.all(np.diff(above) < 0)

    def test_sign_link_rejected(self):
        dec, op, obs, _ = _planted_linear_instance(seed=8, n=50)
        link = measurement.sign_dithered_link(0.1)
        cfg = exact_proj_config(0.2, 3, seed=0)
        with pytest.raises(UnsupportedOperationError):
            solvers.pgd_nlasso(op, obs.y_tilde, link, dec, cfg)


@pytest.mark.parametrize("kind", ["pgd_glasso", "pgd_nlasso"])
def test_one_operator_product_per_iterate(monkeypatch, kind):
    # each iterate's loss and the step from it share one product A x
    dec, op, obs, _ = _planted_linear_instance(seed=11, n=64)
    apply, calls = sensing.apply, []
    monkeypatch.setattr(sensing, "apply",
                        lambda op, x: calls.append(x) or apply(op, x))
    links = [measurement.shifted_cosine_link()] if kind == "pgd_nlasso" else []
    for iterations in (1, 4):
        calls.clear()
        cfg = exact_proj_config(0.2, iterations, seed=0)
        getattr(solvers, kind)(op, obs.y_tilde, *links, dec, cfg)
        assert len(calls) == iterations + 1


class TestCsgm:
    def test_warm_start_at_global_optimum(self):
        dec = genmodel.decoder_new(5, 4, [10], 32, 2.0, "tanh", 1.0)
        z0 = genmodel.sample_latent(dec, 3)
        op = sensing.sensing_new("dense_gaussian", 20, 32, 4)
        y = sensing.apply(op, genmodel.forward(dec, z0))
        cfg = SolverConfig(step_size=1.0, iterations=1,
                           projection=ProjectionConfig(steps=30), seed=0)
        x_hat, traj = solvers.csgm_baseline(op, y, dec, cfg, warm_start=z0)
        assert traj.loss_values[-1] <= 1e-10

    def test_identity_operator_recovers_clipped_target(self):
        dec = genmodel.identity_decoder(8, r=1.0)
        op = sensing.SensingOperator("dense_gaussian", 8, 8, 0, matrix=np.eye(8))
        y = np.full(8, 2.0)  # outside the ball, norm sqrt(8)*2
        pcfg = ProjectionConfig(steps=100, init="zero")
        cfg = SolverConfig(step_size=1.0, iterations=1, projection=pcfg, seed=0)
        x_hat, _ = solvers.csgm_baseline(op, y, dec, cfg)
        expected = y / np.linalg.norm(y)  # radial clip of y onto the ball
        assert np.linalg.norm(x_hat - expected) <= 1e-8

    def test_returns_best_seen_loss(self):
        dec = genmodel.decoder_new(9, 3, [8], 24, 1.5, "tanh", 1.0)
        op = sensing.sensing_new("dense_gaussian", 12, 24, 1)
        y = np.random.default_rng(2).standard_normal(12)
        cfg = SolverConfig(step_size=1.0, iterations=1,
                           projection=ProjectionConfig(steps=50, restarts=2),
                           seed=1)
        x_hat, traj = solvers.csgm_baseline(op, y, dec, cfg)
        got = solvers.loss_glasso(op, y, x_hat)
        assert got <= min(traj.loss_values) + 1e-12

    def test_feasible_latent_on_identity_decoder(self):
        # with an identity decoder the range is exactly the latent ball,
        # so feasibility of the output is directly checkable
        dec = genmodel.identity_decoder(6, r=0.5)
        op = sensing.sensing_new("dense_gaussian", 4, 6, 3)
        y = np.random.default_rng(5).standard_normal(4) * 10
        cfg = SolverConfig(step_size=1.0, iterations=1,
                           projection=ProjectionConfig(steps=80, restarts=2),
                           seed=2)
        x_hat, _ = solvers.csgm_baseline(op, y, dec, cfg)
        assert np.linalg.norm(x_hat) <= 0.5 + 1e-12


class TestTrajectoryCsv:
    def test_schema(self, tmp_path):
        dec, op, obs, x_star = _planted_linear_instance(seed=10, n=64)
        cfg = exact_proj_config(1.0, 4, seed=0)
        _, traj = solvers.pgd_glasso(op, obs.y_tilde, dec, cfg, target=x_star)
        path = tmp_path / "traj.csv"
        solvers.trajectory_to_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,loss,error,ratio"
        assert len(lines) == 6
        assert lines[1].split(",")[3] == ""  # no ratio at t = 0


class TestSolverConfig:
    def test_validation(self):
        for step in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="step size"):
                SolverConfig(step_size=step)
        with pytest.raises(ValueError):
            SolverConfig(step_size=1.0, iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(step_size=1.0, x0_mode="warm")
        with pytest.raises(ValueError):
            SolverConfig(step_size=1.0, x0_mode="given")
