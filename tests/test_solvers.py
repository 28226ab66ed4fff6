import math
from dataclasses import replace

import numpy as np
import pytest

from genprior import (analysis, cli, genmodel, measurement, projection,
                      sensing, solvers)
from genprior.errors import UnsupportedOperationError
from genprior.projection import ProjectionConfig
from genprior.seeding import derive_seed
from genprior.solvers import SolverConfig


def exact_proj_config(step_size, iterations, x0_mode="zero", seed=0, **kw):
    return SolverConfig(step_size=step_size, iterations=iterations,
                        projection=ProjectionConfig(),
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

    @pytest.mark.parametrize("link", [None, measurement.shifted_cosine_link()],
                             ids=["identity", "shifted_cosine"])
    @pytest.mark.parametrize("kind,n,p", [("dense_gaussian", 12, 7),
                                          ("dense_gaussian", 1000, 256),
                                          ("partial_circulant", 400, 784)])
    def test_stacked_fit_rows_equal_one_point_calls(self, kind, n, p, link):
        # each row of a stack's loss and gradient is bit for bit the
        # one-point call, which is the vector-product formula
        op = sensing.sensing_new(kind, n, p, derive_seed(n, kind))
        rng = np.random.default_rng(n)
        y, x = rng.standard_normal(n), rng.standard_normal((5, p))
        loss, grad = solvers._fit(op, y, link, x)
        for i, xi in enumerate(x):
            t = sensing.apply(op, xi)
            f = t if link is None else measurement.link_eval(link, t)
            r = f - y
            w = r if link is None else r * measurement.link_deriv(link, t)
            want = float(r @ r) / (2.0 * n), sensing.adjoint_apply(op, w) / n
            for got in (solvers._fit(op, y, link, xi), (loss[i], grad[i])):
                assert float(got[0]).hex() == want[0].hex()
                assert np.array_equal(got[1], want[1])


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
    x_star = genmodel.forward(dec, genmodel.sample_latent(dec, seed + 1000))
    x_star = x_star / np.linalg.norm(x_star)
    op = sensing.sensing_new("dense_gaussian", n, p, seed + 2000)
    link = measurement.linear_link(tau=tau)
    y = measurement.observe_sim(link, op, x_star, seed + 3000)
    return dec, op, y, x_star


class TestPgdGlasso:
    def test_defaults_match_recommended_values(self):
        assert solvers.NU_DEFAULT == 1.0
        assert solvers.ITERATIONS_DEFAULT == 30
        cfg = SolverConfig(step_size=solvers.NU_DEFAULT)
        assert cfg.step_size == 1.0 and cfg.iterations == 30

    def test_exact_projection_geometric_convergence(self):
        # noiseless linear SIM, exact projection, unit step: the error to the
        # gain-scaled signal must fall below 1e-8 well within 50 iterations
        dec, op, y, x_star = _planted_linear_instance(seed=0)
        cfg = exact_proj_config(1.0, 50, x0_mode="random_range_point", seed=5)
        _, traj = solvers.pgd_glasso(op, y, dec, cfg, target=x_star)
        errs = np.asarray(traj.error_to_target)
        assert (errs < 1e-8).any()
        slope, _ = analysis.contraction_fit(traj, 1e-8)
        assert slope < 0

    def test_iterates_feasible(self):
        # the final iterate of a T-iteration run is iterate T of any longer
        # run from the same start, so iterates 1..5 are checked one by one
        dec, op, y, _ = _planted_linear_instance(seed=1, n=120)
        w = dec.layers[0][0]
        for iterations in range(1, 6):
            cfg = exact_proj_config(1.0, iterations, seed=2)
            x, _ = solvers.pgd_glasso(op, y, dec, cfg)
            # in range: x = W W^T x, and the latent is inside the ball
            assert np.linalg.norm(x - w @ (w.T @ x)) <= 1e-10
            assert np.linalg.norm(w.T @ x) <= dec.latent_radius + 1e-12

    def test_exact_projection_contraction_bound(self):
        # per-step error ratios stay below 2 mu1(1, eps_hat) + 0.05, where
        # eps_hat is the measured isometry defect of A on the range subspace
        for seed in range(20):
            dec, op, y, x_star = _planted_linear_instance(seed=seed, n=360)
            w = dec.layers[0][0]
            s = np.linalg.svd(op.matrix @ w, compute_uv=False) / math.sqrt(op.n)
            eps_hat = max(s.max() - 1.0, 1.0 - s.min())
            bound = 2 * solvers.mu1_of(1.0, eps_hat) + 0.05
            cfg = exact_proj_config(1.0, 40, x0_mode="random_range_point",
                                    seed=seed)
            _, traj = solvers.pgd_glasso(op, y, dec, cfg, target=x_star)
            errs = traj.error_to_target
            for e0, e1 in zip(errs[:-1], errs[1:]):
                if e0 < 1e-10:
                    break
                assert e1 / e0 <= bound

    def test_arbitrary_initialization_same_floor(self):
        dec, op, _, x_star = _planted_linear_instance(seed=3, n=200)
        link = measurement.linear_link(sigma=0.0, tau=0.05)
        y = measurement.observe_sim(link, op, x_star, 77)
        finals = []
        rng = np.random.default_rng(9)
        for i in range(10):
            x0 = rng.standard_normal(256) * rng.uniform(0.1, 10)
            cfg = exact_proj_config(1.0, 60, x0_mode="given", seed=i, x0=x0)
            _, traj = solvers.pgd_glasso(op, y, dec, cfg, target=x_star)
            finals.append(traj.error_to_target[-1])
        floor = min(finals)
        assert max(finals) <= 10 * floor

    def test_trajectory_lengths(self):
        dec, op, y, x_star = _planted_linear_instance(seed=4, n=64)
        cfg = exact_proj_config(1.0, 7, seed=0)
        _, traj = solvers.pgd_glasso(op, y, dec, cfg, target=x_star)
        assert len(traj.loss_values) == 8
        assert len(traj.error_to_target) == 8
        assert len(traj.contraction_ratios) == 7
        assert all(l >= 0 for l in traj.loss_values)


class TestPgdNlasso:
    def test_default_step_sizes(self):
        assert solvers.ZETA_DEFAULT == 0.2
        assert solvers.ZETA_THEORY == 0.23

    def test_linear_link_reproduces_glasso_bitwise(self):
        dec, op, y, _ = _planted_linear_instance(seed=6, n=100)
        link = measurement.linear_link()
        cfg = SolverConfig(step_size=1.0, iterations=10,
                           projection=ProjectionConfig(steps=40, restarts=2),
                           x0_mode="zero", seed=123)
        xg, tg = solvers.pgd_glasso(op, y, dec, cfg)
        xn, tn = solvers.pgd_nlasso(op, y, link, dec, cfg)
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
        y = measurement.observe_known(link, op, x_star, 37)
        cfg = exact_proj_config(solvers.ZETA_THEORY, 60,
                                x0_mode="random_range_point", seed=8)
        _, traj = solvers.pgd_nlasso(op, y, link, dec, cfg,
                                     target=x_star)
        errs = np.asarray(traj.error_to_target)
        assert errs[-1] <= 1e-6
        above = errs[errs > 1e-12]
        assert np.all(np.diff(above) < 0)

    def test_arbitrary_starts_reach_the_same_error(self):
        # The paper's known-link claim: linear convergence from an arbitrary
        # start. Acceptance decoder, shifted cosine link, theory step size,
        # n = 250: starting at 0, at a random range point and at random
        # points 10 and 100 times as long as x*, each instance ends at the
        # same relative error. 140 proof instances spread by at most 5.9e-10
        # (median error 0.0009); the tolerance is fixed at 1e-8.
        dec = genmodel.decoder_new(101, 8, [32], 256, 3.0, "tanh", 1.0)
        link = measurement.shifted_cosine_link(sigma=0.1)
        cfg = SolverConfig(step_size=solvers.ZETA_THEORY, iterations=30,
                           projection=ProjectionConfig(steps=200, restarts=2))
        setup = analysis.TrialSetup(decoder=dec, link=link,
                                    solver_kind="pgd_nlasso", solver_cfg=cfg)
        for i in range(10):
            seed = derive_seed(2026, "starts", i)
            op, y, x_star, _ = analysis._draw_instance(setup, 250, seed)
            rng = np.random.default_rng(derive_seed(seed, "far"))
            starts = [replace(cfg, x0_mode="zero"),
                      replace(cfg, x0_mode="random_range_point")]
            for scale in (10, 100):
                u = rng.standard_normal(dec.ambient_dim)
                x0 = scale * np.linalg.norm(x_star) * u / np.linalg.norm(u)
                starts.append(replace(cfg, x0_mode="given", x0=x0))
            errors = []
            for start in starts:
                start = replace(start, seed=derive_seed(seed, "solver"))
                x_hat, _ = solvers.pgd_nlasso(op, y, link, dec, start)
                errors.append(np.linalg.norm(x_hat - x_star)
                              / np.linalg.norm(x_star))
            assert max(errors) - min(errors) <= 1e-8, (i, errors)

    def test_sign_link_rejected(self):
        dec, op, y, _ = _planted_linear_instance(seed=8, n=50)
        link = measurement.sign_dithered_link(0.1)
        cfg = exact_proj_config(0.2, 3, seed=0)
        with pytest.raises(UnsupportedOperationError):
            solvers.pgd_nlasso(op, y, link, dec, cfg)


@pytest.mark.parametrize("kind", ["pgd_glasso", "pgd_nlasso"])
def test_one_operator_product_per_iterate(monkeypatch, kind):
    # each iterate's loss and the step from it share one product A x
    dec, op, y, _ = _planted_linear_instance(seed=11, n=64)
    apply, calls = sensing.apply, []
    monkeypatch.setattr(sensing, "apply",
                        lambda op, x: calls.append(x) or apply(op, x))
    links = [measurement.shifted_cosine_link()] if kind == "pgd_nlasso" else []
    for iterations in (1, 4):
        calls.clear()
        cfg = exact_proj_config(0.2, iterations, seed=0)
        getattr(solvers, kind)(op, y, *links, dec, cfg)
        assert len(calls) == iterations + 1


class TestRestartChains:
    """Every restart of a PGD projection is a chain: the first iteration
    draws its starts from the seed, and each later one starts restart i
    where restart i ended. A public warm start replaces restart 0 only."""

    dec = genmodel.decoder_new(31, 3, [12], 20, 1.5, "tanh", 1.0)
    pcfg = ProjectionConfig(steps=15, restarts=3)

    def spy(self, monkeypatch):
        starts, ends = [], []
        descend = projection._descend

        def spy_descend(decoder, cfg, start, *args):
            chained = isinstance(start, projection._Points)
            starts.append((start.z if chained else start).copy())
            out = descend(decoder, cfg, start, *args)
            ends.append(out[0].z.copy())
            return out

        monkeypatch.setattr(projection, "_descend", spy_descend)
        return starts, ends

    @staticmethod
    def clip(z):  # onto the ball of radius 1.5
        return z * (1.5 / max(np.linalg.norm(z), 1.5))

    def drawn(self, seed, label, i):
        rng = np.random.default_rng(derive_seed(seed, label, i))
        return self.clip(rng.standard_normal(3))

    # at scale 50 the ends lie on the ball, and their starts are not
    # clipped again
    @pytest.mark.parametrize("scale", [1.0, 50.0])
    def test_pgd_restart_starts_where_it_ended(self, monkeypatch, scale):
        starts, ends = self.spy(monkeypatch)
        op = sensing.sensing_new("dense_gaussian", 12, 20, 5)
        y = scale * np.random.default_rng(1).standard_normal(12)
        cfg = SolverConfig(step_size=1.0, iterations=5, seed=7,
                           projection=self.pcfg)
        solvers.pgd_glasso(op, y, self.dec, cfg)
        assert len(starts) == 5
        first = derive_seed(7, "project", 0)
        assert np.array_equal(starts[0], [self.drawn(first, "restart", i)
                                          for i in range(3)])
        for end, start in zip(ends, starts[1:]):
            assert np.array_equal(start, end)

    def test_public_warm_start_is_restart_zero_only(self, monkeypatch):
        starts, _ = self.spy(monkeypatch)
        z = np.array([0.3, -0.2, 0.1])
        x = np.random.default_rng(2).standard_normal(20)
        projection.project(self.dec, x, self.pcfg, seed=9, warm_start=z)
        op = sensing.sensing_new("dense_gaussian", 12, 20, 5)
        cfg = SolverConfig(step_size=1.0, iterations=1, seed=9,
                           projection=self.pcfg)
        solvers.csgm_baseline(op, x[:12], self.dec, cfg, warm_start=z)
        for start, label in zip(starts, ("restart", "csgm-restart")):
            assert np.array_equal(start[0], z)
            assert np.array_equal(start[1:], [self.drawn(9, label, i)
                                              for i in (1, 2)])


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
        pcfg = ProjectionConfig(steps=100)
        cfg = SolverConfig(step_size=1.0, iterations=1, projection=pcfg, seed=0)
        x_hat, _ = solvers.csgm_baseline(op, y, dec, cfg,
                                         warm_start=np.zeros(8))
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

    def test_last_loss_is_that_of_the_returned_point(self):
        # targets beyond the ball clip the steps; the trajectory's last
        # loss, which becomes TrialRecord.loss, must be the returned point's
        dec = genmodel.decoder_new(31, 3, [12], 20, 1.0, "identity")
        op = sensing.sensing_new("dense_gaussian", 12, 20, 5)
        pcfg = ProjectionConfig(steps=15, restarts=3)
        cfg = SolverConfig(step_size=1.0, iterations=1, projection=pcfg,
                           seed=3)
        rng = np.random.default_rng(0)
        for _ in range(40):
            y = 3 * rng.standard_normal(12)
            warm = rng.standard_normal(3)
            x_hat, traj = solvers.csgm_baseline(op, y, dec, cfg,
                                                warm_start=warm)
            got = solvers.loss_glasso(op, y, x_hat)
            assert traj.loss_values[-1] == pytest.approx(got, rel=1e-12)


class TestTrajectoryCsv:
    def test_schema(self, tmp_path):
        dec, op, y, x_star = _planted_linear_instance(seed=10, n=64)
        cfg = exact_proj_config(1.0, 4, seed=0)
        _, traj = solvers.pgd_glasso(op, y, dec, cfg, target=x_star)
        path = tmp_path / "traj.csv"
        cli._write_trajectory_csv(traj, path)
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
