import collections
import concurrent.futures
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from genprior import analysis, cli, genmodel, measurement, sensing, solvers
from genprior.errors import InsufficientDataError, UnsupportedOperationError
from genprior.projection import ProjectionConfig
from genprior.seeding import derive_seed
from genprior.solvers import SolverConfig, Trajectory


def scaled_identity_op(p, scale):
    return sensing.SensingOperator("dense_gaussian", p, p, 0,
                                   matrix=scale * np.eye(p))


def check_decoder(seed=11):
    return genmodel.decoder_new(seed, 4, [16], 64, 3.0, "tanh", 1.0)


class TestCosineSimilarity:
    def test_positive_scaling(self):
        a = np.array([1.0, 2.0, -3.0])
        assert analysis.cosine_similarity(3 * a, a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert analysis.cosine_similarity([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_antiparallel(self):
        a = np.array([0.5, -1.5])
        assert analysis.cosine_similarity(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            analysis.cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_sign_scale_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal(6)
            b = rng.standard_normal(6)
            alpha = rng.uniform(-5, 5)
            beta = rng.uniform(-5, 5)
            if alpha == 0 or beta == 0:
                continue
            lhs = analysis.cosine_similarity(alpha * a, beta * b)
            rhs = np.sign(alpha * beta) * analysis.cosine_similarity(a, b)
            assert abs(lhs - rhs) <= 1e-12


class TestTsrec:
    def test_exact_isometry_zero_violations(self):
        dec = check_decoder()
        op = scaled_identity_op(64, math.sqrt(64))
        rep = analysis.tsrec_check(op, dec, eps=0.5, delta=0.01, pairs=200, seed=1)
        assert rep.violations == 0 and rep.passed
        assert abs(rep.worst_margin) <= 1e-10  # empirical defect of an isometry

    def test_calibrated_gaussian_passes(self):
        dec = check_decoder()
        lr = dec.lipschitz * dec.latent_radius
        n = math.ceil(8 * dec.latent_dim * math.log(lr / 0.01))
        for seed in range(2):
            op = sensing.sensing_new("dense_gaussian", n, 64, seed)
            rep = analysis.tsrec_check(op, dec, eps=0.5, delta=0.01,
                                       pairs=300, seed=seed)
            assert rep.violations == 0 and rep.passed

    def test_undersampled_fails(self):
        dec = check_decoder()
        op = sensing.sensing_new("dense_gaussian", 1, 64, 0)
        rep = analysis.tsrec_check(op, dec, eps=0.5, delta=0.01, pairs=300, seed=0)
        assert rep.violations > 0 and not rep.passed

    def test_eps_validation(self):
        dec = check_decoder()
        op = scaled_identity_op(64, 8.0)
        with pytest.raises(ValueError):
            analysis.tsrec_check(op, dec, eps=1.5, delta=0.01, pairs=10, seed=0)


class TestJle:
    def test_exact_isometry(self):
        op = scaled_identity_op(16, 4.0)
        pts = np.random.default_rng(0).standard_normal((50, 16))
        rep = analysis.jle_check(op, pts, eps=0.3)
        assert rep.violations == 0 and rep.worst_margin <= 1e-12

    def test_calibrated_gaussian_passes(self):
        pts = np.random.default_rng(1).standard_normal((100, 64))
        op = sensing.sensing_new("dense_gaussian", 200, 64, 5)
        rep = analysis.jle_check(op, pts, eps=0.5)
        assert rep.violations == 0 and rep.passed

    def test_undersampled_fails(self):
        pts = np.random.default_rng(2).standard_normal((100, 64))
        op = sensing.sensing_new("dense_gaussian", 1, 64, 5)
        rep = analysis.jle_check(op, pts, eps=0.5)
        assert rep.violations > 0 and not rep.passed


class TestWnu:
    def test_zero_step_reduces_to_cauchy_schwarz(self):
        dec = check_decoder()
        op = sensing.sensing_new("dense_gaussian", 5, 64, 3)  # any operator
        rep = analysis.wnu_check(op, dec, nu=0.0, eps=0.3, pairs=100, seed=2)
        assert rep.violations == 0

    def test_calibrated_gaussian_passes(self):
        dec = check_decoder()
        lr = dec.lipschitz * dec.latent_radius
        n = math.ceil(dec.latent_dim / 0.3 ** 2 * math.log(lr / 1e-3))
        for seed in range(2):
            op = sensing.sensing_new("dense_gaussian", n, 64, seed + 10)
            rep = analysis.wnu_check(op, dec, nu=1.0, eps=0.3, pairs=200,
                                     seed=seed)
            assert rep.violations == 0 and rep.passed

    def test_undersampled_fails(self):
        dec = check_decoder()
        op = sensing.sensing_new("dense_gaussian", 1, 64, 4)
        rep = analysis.wnu_check(op, dec, nu=1.0, eps=0.3, pairs=500, seed=3)
        assert rep.violations > 0

    def test_polarization_identity(self):
        for kind, n, p in [("dense_gaussian", 24, 32), ("partial_circulant", 12, 32)]:
            op = sensing.sensing_new(kind, n, p, 9)
            rep = analysis.polarization_check(op, pairs=100, seed=7)
            assert rep.violations == 0 and rep.worst_margin <= 1e-9


class TestMvt:
    def test_linear_link_exact_equality_zero_slack(self):
        op = sensing.sensing_new("dense_gaussian", 25, 12, 1)
        rep = analysis.mvt_check(op, measurement.linear_link(), triples=100, seed=0)
        assert rep.violations == 0
        assert rep.worst_margin == 0.0  # l = u = 1 makes both bounds tight

    def test_shifted_cosine_zero_violations(self):
        op = sensing.sensing_new("dense_gaussian", 25, 12, 2)
        rep = analysis.mvt_check(op, measurement.shifted_cosine_link(),
                                 triples=100, seed=1)
        assert rep.violations == 0 and rep.worst_margin >= 0.0

    def test_sign_link_rejected(self):
        op = sensing.sensing_new("dense_gaussian", 5, 4, 0)
        with pytest.raises(UnsupportedOperationError):
            analysis.mvt_check(op, measurement.sign_dithered_link(0.1),
                               triples=5, seed=0)

    def test_coincident_points_all_zero(self):
        op = sensing.sensing_new("dense_gaussian", 10, 6, 3)
        link = measurement.shifted_cosine_link()
        x = np.random.default_rng(4).standard_normal(6)
        t = sensing.apply(op, x)
        assert np.linalg.norm(measurement.link_eval(link, t)
                              - measurement.link_eval(link, t)) == 0.0
        assert np.linalg.norm(t - t) == 0.0


class TestAdjointAndGradientChecks:
    def test_adjoint_check_passes_both_kinds(self):
        for kind, n, p in [("dense_gaussian", 30, 50), ("partial_circulant", 20, 50)]:
            op = sensing.sensing_new(kind, n, p, 6)
            rep = analysis.adjoint_check(op, trials=100, seed=8)
            assert rep.violations == 0 and rep.worst_margin <= 1e-10

    def test_gradient_check_passes(self):
        dec = genmodel.decoder_new(3, 4, [8], 24, 3.0, "tanh", 1.0)
        op = sensing.sensing_new("dense_gaussian", 40, 24, 7)
        rep = analysis.gradient_check(op, measurement.shifted_cosine_link(),
                                      dec, points=10, seed=9)
        assert rep.violations == 0 and rep.passed


def small_decoder(weight_scale=1.0):
    return genmodel.decoder_new(1, k=2, hidden_dims=[4], p=8, r=3.0,
                                activation="identity",
                                weight_scale=weight_scale)


# each check on a dense operator and decoder of p = 8, with a few trials
CHECKS = {
    "tsrec": lambda op, dec: analysis.tsrec_check(op, dec, 0.5, 0.01, 20, 1),
    "jle": lambda op, dec: analysis.jle_check(op, np.ones((20, 8)), 0.5),
    "wnu": lambda op, dec: analysis.wnu_check(op, dec, 1.0, 0.3, 20, 1),
    "polarization": lambda op, dec: analysis.polarization_check(op, 20, 1),
    "mvt": lambda op, dec: analysis.mvt_check(
        op, measurement.shifted_cosine_link(), 20, 1),
    "adjoint": lambda op, dec: analysis.adjoint_check(op, 20, 1),
    "gradients": lambda op, dec: analysis.gradient_check(
        op, measurement.linear_link(), dec, 3, 1),
}


class TestVerdicts:
    @pytest.mark.parametrize("check, fault", [
        *((check, "nan entry") for check in CHECKS), ("gradients", "overflow")])
    def test_non_finite_results_fail(self, check, fault):
        # each check passes at these sizes, and fails once one operator entry
        # is NaN or the decoder overflows: a comparison with NaN is false, so
        # a trial fails unless its pass condition holds, and the worst margin
        # keeps the NaN
        op = sensing.sensing_new("dense_gaussian", 200, 8, 0)
        rep = CHECKS[check](op, small_decoder())
        assert rep.passed and np.isfinite(rep.worst_margin)
        if fault == "nan entry":
            op.matrix[100, 3] = np.nan
        with np.errstate(all="ignore"):
            rep = CHECKS[check](op, small_decoder(
                1e200 if fault == "overflow" else 1.0))
        assert rep.violations > 0 and not rep.passed
        assert not np.isfinite(rep.worst_margin)

    def test_jle_skips_a_zero_point_but_not_a_nan_one(self):
        op = sensing.sensing_new("dense_gaussian", 200, 8, 0)
        points = np.ones((3, 8))
        points[0], points[1, 0] = 0.0, np.nan
        rep = analysis.jle_check(op, points, 0.5)
        assert rep.violations == 1 and np.isnan(rep.worst_margin)

    @pytest.mark.parametrize("suite", cli.CHECK_SUITES)
    def test_default_seed_reports_allow_no_violation(self, suite):
        reports = cli._run_suite(suite, cli.DEFAULT_CHECK_SEED, None)
        for rep in reports:
            assert list(rep.params.items())[-1] == ("allowed_violations", 0)
            assert rep.passed == (rep.violations == 0)


class TestContractionFit:
    def test_exact_geometric_series(self):
        traj = Trajectory(error_to_target=[0.5 ** t for t in range(20)])
        slope, floor = analysis.contraction_fit(traj, 1e-12)
        assert abs(slope - math.log(0.5)) <= 1e-9
        assert floor == 0.5 ** 19

    def test_constant_series_zero_slope(self):
        traj = Trajectory(error_to_target=[2.0] * 10)
        slope, _ = analysis.contraction_fit(traj, 1e-12)
        assert abs(slope) <= 1e-12

    def test_insufficient_data(self):
        traj = Trajectory(error_to_target=[1.0, 0.5, 1e-15])
        with pytest.raises(InsufficientDataError):
            analysis.contraction_fit(traj, 1e-8)
        with pytest.raises(InsufficientDataError):
            analysis.contraction_fit(Trajectory(), 1e-8)


def tiny_noiseless_setup(seed=5):
    dec = genmodel.orthonormal_linear_decoder(seed, 3, 32, 3.0)
    link = measurement.linear_link()
    cfg = SolverConfig(step_size=1.0, iterations=40,
                       projection=ProjectionConfig(),
                       x0_mode="zero", seed=0)
    return analysis.TrialSetup(decoder=dec, link=link,
                               solver_kind="pgd_glasso", solver_cfg=cfg)


def counting_setters(blas, sets):
    """blas's (get, set) pairs with each set counted in sets by process id."""
    def counted(put):
        def put_counted(count):
            sets[os.getpid()] += 1
            return put(count)
        return put_counted

    return tuple((get, counted(put)) for get, put in blas)


class TestTrials:
    @pytest.mark.parametrize("observation", ["sim", "known"])
    def test_draw_instance_plants_one_signal(self, observation):
        # both modes decode G(z*) at the latent of the "signal" seed; sim
        # mode scales it to unit norm and targets mu x*, known mode
        # targets x* itself
        dec = check_decoder()
        link = measurement.shifted_cosine_link()
        kind = "pgd_glasso" if observation == "sim" else "pgd_nlasso"
        setup = analysis.TrialSetup(
            decoder=dec, link=link, solver_kind=kind,
            solver_cfg=SolverConfig(step_size=1.0), observation=observation)
        _, _, x, target = analysis._draw_instance(setup, 40, 3)
        z = genmodel.sample_latent(dec, derive_seed(3, "signal"))
        assert np.linalg.norm(z) <= 0.9 * dec.latent_radius + 1e-12
        g = genmodel.forward(dec, z)
        if observation == "sim":
            assert np.array_equal(x, g / np.linalg.norm(g))
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
            assert np.array_equal(target, link.mu * x)
        else:
            assert np.array_equal(x, g)
            assert np.array_equal(target, x)
        # the other mode does not match the solver: no target
        other = replace(setup, observation=({"sim": "known", "known": "sim"}
                                            [observation]))
        assert analysis._draw_instance(other, 40, 3)[3] is None

    def test_run_trial_record_fields(self):
        [rec] = analysis.run_trials(tiny_noiseless_setup(), n=40, seeds=[1])
        assert rec.n == 40
        assert rec.error <= 1e-8
        assert rec.cosine >= 0.999999
        assert rec.loss >= 0.0

    def test_mismatched_solver_observation_has_nan_error(self):
        setup = tiny_noiseless_setup()
        setup = analysis.TrialSetup(
            decoder=setup.decoder, link=setup.link, solver_kind="pgd_glasso",
            solver_cfg=setup.solver_cfg, observation="known")
        [rec] = analysis.run_trials(setup, n=40, seeds=[1])
        assert math.isnan(rec.error)
        assert -1.0 <= rec.cosine <= 1.0

    @pytest.mark.parametrize("change, message", [
        ({"observation": "simulated"}, "unknown observation mode"),
        ({"solver_kind": "pgd_lasso"}, "unknown solver kind")])
    def test_unknown_choice_rejected_at_construction(self, change, message):
        with pytest.raises(ValueError, match=message):
            replace(tiny_noiseless_setup(), **change)

    # one rule and one message whatever the observation mode, before any draw
    @pytest.mark.parametrize("observation", analysis.OBSERVATIONS)
    def test_nlasso_with_sign_link_rejected_at_construction(self,
                                                            observation):
        with pytest.raises(UnsupportedOperationError,
                           match="^pgd_nlasso needs a differentiable link$"):
            replace(tiny_noiseless_setup(), solver_kind="pgd_nlasso",
                    link=measurement.sign_dithered_link(0.1),
                    observation=observation)


# The paper's first claim on the one-bit path: with an unknown link, no
# representation error (a zero-bias ReLU decoder is positively homogeneous,
# so the unit-norm planted signal stays in its range) and Gaussian sensing,
# PGD-GLasso's median error falls as 1/sqrt(n), a ratio of 2 from n = 250 to
# n = 1000. Proof runs, rate seeds 0-19 at 30 trials: ratios 1.785 to 2.252,
# mean 2.012, sd 0.131. The band keeps at least 1.4 sd outside each of them.
ONE_BIT_RATIO_BAND = (1.6, 2.5)


class TestRateExperiment:
    def test_one_bit_rate_at_zero_representation_error(self):
        dec = genmodel.decoder_new(101, 8, [32], 256, 3.0, "relu", 1.0)
        cfg = SolverConfig(step_size=solvers.NU_DEFAULT, iterations=30,
                           projection=ProjectionConfig(steps=200, restarts=2),
                           x0_mode="zero")
        setup = analysis.TrialSetup(
            decoder=dec, link=measurement.sign_dithered_link(0.1),
            solver_kind="pgd_glasso", solver_cfg=cfg)
        table = analysis.rate_experiment([250, 1000], 30, setup, seed=424242)
        ratio = table.rows[0].median_error / table.rows[1].median_error
        lo, hi = ONE_BIT_RATIO_BAND
        assert lo <= ratio <= hi, f"ratio {ratio:.3f} outside [{lo}, {hi}]"

    def test_noiseless_floor_and_shape(self):
        table = analysis.rate_experiment([40, 80], 10, tiny_noiseless_setup(),
                                         seed=3)
        assert [r.n for r in table.rows] == [40, 80]
        for row in table.rows:
            assert row.median_error <= 1e-9
            assert row.trials == 10
            assert row.q25 <= row.median_error <= row.q75
        assert table.solver_kind == "pgd_glasso"

    def test_threaded_run_matches_serial(self):
        setup = tiny_noiseless_setup()
        a = analysis.rate_experiment([40, 80], 10, setup, seed=3, threads=1)
        b = analysis.rate_experiment([40, 80], 10, setup, seed=3, threads=2)
        assert a == b

    @pytest.mark.parametrize("kind", ["dense_gaussian", "partial_circulant"])
    def test_wide_decoder_table_does_not_depend_on_threads(self, kind,
                                                           two_blas_threads):
        # at the `model new` decoder OpenBLAS rounds differently at one and
        # two threads, so the serial path must compute with one thread too
        dec = genmodel.decoder_new(0, 20, [500, 500], 784, 3.0, "tanh", 1.0)
        cfg = SolverConfig(step_size=1.0, iterations=3, x0_mode="zero")
        setup = analysis.TrialSetup(decoder=dec, link=measurement.linear_link(),
                                    solver_kind="pgd_glasso", solver_cfg=cfg,
                                    sensing_kind=kind)
        a = analysis.rate_experiment([200], 10, setup, seed=1, threads=1)
        b = analysis.rate_experiment([200], 10, setup, seed=1, threads=2)
        assert a == b

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rate_jobs_run_with_one_blas_thread(self, threads,
                                                two_blas_threads, monkeypatch):
        if not two_blas_threads:
            pytest.skip("no OpenBLAS loaded")
        get = two_blas_threads[0][0]
        real = analysis.run_trials

        def spy(setup, n, seeds):  # each error reads the job's thread count
            return [replace(r, error=float(get()))
                    for r in real(setup, n, seeds)]

        monkeypatch.setattr(analysis, "run_trials", spy)
        table = analysis.rate_experiment([40, 80], 10, tiny_noiseless_setup(),
                                         seed=3, threads=threads)
        assert {(r.q25, r.q75) for r in table.rows} == {(1.0, 1.0)}
        assert [g() for g, _ in two_blas_threads] == [2] * len(two_blas_threads)

    def test_blas_thread_count_restored_when_a_job_raises(self,
                                                          two_blas_threads,
                                                          monkeypatch):
        if not two_blas_threads:
            pytest.skip("no OpenBLAS loaded")

        def fail(setup, n, seeds):
            raise RuntimeError("job failed")

        monkeypatch.setattr(analysis, "run_trials", fail)
        with pytest.raises(RuntimeError, match="job failed"):
            analysis.rate_experiment([40], 10, tiny_noiseless_setup(), seed=3)
        assert [g() for g, _ in two_blas_threads] == [2] * len(two_blas_threads)

    def test_workers_inherit_the_pin(self, two_blas_threads, monkeypatch):
        # the parent pins one BLAS thread before it forks, and no worker
        # sets the count: the first set after a fork restarts OpenBLAS's
        # thread pool, whose new helper busy-waits beside the worker
        if not two_blas_threads:
            pytest.skip("no OpenBLAS loaded")
        sets = collections.Counter()
        monkeypatch.setattr(analysis, "_openblas",
                            lambda: counting_setters(two_blas_threads, sets))
        get = two_blas_threads[0][0]
        real = analysis.run_trials

        def spy(setup, n, seeds):  # 100 x the worker's sets + its count
            value = float(100 * sets[os.getpid()] + get())
            return [replace(r, error=value) for r in real(setup, n, seeds)]

        monkeypatch.setattr(analysis, "run_trials", spy)
        # two grid points of one group each: one job per worker
        table = analysis.rate_experiment([40, 80], 10, tiny_noiseless_setup(),
                                         seed=3, threads=2)
        assert {(r.q25, r.median_error, r.q75) for r in table.rows} == {
            (1.0, 1.0, 1.0)}
        assert [g() for g, _ in two_blas_threads] == [2] * len(two_blas_threads)

    def test_one_blas_thread_leaves_a_count_of_one_alone(self, blas_threads,
                                                         monkeypatch):
        blas = blas_threads(1)
        if not blas:
            pytest.skip("no OpenBLAS loaded")
        sets = collections.Counter()
        monkeypatch.setattr(analysis, "_openblas",
                            lambda: counting_setters(blas, sets))
        with analysis._one_blas_thread():
            assert [g() for g, _ in blas] == [1] * len(blas)
        assert not sets
        assert [g() for g, _ in blas] == [1] * len(blas)

    def test_one_job_runs_in_process(self, monkeypatch):
        # a one-point dense grid at p = 32 forms a single group, which a
        # pool could not speed up
        setup = tiny_noiseless_setup()
        serial = analysis.rate_experiment([40], 10, setup, seed=3)

        def no_pool(*args):
            raise AssertionError("a pool was started for one job")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert analysis.rate_experiment([40], 10, setup, seed=3,
                                        threads=2) == serial

    def test_pool_forks_at_most_one_worker_per_job(self, monkeypatch):
        # fork, so that workers inherit the pin (forkserver is the Linux
        # default from Python 3.14)
        real = concurrent.futures.ProcessPoolExecutor
        pools = []

        def pool(max_workers, mp_context):
            pools.append((max_workers, mp_context.get_start_method()))
            return real(max_workers, mp_context)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        setup = tiny_noiseless_setup()
        table = analysis.rate_experiment([40, 80], 10, setup, seed=3,
                                         threads=8)
        assert pools == [(2, "fork")]
        assert table == analysis.rate_experiment([40, 80], 10, setup, seed=3)

    def test_validation(self):
        setup = tiny_noiseless_setup()
        with pytest.raises(ValueError):
            analysis.rate_experiment([40], 5, setup, seed=0)  # too few trials
        with pytest.raises(ValueError):
            analysis.rate_experiment([], 10, setup, seed=0)
        bad = analysis.TrialSetup(decoder=setup.decoder, link=setup.link,
                                  solver_kind="pgd_glasso",
                                  solver_cfg=setup.solver_cfg,
                                  observation="known")
        with pytest.raises(ValueError):
            analysis.rate_experiment([40], 10, bad, seed=0)

    @pytest.mark.parametrize("kind, grid, cap", [
        ("dense_gaussian", [40, 0], analysis.N_CAP),
        ("dense_gaussian", [-5], analysis.N_CAP),
        ("dense_gaussian", [40, analysis.N_CAP + 1], analysis.N_CAP),
        ("partial_circulant", [20, 33], 32)])
    def test_grid_size_rule_before_any_draw(self, monkeypatch, kind, grid,
                                            cap):
        def no_draw(*args):
            raise AssertionError("an operator was drawn")
        monkeypatch.setattr(sensing, "sensing_new", no_draw)
        setup = replace(tiny_noiseless_setup(), sensing_kind=kind)
        with pytest.raises(ValueError,
                           match=rf"^grid: need 1 <= n <= {cap}, got "):
            analysis.rate_experiment(grid, 10, setup, seed=0)

    @pytest.mark.parametrize("factor", [-1.0, 0.0, 1.0, 1000.0, float("nan")])
    def test_delta_outside_zero_to_lr_rejected(self, factor):
        setup = tiny_noiseless_setup()
        lr = setup.decoder.lipschitz * setup.decoder.latent_radius
        with pytest.raises(ValueError, match=r"delta must be in \(0, L r\)"):
            analysis.rate_experiment([40], 10,
                                     replace(setup, delta=factor * lr), seed=0)

    def test_serialization(self, tmp_path):
        table = analysis.rate_experiment([40, 80], 10, tiny_noiseless_setup(),
                                         seed=3)
        path = tmp_path / "rate.csv"
        cli._write_rate_csv(table, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,trials,median_error,q25,q75,predicted,ratio"
        assert len(lines) == 3
