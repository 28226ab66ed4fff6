"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they complete. All randomness is frozen; the suite is
deterministic on one platform.
"""

import functools
import json
import math
import os
import time

import numpy as np

from genprior import analysis, cli, genmodel, measurement, sensing, solvers
from genprior.projection import ProjectionConfig
from genprior.seeding import derive_seed
from genprior.solvers import SolverConfig
import oracles
from oracles import MU_MC_SEED, mu_mc_estimate


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            start = time.time()
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"\nACCEPTANCE {num}: FAIL - {desc}")
                raise
            print(f"\nACCEPTANCE {num}: PASS - {desc} "
                  f"[{time.time() - start:.1f}s]")
        return wrapper
    return deco


def synthetic_decoder():
    """The tanh decoder used by the quantitative experiments."""
    return genmodel.decoder_new(101, 8, [32], 256, 3.0, "tanh", 1.0)


DEFAULT_PROJ = ProjectionConfig(steps=200, learning_rate=0.03, restarts=2)


@criterion(1, "operator correctness (adjoint identity, circulant vs dense)")
def test_criterion_1_operator_correctness():
    for kind, n, p in [("dense_gaussian", 50, 80), ("dense_gaussian", 200, 120),
                       ("partial_circulant", 5, 8), ("partial_circulant", 37, 64)]:
        op = sensing.sensing_new(kind, n, p, derive_seed(1, kind, n))
        rng = np.random.default_rng(derive_seed(1, "vectors", n))
        for _ in range(100):
            x = rng.standard_normal(p)
            v = rng.standard_normal(n)
            lhs = float(sensing.apply(op, x) @ v)
            rhs = float(x @ sensing.adjoint_apply(op, v))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)
    for p in (5, 8, 33, 64):
        op = sensing.sensing_new("partial_circulant", max(1, p // 2), p,
                                 derive_seed(1, "circ", p))
        dense = oracles.materialize(op)
        rng = np.random.default_rng(derive_seed(1, "circ-x", p))
        for _ in range(100):
            x = rng.standard_normal(p)
            assert np.max(np.abs(sensing.apply(op, x) - dense @ x)) <= 1e-10


@criterion(2, "gradient correctness (losses 1e-5, decoder vjp 1e-4)")
def test_criterion_2_gradient_correctness():
    op = sensing.sensing_new("dense_gaussian", 40, 24, derive_seed(2, "op"))
    link = measurement.shifted_cosine_link()
    dec = genmodel.decoder_new(derive_seed(2, "dec"), 4, [8], 24, 3.0,
                               "tanh", 1.0)
    rng = np.random.default_rng(derive_seed(2, "points"))
    y = rng.standard_normal(40)
    h = 1e-6
    for _ in range(50):
        x = rng.standard_normal(24)
        for grad, loss in (
                (solvers.grad_glasso(op, y, x),
                 lambda v: solvers.loss_glasso(op, y, v)),
                (solvers.grad_nlasso(op, y, link, x),
                 lambda v: solvers.loss_nlasso(op, y, link, v))):
            for j in range(24):
                e = np.zeros(24)
                e[j] = h
                fd = (loss(x + e) - loss(x - e)) / (2 * h)
                assert abs(fd - grad[j]) <= 1e-5 * max(abs(grad[j]), 1e-8)
    hv = 1e-5
    for _ in range(50):
        z = rng.standard_normal(4) * 0.5
        v = rng.standard_normal(24)
        g = genmodel.vjp(dec, z, v)
        for j in range(4):
            e = np.zeros(4)
            e[j] = hv
            fd = (genmodel.forward(dec, z + e)
                  - genmodel.forward(dec, z - e)) @ v / (2 * hv)
            assert abs(fd - g[j]) <= 1e-4 * max(abs(g[j]), 1e-8)


@criterion(3, "geometric convergence with the default projection, exact on "
              "orthonormal decoders, at k=8, p=256, n=120")
def test_criterion_3_exact_projection_convergence():
    # per seed: all 10 arbitrary initializations must fall below 1e-8 within
    # 50 iterations (required in >= 18/20 seeds); the fitted log-slope is
    # assessed as the median over all 200 runs
    good_seeds = 0
    slopes = []
    for seed in range(20):
        dec = genmodel.orthonormal_linear_decoder(derive_seed(3, "dec", seed),
                                                  8, 256, 3.0)
        x_star = genmodel.forward(dec, genmodel.sample_latent(
            dec, derive_seed(3, "sig", seed)))
        x_star = x_star / np.linalg.norm(x_star)
        op = sensing.sensing_new("dense_gaussian", 120, 256,
                                 derive_seed(3, "op", seed))
        y = measurement.observe_sim(measurement.linear_link(), op, x_star,
                                    derive_seed(3, "obs", seed))
        all_hit = True
        for i in range(10):
            rng = np.random.default_rng(derive_seed(3, "init", 100 * seed + i))
            x0 = rng.standard_normal(256) * rng.uniform(0.5, 4.0)
            cfg = SolverConfig(step_size=1.0, iterations=50,
                               projection=ProjectionConfig(),
                               x0_mode="given", x0=x0, seed=i)
            _, traj = solvers.pgd_glasso(op, y, dec, cfg,
                                         target=x_star)
            errs = np.asarray(traj.error_to_target)
            if not (errs < 1e-8).any():
                all_hit = False
            slope, _ = analysis.contraction_fit(traj, 1e-8)
            slopes.append(slope)
        good_seeds += all_hit
    assert good_seeds >= 18, f"only {good_seeds}/20 seeds converged"
    med = float(np.median(slopes))
    assert med <= math.log(0.5), f"median slope {med:.3f} > log(0.5)"


@criterion(4, "contraction-condition boundary values")
def test_criterion_4_contraction_boundary():
    # 0.05 is exact in real arithmetic; binary rounding leaves one ulp
    assert abs(solvers.mu1_of(1.0, 0.05) - 0.05) <= 1e-15
    assert solvers.mu2_of(0.2, 1.5, 2.5, 0.0) == 0.55
    assert 2 * solvers.mu2_of(0.2, 1.5, 2.5, 0.0) == 1.1
    assert solvers.mu2_of(0.23, 1.5, 2.5, 0.0) < 0.5


@criterion(5, "statistical rate: median error ratio n=250 vs n=1000 in [1.6, 2.6]")
def test_criterion_5_statistical_rate():
    dec = synthetic_decoder()
    link = measurement.shifted_cosine_link(sigma=0.1)
    cfg = SolverConfig(step_size=solvers.ZETA_THEORY, iterations=30,
                       projection=DEFAULT_PROJ, x0_mode="zero")
    setup = analysis.TrialSetup(decoder=dec, link=link,
                                solver_kind="pgd_nlasso", solver_cfg=cfg)
    table = analysis.rate_experiment([250, 1000], 30, setup, seed=424242)
    ratio = table.rows[0].median_error / table.rows[1].median_error
    assert 1.6 <= ratio <= 2.6, f"ratio {ratio:.3f} outside [1.6, 2.6]"


@criterion(6, "known-link advantage: PGD-N cosine >= PGD-G at small n")
def test_criterion_6_known_vs_unknown():
    dec = synthetic_decoder()
    link = measurement.shifted_cosine_link(sigma=0.1)
    n = 100
    medians = {}
    for kind, step in (("pgd_nlasso", solvers.ZETA_DEFAULT),
                       ("pgd_glasso", solvers.NU_DEFAULT)):
        cfg = SolverConfig(step_size=step, iterations=30,
                           projection=DEFAULT_PROJ, x0_mode="zero")
        setup = analysis.TrialSetup(decoder=dec, link=link, solver_kind=kind,
                                    solver_cfg=cfg, observation="known")
        records = analysis.run_trials(
            setup, n, [derive_seed(6, kind, i) for i in range(30)])
        cosines = [r.cosine for r in records]
        medians[kind] = float(np.median(cosines))
    assert medians["pgd_nlasso"] >= medians["pgd_glasso"], medians


@criterion(7, "concentration checks with frozen constants")
def test_criterion_7_concentration_checks():
    dec = genmodel.decoder_new(11, 4, [16], 64, 3.0, "tanh", 1.0)
    lr = dec.lipschitz * dec.latent_radius
    # frozen calibrations: C = 8 for the two-sided condition at eps = 0.5,
    # C = 1 for the inner-product bound at eps = 0.3
    n_tsrec = math.ceil(8 * dec.latent_dim * math.log(lr / 0.01))
    n_wnu = math.ceil(dec.latent_dim / 0.3 ** 2 * math.log(lr / 1e-3))
    for seed in range(10):
        op = sensing.sensing_new("dense_gaussian", n_tsrec, 64,
                                 derive_seed(7, "tsrec-op", seed))
        rep = analysis.tsrec_check(op, dec, eps=0.5, delta=0.01, pairs=1000,
                                   seed=derive_seed(7, "tsrec", seed))
        assert rep.violations == 0, f"tsrec seed {seed}: {rep.violations}"
        op = sensing.sensing_new("dense_gaussian", 200, 64,
                                 derive_seed(7, "jle-op", seed))
        pts = np.random.default_rng(
            derive_seed(7, "jle-pts", seed)).standard_normal((100, 64))
        rep = analysis.jle_check(op, pts, eps=0.5)
        assert rep.violations == 0, f"jle seed {seed}: {rep.violations}"
        op = sensing.sensing_new("dense_gaussian", n_wnu, 64,
                                 derive_seed(7, "wnu-op", seed))
        rep = analysis.wnu_check(op, dec, nu=1.0, eps=0.3, pairs=500,
                                 seed=derive_seed(7, "wnu", seed))
        assert rep.violations == 0, f"wnu seed {seed}: {rep.violations}"
    # undersampled operators must fail deterministically
    op1 = sensing.sensing_new("dense_gaussian", 1, 64, derive_seed(7, "n1"))
    assert analysis.tsrec_check(op1, dec, 0.5, 0.01, 1000,
                                derive_seed(7, "t1")).violations > 0
    pts = np.random.default_rng(derive_seed(7, "j1")).standard_normal((100, 64))
    assert analysis.jle_check(op1, pts, 0.5).violations > 0
    assert analysis.wnu_check(op1, dec, 1.0, 0.3, 500,
                              derive_seed(7, "w1")).violations > 0
    # derivative sandwich holds with zero slack
    op = sensing.sensing_new("dense_gaussian", 60, 40, derive_seed(7, "mvt-op"))
    rep_lin = analysis.mvt_check(op, measurement.linear_link(), 100,
                                 derive_seed(7, "mvt-lin"))
    assert rep_lin.violations == 0 and rep_lin.worst_margin == 0.0
    rep_cos = analysis.mvt_check(op, measurement.shifted_cosine_link(), 100,
                                 derive_seed(7, "mvt-cos"))
    assert rep_cos.violations == 0 and rep_cos.worst_margin >= 0.0


@criterion(8, "link gain values (quadrature, closed form and Monte Carlo)")
def test_criterion_8_link_gains():
    assert abs(measurement.mu_of_link(measurement.linear_link()) - 1.0) <= 1e-12
    assert abs(measurement.mu_of_link(measurement.shifted_cosine_link())
               - 2.0) <= 1e-8
    link = measurement.sign_dithered_link(0.1)
    closed_form = math.sqrt(2.0 / (math.pi * (1.0 + 0.1 ** 2)))
    assert abs(link.mu - closed_form) <= 1e-12
    mc, stderr = mu_mc_estimate(link, 1_000_000, MU_MC_SEED)
    assert abs(mc - closed_form) <= 3 * stderr


@criterion(9, "one-bit path: median cosine >= 0.9 at n=400")
def test_criterion_9_one_bit():
    dec = synthetic_decoder()
    link = measurement.sign_dithered_link(0.1)
    cfg = SolverConfig(step_size=solvers.NU_DEFAULT, iterations=30,
                       projection=DEFAULT_PROJ, x0_mode="zero")
    setup = analysis.TrialSetup(decoder=dec, link=link,
                                solver_kind="pgd_glasso", solver_cfg=cfg)
    records = analysis.run_trials(
        setup, 400, [derive_seed(9, "trial", i) for i in range(30)])
    cosines = [r.cosine for r in records]
    med = float(np.median(cosines))
    assert med >= 0.9, f"median cosine {med:.3f} < 0.9"


@criterion(10, "CLI determinism: identical bytes on re-run")
def test_criterion_10_cli_determinism(tmp_path):
    cfg = {
        "master_seed": 31,
        "decoder": {"family": "mlp", "k": 4, "layer_dims": [12], "p": 48,
                    "r": 3.0, "activation": "tanh", "weight_scale": 1.0},
        "sensing": {"kind": "partial_circulant", "n": 32},
        "link": {"kind": "shifted_cosine", "sigma": 0.1},
        "solver": {"kind": "pgd_nlasso", "step_size": 0.23, "iterations": 5,
                   "projection": {"steps": 60, "restarts": 2}},
        "experiment": {"grid": [24, 48], "trials": 10},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def tree(root):
        return {name: open(os.path.join(root, name), "rb").read()
                for name in sorted(os.listdir(root))}

    for command in ("solve", "rate"):
        a = tmp_path / f"{command}-a"
        b = tmp_path / f"{command}-b"
        assert cli.main([command, "--config", str(cfg_path), "--out", str(a),
                         "--quiet"]) == 0
        assert cli.main([command, "--config", str(cfg_path), "--out", str(b),
                         "--quiet"]) == 0
        assert tree(a) == tree(b), f"{command} outputs differ between runs"
