"""The lockstep trial engine: a group of trials against solo solves.

A group advances the trials of consecutive seeds together, with one batched
latent descent per PGD iteration (or one for the whole CSGM run). Its rows
never mix, so each trial must match its own ``solve_instance`` up to the
rounding difference between batched and single-row products, asserted to
1e-10 as in ``test_descent.py``. The runs are short: near a minimizer,
best-seen tracking settles near-ties by round-off.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genprior import analysis, genmodel, measurement, projection
from genprior.projection import ProjectionConfig
from genprior.seeding import derive_seed
from genprior.solvers import SolverConfig

TOL = 1e-10

KINDS = (("pgd_glasso", "sim", 1.0), ("pgd_nlasso", "known", 0.2),
         ("csgm", "sim", 1.0))
SENSING_KINDS = ("dense_gaussian", "partial_circulant")


def short_setup(kind, observation, step, sensing_kind, restarts=2):
    dec = genmodel.decoder_new(31, 3, [12], 20, 1.5, "tanh", 1.0)
    cfg = SolverConfig(step_size=step, iterations=3, x0_mode="zero",
                       projection=ProjectionConfig(steps=15,
                                                   restarts=restarts))
    return analysis.TrialSetup(
        decoder=dec, link=measurement.shifted_cosine_link(sigma=0.1),
        solver_kind=kind, solver_cfg=cfg, sensing_kind=sensing_kind,
        observation=observation)


def assert_matches_solo(got, solo):
    assert got.record.seed == solo.record.seed
    assert np.max(np.abs(got.x_hat - solo.x_hat)) <= TOL
    for field in ("loss_values", "error_to_target", "contraction_ratios"):
        np.testing.assert_allclose(getattr(got.trajectory, field),
                                   getattr(solo.trajectory, field),
                                   rtol=0, atol=TOL)
    for field in ("error", "cosine", "loss"):
        a, b = getattr(got.record, field), getattr(solo.record, field)
        assert a == b or abs(a - b) <= TOL, (field, a, b)


# KINDS at two restarts, and one PGD kind whose three restart chains each
# carry their own latent from one iteration to the next
GROUP_CASES = [pytest.param(*case, 2, id="-".join(map(str, case)))
               for case in KINDS] + [
    pytest.param("pgd_nlasso", "known", 0.2, 3, id="pgd_nlasso-restarts3")]


@pytest.mark.parametrize("kind,observation,step,restarts", GROUP_CASES)
@pytest.mark.parametrize("sensing_kind", SENSING_KINDS)
def test_group_matches_solo_solves(kind, observation, step, restarts,
                                   sensing_kind):
    setup = short_setup(kind, observation, step, sensing_kind, restarts)
    seeds = [derive_seed(4, "lockstep", i) for i in range(4)]
    solo = [analysis.solve_instance(setup, 12, s) for s in seeds]
    for size in (1, 2, 3, 4):
        group = analysis._solve_seeds(setup, 12, seeds[:size])
        assert len(group) == size
        for got, ref in zip(group, solo):
            assert_matches_solo(got, ref)
    records = analysis.run_trials(setup, 12, seeds)
    assert records == [r.record for r in analysis._solve_seeds(setup, 12, seeds)]
    assert analysis.run_trials(setup, 12, []) == []


@pytest.mark.parametrize("kind,observation,step", KINDS)
def test_non_finite_trial_leaves_the_others_alone(kind, observation, step,
                                                  monkeypatch):
    setup = short_setup(kind, observation, step, "dense_gaussian")
    seeds = [derive_seed(5, "lockstep", i) for i in range(3)]
    solo = [analysis.solve_instance(setup, 12, s) for s in seeds]
    poisoned = derive_seed(seeds[1], "observe")

    def poison(observe):
        def wrapper(link, op, x_star, seed):
            y = observe(link, op, x_star, seed)
            return np.full(op.n, np.nan) if seed == poisoned else y
        return wrapper

    for name in ("observe_sim", "observe_known"):
        monkeypatch.setattr(analysis, name, poison(getattr(analysis, name)))
    group = analysis._solve_seeds(setup, 12, seeds)
    assert math.isnan(group[1].record.loss)
    for i in (0, 2):
        assert_matches_solo(group[i], solo[i])


BUDGET = analysis.OPERATOR_BUDGET


@pytest.mark.parametrize("trials", [10, 11, 17, 30])
@pytest.mark.parametrize("n,p", [(250, 256), (1000, 256), (100, 784),
                                 (2048, 256), (40, 32)])
def test_split_keeps_seed_order_and_budget(trials, n, p):
    seeds = [derive_seed(0, "split", i) for i in range(trials)]
    groups = analysis._split_trials(seeds, n * p)
    assert [s for g in groups for s in g] == seeds
    sizes = [len(g) for g in groups]
    assert max(sizes) - min(sizes) <= 1
    assert all(size * n * p <= BUDGET for size in sizes)
    # the fewest groups the budget allows
    assert len(groups) == math.ceil(trials / (BUDGET // (n * p)))


def test_split_at_the_acceptance_decoder():
    seeds = list(range(10))
    assert [len(g) for g in analysis._split_trials(seeds, 250 * 256)] == [5, 5]
    assert [len(g) for g in analysis._split_trials(seeds, 1000 * 256)] == [2] * 5
    assert analysis._split_trials(seeds, 0) == [seeds]
    # an operator over the budget on its own still runs, one trial a group
    assert analysis._split_trials(seeds, BUDGET + 1) == [[s] for s in seeds]


def exact_setup(sensing_kind, p=32):
    dec = genmodel.orthonormal_linear_decoder(5, 3, p, 3.0)
    cfg = SolverConfig(step_size=1.0, iterations=10, x0_mode="zero",
                       projection=ProjectionConfig())
    return analysis.TrialSetup(decoder=dec, link=measurement.linear_link(),
                               solver_kind="pgd_glasso", solver_cfg=cfg,
                               sensing_kind=sensing_kind)


@pytest.mark.parametrize("sensing_kind,grid,p", [
    ("dense_gaussian", [32, 4096, 8192], 32),
    # 256 x 256 dense cells would make two groups of 10 trials
    ("partial_circulant", [16, 256], 256)])
def test_rate_experiment_runs_whole_groups(sensing_kind, grid, p, monkeypatch):
    setup = exact_setup(sensing_kind, p)
    calls = []
    real = analysis.run_trials

    def spy(setup, n, seeds):
        calls.append((n, list(seeds)))
        return real(setup, n, seeds)

    monkeypatch.setattr(analysis, "run_trials", spy)
    analysis.rate_experiment(grid, 10, setup, seed=3)
    for n in grid:
        seeds = [derive_seed(3, f"rate-n{n}", i) for i in range(10)]
        groups = [s for m, s in calls if m == n]
        if sensing_kind == "partial_circulant":
            assert groups == [seeds]
        else:
            assert groups == analysis._split_trials(seeds, n * p)
    if sensing_kind == "dense_gaussian":
        assert [len(s) for n, s in calls if n == 8192] == [2] * 5


def test_split_rate_table_does_not_depend_on_threads():
    setup = exact_setup("dense_gaussian")
    a = analysis.rate_experiment([4096, 8192], 10, setup, seed=8, threads=1)
    b = analysis.rate_experiment([4096, 8192], 10, setup, seed=8, threads=2)
    assert a == b


@settings(max_examples=40, deadline=None)
@given(targets=st.integers(1, 4), k=st.integers(1, 5),
       restarts=st.integers(1, 3),
       scale=st.floats(0.1, 20.0), seed=st.integers(0, 2 ** 32))
def test_batched_projection_stays_in_ball(targets, k, restarts, scale, seed):
    dec = genmodel.decoder_new(seed, k, [6], 9, 1.0, "tanh", 1.0)
    cfg = ProjectionConfig(steps=8, restarts=restarts)
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((targets, dec.ambient_dim))
    warm = [scale * rng.standard_normal(k) if t % 2 else None
            for t in range(targets)]
    start = projection._start_latents(dec, cfg, range(targets), "restart",
                                      warm)
    out = projection._project_rows(dec, x, cfg, start)[0]
    assert len(out) == targets
    for res in out:
        assert np.linalg.norm(res.z_hat) <= dec.latent_radius * (1 + 1e-12)
        assert 0 <= res.restart_index < restarts
