import math

import numpy as np
import pytest

from genprior import measurement, sensing
from genprior.errors import UnsupportedOperationError
from oracles import mu_mc_estimate


def sign_link_gain_closed_form(sigma_d):
    # E[sign(g + e) g] for g ~ N(0,1), e ~ N(0, sigma_d^2)
    return math.sqrt(2.0 / (math.pi * (1.0 + sigma_d ** 2)))


class TestLinkEval:
    def test_shifted_cosine_at_zero(self):
        link = measurement.shifted_cosine_link()
        assert measurement.link_eval(link, 0.0) == 0.5

    def test_linear_identity(self):
        link = measurement.linear_link()
        assert measurement.link_eval(link, 1.7) == 1.7

    def test_sign_of_negative_without_dither(self):
        link = measurement.sign_dithered_link(0.0)
        assert measurement.link_eval(link, -0.2, seed=1) == -1.0

    def test_sign_requires_seed(self):
        link = measurement.sign_dithered_link(0.1)
        with pytest.raises(ValueError):
            measurement.link_eval(link, 0.3)

    def test_sign_outputs_are_binary(self):
        link = measurement.sign_dithered_link(0.1)
        out = measurement.link_eval(link, np.linspace(-2, 2, 1000), seed=4)
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_custom_monotone(self):
        link = measurement.custom_monotone_link(
            lambda t: 3.0 * t + math.sin(t), lambda t: 3.0 + math.cos(t),
            2.0, 4.0)
        assert measurement.link_eval(link, 0.0) == 0.0
        assert measurement.link_deriv(link, 0.0) == 4.0

    def test_custom_monotone_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            measurement.custom_monotone_link(
                lambda t: t, lambda t: 1.0, 2.0, 3.0)  # f' = 1 outside [2, 3]


class TestLinkDeriv:
    def test_shifted_cosine_at_zero(self):
        link = measurement.shifted_cosine_link()
        assert measurement.link_deriv(link, 0.0) == 2.0

    def test_shifted_cosine_bounds_on_sweep(self):
        link = measurement.shifted_cosine_link()
        d = measurement.link_deriv(link, np.linspace(-10, 10, 10_000))
        assert np.all(d >= 1.5) and np.all(d <= 2.5)

    def test_linear_is_one(self):
        link = measurement.linear_link()
        assert measurement.link_deriv(link, -3.3) == 1.0

    def test_sign_unsupported(self):
        link = measurement.sign_dithered_link(0.1)
        with pytest.raises(UnsupportedOperationError):
            measurement.link_deriv(link, 0.0)

    def test_monotonicity_on_grid(self):
        for link in (measurement.linear_link(), measurement.shifted_cosine_link()):
            vals = measurement.link_eval(link, np.linspace(-20, 20, 10_000))
            assert np.all(np.diff(vals) > 0)


class TestMu:
    def test_linear_gain_is_one(self):
        assert abs(measurement.mu_of_link(measurement.linear_link()) - 1.0) <= 1e-12

    def test_shifted_cosine_gain_is_two(self):
        # E[g cos g] = 0 by symmetry of sin, so the gain reduces to 2 E[g^2];
        # the quadrature value must agree with that hand computation.
        got = measurement.mu_of_link(measurement.shifted_cosine_link())
        assert abs(got - 2.0) <= 1e-8

    def test_closed_form_gains_are_exact(self):
        # E[g^2] = 1 and, g cos g being odd, E[(2g + 0.5 cos g) g] = 2; the
        # same link built as a custom one integrates to 2 by quadrature
        assert measurement.linear_link().mu == 1.0
        assert measurement.shifted_cosine_link().mu == 2.0
        custom = measurement.custom_monotone_link(
            lambda t: 2.0 * t + 0.5 * math.cos(t),
            lambda t: 2.0 - 0.5 * math.sin(t), 1.5, 2.5)
        assert abs(custom.mu - 2.0) <= 1e-12

    def test_sign_gain_matches_closed_form(self):
        link = measurement.sign_dithered_link(0.1)
        expected = sign_link_gain_closed_form(0.1)
        assert abs(link.mu - expected) <= 1e-12
        assert abs(link.mu - 0.7939) <= 0.003

    @pytest.mark.parametrize("sigma_d", [0.0, 0.5, 2.0])
    def test_sign_gain_matches_monte_carlo(self, sigma_d):
        link = measurement.sign_dithered_link(sigma_d)
        mu, stderr = mu_mc_estimate(link, 200_000, 6)
        assert abs(link.mu - mu) <= 4 * stderr

    def test_mc_estimator_self_consistency(self):
        link = measurement.linear_link()
        mu, stderr = mu_mc_estimate(link, 200_000, 5)
        assert abs(mu - 1.0) <= 4 * stderr


class TestLinkValidation:
    @pytest.mark.parametrize("build", [
        lambda: measurement.linear_link(sigma=-0.1),
        lambda: measurement.shifted_cosine_link(tau=-0.1),
        lambda: measurement.sign_dithered_link(-0.1),
        lambda: measurement.sign_dithered_link(0.1, tau=-0.1),
        lambda: measurement.linear_link(sigma=float("nan")),
        lambda: measurement.custom_monotone_link(
            lambda t: t, lambda t: 1.0, 1.0, 1.0, sigma=-1.0),
    ], ids=["linear-sigma", "cosine-tau", "sign-sigma_d", "sign-tau",
            "linear-nan-sigma", "custom-sigma"])
    def test_negative_noise_parameters_rejected(self, build):
        with pytest.raises(ValueError, match="must be nonnegative"):
            build()


class TestCorrupt:
    def test_zero_budget_is_identity(self):
        y = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(measurement.corrupt(y, 0.0, 1), y)

    def test_exact_norm(self):
        y = np.zeros(4)
        out = measurement.corrupt(y, 0.5, 9)
        assert abs(np.linalg.norm(out - y) - 1.0) <= 1e-12

    def test_distinct_directions_equal_norms(self):
        y = np.zeros(16)
        outs = [measurement.corrupt(y, 0.1, s) for s in range(100)]
        norms = [np.linalg.norm(o) for o in outs]
        assert np.allclose(norms, 0.1 * 4.0, atol=1e-12)
        dirs = {tuple(np.round(o / np.linalg.norm(o), 6)) for o in outs}
        assert len(dirs) == 100


class TestObserveSim:
    def _setup(self, n=32, p=16, seed=0):
        op = sensing.sensing_new("dense_gaussian", n, p, seed)
        x = np.random.default_rng(seed + 1).standard_normal(p)
        return op, x / np.linalg.norm(x)

    def test_linear_link_no_corruption(self):
        op, x = self._setup()
        link = measurement.linear_link()
        y = measurement.observe_sim(link, op, x, 3)
        assert np.array_equal(y, sensing.apply(op, x))

    def test_requires_unit_norm(self):
        op, x = self._setup()
        with pytest.raises(ValueError):
            measurement.observe_sim(measurement.linear_link(), op, 2.0 * x, 3)

    def test_sign_outputs_binary(self):
        op, x = self._setup()
        link = measurement.sign_dithered_link(0.1)
        y = measurement.observe_sim(link, op, x, 3)
        assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_sign_empirical_gain(self):
        # mean of y_i (a_i^T x*) over many rows estimates the link gain
        op, x = self._setup(n=100_000, p=8, seed=2)
        link = measurement.sign_dithered_link(0.1)
        y = measurement.observe_sim(link, op, x, 11)  # tau = 0: uncorrupted
        t = sensing.apply(op, x)
        assert abs(float(np.mean(y * t)) - link.mu) <= 0.01

    def test_corruption_budget_invariant(self):
        # the same seed without corruption gives the clean measurements
        op, x = self._setup()
        y = measurement.observe_sim(measurement.linear_link(tau=0.3), op, x, 5)
        clean = measurement.observe_sim(measurement.linear_link(), op, x, 5)
        gap = np.linalg.norm(y - clean) / np.sqrt(op.n)
        assert 0 < gap <= 0.3 + 1e-12


class TestObserveKnown:
    def test_noiseless_linear(self):
        op = sensing.sensing_new("dense_gaussian", 10, 6, 1)
        x = np.random.default_rng(2).standard_normal(6) * 3.0  # no norm constraint
        y = measurement.observe_known(measurement.linear_link(), op, x, 4)
        assert np.array_equal(y, sensing.apply(op, x))

    def test_gaussian_noise_level(self):
        op = sensing.sensing_new("dense_gaussian", 50_000, 4, 3)
        x = np.random.default_rng(4).standard_normal(4)
        link = measurement.shifted_cosine_link(sigma=0.1)
        y = measurement.observe_known(link, op, x, 6)  # tau = 0: uncorrupted
        t = sensing.apply(op, x)
        resid = y - measurement.link_eval(link, t)
        assert abs(np.std(resid) - 0.1) <= 0.005

    def test_corruption_budget_invariant(self):
        # the same seed without corruption draws the same noise
        op = sensing.sensing_new("dense_gaussian", 32, 16, 0)
        x = np.random.default_rng(1).standard_normal(16) * 3.0
        y, clean = (measurement.observe_known(
            measurement.shifted_cosine_link(sigma=0.1, tau=tau), op, x, 5)
            for tau in (0.3, 0.0))
        gap = np.linalg.norm(y - clean) / np.sqrt(op.n)
        assert 0 < gap <= 0.3 + 1e-12

    def test_sign_link_rejected(self):
        op = sensing.sensing_new("dense_gaussian", 10, 6, 1)
        x = np.zeros(6)
        with pytest.raises(UnsupportedOperationError):
            measurement.observe_known(measurement.sign_dithered_link(0.1), op, x, 0)

    def test_low_noise_preset_level(self):
        # the small-noise setting used for the larger image experiments
        link = measurement.shifted_cosine_link(sigma=0.01)
        assert link.sigma == 0.01


class TestMvtSandwichProperty:
    def test_sandwich_holds_for_random_pairs(self):
        op = sensing.sensing_new("dense_gaussian", 25, 12, 8)
        link = measurement.shifted_cosine_link()
        rng = np.random.default_rng(9)
        for _ in range(100):
            x1 = rng.standard_normal(12)
            x2 = rng.standard_normal(12)
            t1, t2 = sensing.apply(op, x1), sensing.apply(op, x2)
            base = np.linalg.norm(t1 - t2)
            mid = np.linalg.norm(measurement.link_eval(link, t1)
                                 - measurement.link_eval(link, t2))
            assert 1.5 * base <= mid <= 2.5 * base

