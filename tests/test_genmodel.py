import json
import math
import pickle

import numpy as np
import pytest

from genprior import analysis, cli, genmodel, measurement
from genprior.projection import ProjectionConfig
from genprior.solvers import SolverConfig

# a decoder of each family, by family name
FAMILIES = {"mlp": lambda: genmodel.decoder_new(13, 4, [16, 24], 32, 1.0),
            "orthonormal_linear":
                lambda: genmodel.orthonormal_linear_decoder(6, 4, 12, 1.0),
            "identity": lambda: genmodel.identity_decoder(3, 2.0)}


def straight_line_forward(dec, z):
    """Independent re-implementation of the layer chain (test oracle)."""
    h = np.array(z, dtype=float)
    for i, (w, b) in enumerate(dec.layers):
        h = w.dot(h) + b
        if i < len(dec.layers) - 1:
            if dec.activation == "tanh":
                h = np.tanh(h)
            elif dec.activation == "relu":
                h = np.where(h > 0, h, 0.0)
    return h


class TestConstruction:
    def test_mnist_scale_preset_dims(self):
        dec = genmodel.decoder_new(7, 20, [500, 500], 784, 3.0, "tanh", 1.0)
        assert dec.latent_dim == 20
        assert dec.ambient_dim == 784
        assert [w.shape for w, _ in dec.layers] == [(500, 20), (500, 500), (784, 500)]
        assert all(np.all(b == 0) for _, b in dec.layers)

    def test_identity_decoder_is_identity(self):
        dec = genmodel.identity_decoder(4, r=1.0)
        z = np.array([0.3, -0.1, 0.0, 0.0])
        assert np.array_equal(genmodel.forward(dec, z), z)

    def test_zero_weight_decoder_returns_bias_image(self):
        b_last = np.array([1.0, -2.0, 0.5])
        layers = ((np.zeros((2, 2)), np.zeros(2)), (np.zeros((3, 2)), b_last))
        dec = genmodel.GenerativeDecoder(2, 3, 1.0, layers, "tanh", 0, 1.0)
        assert np.array_equal(genmodel.forward(dec, np.array([5.0, -7.0])), b_last)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            genmodel.decoder_new(0, 0, [], 4, 1.0)
        with pytest.raises(ValueError):
            genmodel.decoder_new(0, 4, [], 2, 1.0)  # p < k
        with pytest.raises(ValueError):
            genmodel.decoder_new(0, 2, [-3], 4, 1.0)
        with pytest.raises(ValueError):
            genmodel.decoder_new(0, 2, [], 4, 0.0)  # r = 0
        with pytest.raises(ValueError):
            genmodel.decoder_new(0, 2, [], 4, 1.0, weight_scale=0.0)

    @pytest.mark.parametrize("r", [-1.0, float("nan")])
    @pytest.mark.parametrize("build", [
        lambda r: genmodel.decoder_new(0, 2, [3], 4, r),
        lambda r: genmodel.orthonormal_linear_decoder(0, 2, 4, r),
        lambda r: genmodel.identity_decoder(2, r)])
    def test_radius_must_be_finite_and_positive(self, build, r):
        with pytest.raises(ValueError, match="r must be finite and positive"):
            build(r)

    @pytest.mark.parametrize("k, p", [(0, 4), (3, 2)])
    def test_orthonormal_dimensions_checked(self, k, p):
        with pytest.raises(ValueError, match="need 1 <= k <= p"):
            genmodel.orthonormal_linear_decoder(0, k, p, 1.0)

    def test_nan_weight_scale_rejected(self):
        with pytest.raises(ValueError, match="weight scale"):
            genmodel.decoder_new(0, 2, [], 4, 1.0, weight_scale=float("nan"))

    def test_derived_fields_follow_layers(self):
        layers = ((np.ones((3, 2)), np.zeros(3)), (np.ones((5, 3)), np.zeros(5)))
        dec = genmodel.GenerativeDecoder(2, 5, 1.0, layers, "relu", 0, 1.0)
        assert dec.hidden_dims == (3,)
        single = genmodel.GenerativeDecoder(
            2, 5, 1.0, ((np.ones((5, 2)), np.zeros(5)),), "identity", 0, 1.0)
        assert single.hidden_dims == ()
        for key, value in (("hidden_dims", (7,)), ("lipschitz", 0.0)):
            with pytest.raises(TypeError):
                genmodel.GenerativeDecoder(2, 5, 1.0, single.layers, "identity",
                                           0, 1.0, **{key: value})

    def test_empty_hidden_dims_allowed(self):
        dec = genmodel.decoder_new(0, 2, [], 6, 1.0)
        assert len(dec.layers) == 1

    def test_weights_are_the_scaled_gaussian_draws(self):
        dims = [20, 500, 500, 784]
        rng = np.random.default_rng(0)
        dec = genmodel.decoder_new(0, 20, dims[1:-1], 784, 3.0)
        for (w, _), d_in, d_out in zip(dec.layers, dims[:-1], dims[1:]):
            expected = rng.standard_normal((d_out, d_in)) * (1.0 / np.sqrt(d_in))
            assert np.array_equal(w, expected)

    def test_determinism_bit_identical_weights(self):
        a = genmodel.decoder_new(123, 3, [7], 11, 2.0)
        b = genmodel.decoder_new(123, 3, [7], 11, 2.0)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)

    def test_equality_and_hash_are_by_identity(self):
        a = genmodel.decoder_new(1, 2, [3], 4, 1.0)
        b = genmodel.decoder_new(1, 2, [3], 4, 1.0)
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert hash(a) == hash(a) and len({a, b, a}) == 2

    @pytest.mark.parametrize("build, widths", [
        (lambda: genmodel.decoder_new(0, 4, [100_000], 10 ** 7, 1.0),
         [4, 100_000, 10 ** 7]),
        (lambda: genmodel.orthonormal_linear_decoder(0, 20, 10 ** 7, 1.0),
         [20, 10 ** 7]),
        (lambda: genmodel.identity_decoder(20_000), [20_000, 20_000])])
    def test_weights_above_the_cap_rejected_before_any_draw(
            self, monkeypatch, build, widths):
        def no_draw(*args, **kwargs):
            raise AssertionError("a weight was drawn")
        monkeypatch.setattr(genmodel.np.random, "default_rng", no_draw)
        monkeypatch.setattr(genmodel.np, "eye", no_draw)
        count = sum(a * b for a, b in zip(widths[:-1], widths[1:]))
        assert count > genmodel.WEIGHT_CAP
        with pytest.raises(ValueError, match=rf"^layer widths \[{widths[0]}, "
                           rf".* hold {count} weights, above the cap of "):
            build()


class TestForward:
    def test_matches_independent_chain(self):
        dec = genmodel.decoder_new(3, 2, [8], 16, 1.0, "tanh", 1.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.standard_normal(2)
            diff = genmodel.forward(dec, z) - straight_line_forward(dec, z)
            assert np.max(np.abs(diff)) <= 1e-12

    def test_relu_matches_independent_chain(self):
        dec = genmodel.decoder_new(5, 3, [6, 6], 10, 1.0, "relu", 1.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.standard_normal(3)
            diff = genmodel.forward(dec, z) - straight_line_forward(dec, z)
            assert np.max(np.abs(diff)) <= 1e-12

    @pytest.mark.parametrize("shape", [(5, 3), (3,)], ids=["batch", "vector"])
    @pytest.mark.parametrize("activation", genmodel.ACTIVATIONS)
    def test_layers_built_in_place_keep_the_bits(self, activation, shape):
        # layer by layer, bit for bit h @ w.T + b and then the activation;
        # the hidden list holds the activated layers and z is left unchanged
        rng = np.random.default_rng(4)
        layers = tuple((rng.standard_normal((d_out, d_in)),
                        rng.standard_normal(d_out))
                       for d_in, d_out in [(3, 6), (6, 5), (5, 7)])
        dec = genmodel.GenerativeDecoder(3, 7, 1.0, layers, activation, 0, 1.0)
        act = {"tanh": np.tanh, "relu": lambda h: np.maximum(h, 0.0),
               "identity": lambda h: h}[activation]
        z = rng.standard_normal(shape)
        z0 = z.copy()
        out, hidden = genmodel._forward_cached(dec, z)
        assert z.tobytes() == z0.tobytes()
        expected, h = [], z0
        for i, (w, b) in enumerate(layers):
            h = h @ w.T + b
            if i < len(layers) - 1:
                h = act(h)
            expected.append(h)
        assert [(a.shape, a.tobytes()) for a in [*hidden, out]] == [
            (e.shape, e.tobytes()) for e in expected]

    def test_dimension_mismatch(self):
        dec = genmodel.decoder_new(0, 2, [], 4, 1.0)
        with pytest.raises(ValueError):
            genmodel.forward(dec, np.zeros(3))

    def test_out_of_ball_still_evaluates(self):
        dec = genmodel.identity_decoder(2, r=1.0)
        z = np.array([5.0, 0.0])
        assert np.linalg.norm(z) > dec.latent_radius
        assert np.array_equal(genmodel.forward(dec, z), z)

    def test_pairwise_lipschitz(self):
        dec = genmodel.decoder_new(11, 4, [12], 20, 2.0, "tanh", 1.0)
        lip = dec.lipschitz
        rng = np.random.default_rng(2)
        for _ in range(1000):
            z1 = genmodel.sample_latent(dec, rng.integers(2 ** 63), inset=1.0)
            z2 = genmodel.sample_latent(dec, rng.integers(2 ** 63), inset=1.0)
            lhs = np.linalg.norm(genmodel.forward(dec, z1) - genmodel.forward(dec, z2))
            assert lhs <= lip * np.linalg.norm(z1 - z2) + 1e-12


class TestVjp:
    def test_linear_decoder_gives_wt_v(self):
        dec = genmodel.decoder_new(0, 3, [], 8, 1.0, "identity", 1.0)
        w = dec.layers[0][0]
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = rng.standard_normal(3)
            v = rng.standard_normal(8)
            assert np.allclose(genmodel.vjp(dec, z, v), w.T @ v, atol=1e-14)

    def test_zero_cotangent(self):
        dec = genmodel.decoder_new(4, 2, [5], 7, 1.0)
        assert np.array_equal(genmodel.vjp(dec, np.ones(2), np.zeros(7)),
                              np.zeros(2))

    def test_finite_difference_oracle(self):
        dec = genmodel.decoder_new(9, 3, [10], 12, 1.0, "tanh", 1.0)
        rng = np.random.default_rng(4)
        h = 1e-5
        for _ in range(10):
            z = rng.standard_normal(3) * 0.5
            v = rng.standard_normal(12)
            g = genmodel.vjp(dec, z, v)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (genmodel.forward(dec, z + e) - genmodel.forward(dec, z - e)) @ v / (2 * h)
                assert abs(fd - g[j]) <= 1e-4 * max(abs(g[j]), 1e-8)

    def test_vjp_jvp_duality(self):
        dec = genmodel.decoder_new(10, 4, [9], 15, 1.0, "tanh", 1.0)
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(20):
            z = rng.standard_normal(4) * 0.5
            u = rng.standard_normal(4)
            v = rng.standard_normal(15)
            jvp = (genmodel.forward(dec, z + h * u) - genmodel.forward(dec, z - h * u)) / (2 * h)
            lhs = float(jvp @ v)
            rhs = float(u @ genmodel.vjp(dec, z, v))
            assert abs(lhs - rhs) <= 1e-4 * max(abs(rhs), 1e-8)

    def test_dimension_mismatch(self):
        dec = genmodel.decoder_new(0, 2, [], 4, 1.0)
        with pytest.raises(ValueError):
            genmodel.vjp(dec, np.zeros(2), np.zeros(3))


class TestLipschitzBound:
    def test_orthonormal_single_layer_is_one(self):
        dec = genmodel.orthonormal_linear_decoder(6, 4, 12, 1.0)
        assert abs(dec.lipschitz - 1.0) <= 1e-6

    def test_scaled_identity_is_two(self):
        layers = ((2.0 * np.eye(5), np.zeros(5)),)
        dec = genmodel.GenerativeDecoder(5, 5, 1.0, layers, "identity", 0, 1.0)
        assert abs(dec.lipschitz - 2.0) <= 1e-6

    @pytest.mark.parametrize("k, p", [(20, 784), (8, 256), (4, 64), (3, 5)])
    def test_bounds_the_worst_direction(self, k, p):
        # v1, the top right singular vector of a linear decoder's weight,
        # attains its Lipschitz constant; the bound may miss only by round-off
        for seed in range(40):
            dec = genmodel.decoder_new(seed, k, [], p, 3.0, "identity")
            v1 = np.linalg.svd(dec.layers[0][0])[2][0]
            gap = np.linalg.norm(genmodel.forward(dec, v1)
                                 - genmodel.forward(dec, np.zeros(k)))
            assert gap <= dec.lipschitz * (1 + 1e-12)

    def test_matches_dense_svd_product(self):
        dec = genmodel.decoder_new(13, 4, [16, 24], 32, 1.0, "tanh", 1.0)
        expected = 1.0
        for w, _ in dec.layers:
            expected *= np.linalg.svd(w, compute_uv=False)[0]
        got = dec.lipschitz
        assert abs(got - expected) <= 1e-6 * expected


class TestLazyLipschitz:
    # L enters only the statistical bound, so a decoder is built, and
    # solved with, without the eigen-solves of its spectral norms
    @pytest.fixture
    def norm_calls(self, monkeypatch):
        calls = []
        real = genmodel._spectral_norm

        def spy(w):
            calls.append(w.shape)
            return real(w)

        monkeypatch.setattr(genmodel, "_spectral_norm", spy)
        return calls

    def test_build_and_solve_run_no_eigen_solve(self, monkeypatch):
        def no_eigvalsh(*args):
            raise AssertionError("an eigen-solve ran")
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        dec = genmodel.decoder_new(0, 20, [500, 500], 784, 3.0)
        cfg = SolverConfig(step_size=1.0, iterations=2,
                           projection=ProjectionConfig(steps=5, restarts=1))
        setup = analysis.TrialSetup(
            decoder=dec, link=measurement.sign_dithered_link(sigma_d=0.1),
            solver_kind="pgd_glasso", solver_cfg=cfg,
            sensing_kind="partial_circulant")
        res = analysis.solve_instance(setup, 400, 3)
        assert np.isfinite(res.record.loss)
        assert "lipschitz" not in vars(dec)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_first_read_is_the_product_of_spectral_norms(self, norm_calls,
                                                         family):
        dec = FAMILIES[family]()
        assert dec.family == family and norm_calls == []
        expected = float(math.prod(genmodel._spectral_norm(w)
                                   for w, _ in dec.layers))
        del norm_calls[:]
        assert dec.lipschitz == expected
        assert norm_calls == [w.shape for w, _ in dec.layers]
        assert dec.lipschitz == expected
        assert len(norm_calls) == len(dec.layers)

    def test_pickled_decoder_keeps_the_value(self, norm_calls):
        dec = FAMILIES["mlp"]()
        lip = dec.lipschitz
        back = pickle.loads(pickle.dumps(dec))
        del norm_calls[:]
        assert back.lipschitz == lip
        assert norm_calls == []


class TestSampleLatent:
    def test_scalar_case_interval(self):
        dec = genmodel.identity_decoder(1, r=1.0)
        for seed in range(50):
            z = genmodel.sample_latent(dec, seed)
            assert -0.9 <= z[0] <= 0.9

    def test_norm_within_inset_radius(self):
        dec = genmodel.decoder_new(0, 6, [], 8, 2.5)
        for seed in range(200):
            z = genmodel.sample_latent(dec, seed)
            assert np.linalg.norm(z) <= 0.9 * 2.5 + 1e-12

    def test_monte_carlo_mean_near_origin(self):
        dec = genmodel.identity_decoder(2, r=1.0)
        zs = np.array([genmodel.sample_latent(dec, s) for s in range(10_000)])
        assert np.linalg.norm(zs.mean(axis=0)) <= 0.05


def model_new(capsys, *flags):
    """The decoder document that `genprior model new` prints for flags."""
    assert cli.main(["model", "new", *flags]) == 0
    return json.loads(capsys.readouterr().out)


class TestSerialization:
    # decoder documents are written and read by the CLI; weights regenerate
    # from the seed
    def test_round_trip(self, capsys):
        dec = genmodel.decoder_new(21, 5, [9, 7], 16, 2.0, "relu", 0.7)
        doc = model_new(capsys, "--seed", "21", "--k", "5", "--hidden", "9,7",
                        "--p", "16", "--r", "2.0", "--activation", "relu",
                        "--scale", "0.7")
        back = cli._decoder(doc)
        for (wa, ba), (wb, bb) in zip(dec.layers, back.layers):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
        assert back.activation == "relu"
        assert back.lipschitz == dec.lipschitz

    def test_orthonormal_round_trip(self, capsys):
        dec = genmodel.orthonormal_linear_decoder(5, 3, 10, 1.5)
        back = cli._decoder(model_new(
            capsys, "--family", "orthonormal_linear", "--seed", "5", "--k", "3",
            "--p", "10", "--r", "1.5"))
        assert np.array_equal(dec.layers[0][0], back.layers[0][0])

    def test_weights_not_stored(self, capsys):
        doc = model_new(capsys, "--k", "2", "--hidden", "3", "--p", "4")
        assert "layers" not in doc and "weights" not in doc
