import numpy as np
import pytest

import oracles
from genprior import sensing


def impulse_circulant(p):
    """Circulant operator equal to the identity (unit-impulse generator)."""
    g = np.zeros(p)
    g[0] = 1.0
    return sensing.SensingOperator("partial_circulant", p, p, 0,
                                   gen=g, signs=np.ones(p),
                                   omega=np.arange(p))


def quadratic_cyclic_convolve(g, x):
    """O(p^2) reference for circ(g) @ x."""
    p = len(g)
    out = np.zeros(p)
    for i in range(p):
        for j in range(p):
            out[i] += g[(i - j) % p] * x[j]
    return out


class TestConstruction:
    def test_mnist_shape(self):
        op = sensing.sensing_new("dense_gaussian", 100, 784, 0)
        assert op.matrix.shape == (100, 784)

    def test_circulant_n_greater_than_p_rejected(self):
        with pytest.raises(ValueError):
            sensing.sensing_new("partial_circulant", 9, 8, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sensing.sensing_new("fourier", 4, 8, 0)

    def test_impulse_circulant_is_identity(self):
        op = impulse_circulant(8)
        assert np.allclose(oracles.materialize(op), np.eye(8), atol=1e-12)

    def test_determinism(self):
        a = sensing.sensing_new("partial_circulant", 5, 16, 3)
        b = sensing.sensing_new("partial_circulant", 5, 16, 3)
        assert np.array_equal(a.gen, b.gen)
        assert np.array_equal(a.signs, b.signs)
        assert np.array_equal(a.omega, b.omega)

    @pytest.mark.parametrize("kind", ["dense_gaussian", "partial_circulant"])
    def test_equality_and_hash_are_by_identity(self, kind):
        a = sensing.sensing_new(kind, 5, 16, 3)
        b = sensing.sensing_new(kind, 5, 16, 3)
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert hash(a) == hash(a) and len({a, b, a}) == 2


class TestSpectrum:
    def test_hand_built_operator_derives_the_same_spectrum(self):
        # the spectrum is derived from gen in the constructor, for an
        # operator built by hand as for one from sensing_new, and gives
        # the same products bit for bit
        drawn = sensing.sensing_new("partial_circulant", 37, 64, 5)
        built = sensing.SensingOperator("partial_circulant", 37, 64, 5,
                                        gen=drawn.gen.copy(),
                                        signs=drawn.signs.copy(),
                                        omega=drawn.omega.copy())
        assert np.array_equal(built.spectrum, np.fft.rfft(drawn.gen))
        assert np.array_equal(built.spectrum, drawn.spectrum)
        rng = np.random.default_rng(5)
        for rows in ((), (3,)):
            x = rng.standard_normal(rows + (64,))
            v = rng.standard_normal(rows + (37,))
            assert np.array_equal(sensing.apply(built, x),
                                  sensing.apply(drawn, x))
            assert np.array_equal(sensing.adjoint_apply(built, v),
                                  sensing.adjoint_apply(drawn, v))

    def test_spectrum_is_not_a_constructor_argument(self):
        drawn = sensing.sensing_new("partial_circulant", 5, 8, 1)
        with pytest.raises(TypeError):
            sensing.SensingOperator("partial_circulant", 5, 8, 1,
                                    gen=drawn.gen, signs=drawn.signs,
                                    omega=drawn.omega,
                                    spectrum=drawn.spectrum)

    def test_dense_operator_has_no_spectrum(self):
        assert sensing.sensing_new("dense_gaussian", 4, 6, 5).spectrum is None


class TestApply:
    def test_zero_vector(self):
        for kind, n, p in [("dense_gaussian", 6, 9), ("partial_circulant", 4, 9)]:
            op = sensing.sensing_new(kind, n, p, 1)
            assert np.array_equal(sensing.apply(op, np.zeros(p)), np.zeros(n))

    def test_circulant_matches_materialized(self):
        for p in (5, 8, 33, 64):
            op = sensing.sensing_new("partial_circulant", max(1, p // 2), p, p)
            m = oracles.materialize(op)
            rng = np.random.default_rng(p)
            for _ in range(100):
                x = rng.standard_normal(p)
                assert np.max(np.abs(sensing.apply(op, x) - m @ x)) <= 1e-10

    def test_dimension_mismatch(self):
        op = sensing.sensing_new("dense_gaussian", 3, 5, 0)
        with pytest.raises(ValueError):
            sensing.apply(op, np.zeros(4))


class TestAdjoint:
    def test_zero_vector(self):
        op = sensing.sensing_new("partial_circulant", 4, 9, 2)
        assert np.array_equal(sensing.adjoint_apply(op, np.zeros(4)), np.zeros(9))

    def test_hand_computed_3x4(self):
        m = np.array([[1.0, 2.0, 0.0, -1.0],
                      [0.0, 1.0, 3.0, 2.0],
                      [4.0, 0.0, -2.0, 1.0]])
        op = sensing.SensingOperator("dense_gaussian", 3, 4, 0, matrix=m)
        v = np.array([1.0, -1.0, 2.0])
        expected = np.array([1.0 - 0.0 + 8.0, 2.0 - 1.0 + 0.0,
                             0.0 - 3.0 - 4.0, -1.0 - 2.0 + 2.0])
        assert np.array_equal(sensing.adjoint_apply(op, v), expected)

    @pytest.mark.parametrize("kind,n,p", [("dense_gaussian", 20, 35),
                                          ("partial_circulant", 20, 35)])
    def test_adjoint_identity(self, kind, n, p):
        op = sensing.sensing_new(kind, n, p, 7)
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.standard_normal(p)
            v = rng.standard_normal(n)
            lhs = sensing.apply(op, x) @ v
            rhs = x @ sensing.adjoint_apply(op, v)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)


class TestMaterialize:
    def test_dense_returns_payload(self):
        op = sensing.sensing_new("dense_gaussian", 4, 6, 5)
        assert np.array_equal(oracles.materialize(op), op.matrix)

    def test_circulant_matches_quadratic_reference(self):
        p = 8
        op = sensing.sensing_new("partial_circulant", 5, p, 13)
        m = oracles.materialize(op)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(p)
            full = quadratic_cyclic_convolve(op.gen, op.signs * x)
            assert np.max(np.abs(m @ x - full[op.omega])) <= 1e-10


class TestSpectralNorm:
    def test_identity_operator(self):
        op = impulse_circulant(8)
        assert abs(oracles.spectral_norm(op) - 1.0) <= 1e-8

    def test_gaussian_bound_two_sqrt_n_plus_sqrt_p(self):
        # high-probability bound on the operator norm of an n x p Gaussian
        n, p = 200, 400
        bound = 2 * np.sqrt(n) + np.sqrt(p)
        for seed in range(20):
            op = sensing.sensing_new("dense_gaussian", n, p, seed)
            assert oracles.spectral_norm(op) <= bound


class TestRowIsotropy:
    def test_circulant_rows_isotropic_in_expectation(self):
        p = 8
        acc = np.zeros((p, p))
        count = 10_000
        for seed in range(count):
            op = sensing.sensing_new("partial_circulant", 1, p, seed)
            a = sensing.adjoint_apply(op, np.array([1.0]))  # row 0 of A
            acc += np.outer(a, a)
        acc /= count
        assert np.max(np.abs(acc - np.eye(p))) <= 0.1

