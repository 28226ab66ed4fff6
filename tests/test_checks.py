"""Block-streamed range-point checks against their one-point-at-a-time
oracles, and the row-batched operator against per-row calls."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from genprior import analysis, genmodel, sensing
from genprior.seeding import derive_seed


def check_decoder():
    return genmodel.decoder_new(derive_seed(3, "decoder"), k=4, hidden_dims=[16],
                                p=64, r=3.0, activation="tanh")


@pytest.mark.parametrize("k", [1, 2, 4, 8, 20, 64])
@pytest.mark.parametrize("inset", [0.9, 1.0])
def test_sample_latents_equal_single_draws_bitwise(k, inset):
    # two-word derived seeds, one-word seeds and numpy integer seeds
    dec = genmodel.identity_decoder(k, r=3.0)
    derived = [derive_seed(k, "latent", i) for i in range(300)]
    seeds = (derived + list(range(300)) + [np.uint64(s) for s in derived[:50]]
             + list(np.random.default_rng(k).integers(2 ** 63, size=50)))
    batch = genmodel._sample_latents(dec, seeds, inset)
    assert batch.shape == (len(seeds), k)
    for seed, row in zip(seeds, batch):
        want = oracles.sample_latent(dec, seed, inset)
        assert np.array_equal(row, want)
        assert np.array_equal(genmodel.sample_latent(dec, seed, inset), want)


OPERATORS = [("dense_gaussian", 200), ("dense_gaussian", 3),
             ("partial_circulant", 48), ("partial_circulant", 3)]
PAIRS = [1, 15, 16, 17, 1000]


def assert_matches(report, want):
    violations, worst = want
    assert report.violations == violations
    assert report.worst_margin == pytest.approx(worst, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind,n", OPERATORS)
@pytest.mark.parametrize("pairs", PAIRS)
def test_tsrec_matches_serial_oracle(kind, n, pairs):
    dec = check_decoder()
    op = sensing.sensing_new(kind, n, dec.ambient_dim, derive_seed(n, kind))
    report = analysis.tsrec_check(op, dec, eps=0.5, delta=0.01, pairs=pairs,
                                  seed=pairs)
    assert report.trials == pairs
    assert_matches(report, oracles.tsrec_check(op, dec, 0.5, 0.01, pairs, pairs))


@pytest.mark.parametrize("kind,n", OPERATORS)
@pytest.mark.parametrize("pairs", PAIRS)
def test_wnu_matches_serial_oracle(kind, n, pairs):
    dec = check_decoder()
    op = sensing.sensing_new(kind, n, dec.ambient_dim, derive_seed(n, kind))
    report = analysis.wnu_check(op, dec, nu=1.0, eps=0.3, pairs=pairs,
                                seed=pairs)
    assert report.trials == pairs
    assert_matches(report, oracles.wnu_check(op, dec, 1.0, 0.3, pairs, pairs,
                                             analysis.WNU_SLACK))


def test_undersampled_oracle_cases_have_violations():
    # the n = 3 cases above compare nonzero violation counts
    dec = check_decoder()
    op = sensing.sensing_new("dense_gaussian", 3, dec.ambient_dim,
                             derive_seed(3, "dense_gaussian"))
    assert oracles.tsrec_check(op, dec, 0.5, 0.01, 1000, 1000)[0] > 0
    assert oracles.wnu_check(op, dec, 1.0, 0.3, 1000, 1000,
                             analysis.WNU_SLACK)[0] > 0


def test_range_checks_never_construct_a_generator_per_point(monkeypatch):
    # every latent's generator state is derived in one pass, not by a
    # default_rng per point; the draws still match the serial oracles
    dec = check_decoder()
    op = sensing.sensing_new("dense_gaussian", 1000, dec.ambient_dim,
                             derive_seed(1000, "guard"))
    want_tsrec = oracles.tsrec_check(op, dec, 0.5, 0.01, 1000, 5)
    want_wnu = oracles.wnu_check(op, dec, 1.0, 0.3, 500, 6, analysis.WNU_SLACK)

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.random.default_rng called")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    tsrec = analysis.tsrec_check(op, dec, eps=0.5, delta=0.01, pairs=1000,
                                 seed=5)
    wnu = analysis.wnu_check(op, dec, nu=1.0, eps=0.3, pairs=500, seed=6)
    assert tsrec.passed and wnu.passed
    assert_matches(tsrec, want_tsrec)
    assert_matches(wnu, want_wnu)


def test_zero_pairs():
    dec = check_decoder()
    op = sensing.sensing_new("dense_gaussian", 10, dec.ambient_dim, 0)
    assert analysis.tsrec_check(op, dec, 0.5, 0.01, 0, 1).worst_margin == 0.0
    assert analysis.wnu_check(op, dec, 1.0, 0.3, 0, 1).worst_margin == np.inf


operators = st.builds(
    lambda kind, p, frac, seed: sensing.sensing_new(
        kind, max(1, int(frac * p)), p, seed),
    st.sampled_from(sensing.KINDS), st.integers(1, 40),
    st.floats(0.05, 1.0), st.integers(0, 2 ** 32))


@settings(max_examples=60, deadline=None)
@given(op=operators, m=st.integers(1, 6), seed=st.integers(0, 2 ** 32))
def test_row_batched_apply_equals_per_row_calls(op, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, op.p))
    v = rng.standard_normal((m, op.n))
    ax = sensing.apply(op, x)
    atv = sensing.adjoint_apply(op, v)
    assert ax.shape == (m, op.n) and atv.shape == (m, op.p)
    for i in range(m):
        assert np.allclose(ax[i], sensing.apply(op, x[i]), rtol=1e-12, atol=1e-12)
        assert np.allclose(atv[i], sensing.adjoint_apply(op, v[i]),
                           rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 48), frac=st.floats(0.05, 1.0),
       op_seed=st.integers(0, 2 ** 32), seed=st.integers(0, 2 ** 32))
def test_circulant_apply_equals_materialized_matrix(p, frac, op_seed, seed):
    op = sensing.sensing_new("partial_circulant", max(1, int(frac * p)), p,
                             op_seed)
    x = np.random.default_rng(seed).standard_normal(p)
    assert np.allclose(sensing.apply(op, x), oracles.materialize(op) @ x,
                       rtol=1e-10, atol=1e-10)


any_operators = st.builds(
    lambda kind, n, p, seed: sensing.sensing_new(
        kind, n if kind == "dense_gaussian" else min(n, p), p, seed),
    st.sampled_from(sensing.KINDS), st.integers(1, 60), st.integers(1, 40),
    st.integers(0, 2 ** 32))


@settings(max_examples=100, deadline=None)
@given(op=any_operators, m=st.integers(0, 5), seed=st.integers(0, 2 ** 32))
# A x is exactly 0 here, while <x, A^T v> rounds to 3e-16
@example(op=sensing.sensing_new("partial_circulant", 1, 2, 3), m=0, seed=3)
def test_adjoint_identity(op, m, seed):
    # <A x, v> = <x, A^T v> for a vector (m = 0) or each of m stacked rows,
    # to 1e-10 of the larger Cauchy-Schwarz bound of the two sides, a scale
    # that stays positive where the inner product itself is 0
    rng = np.random.default_rng(seed)
    rows = (m,) if m else ()
    x = rng.standard_normal(rows + (op.p,))
    v = rng.standard_normal(rows + (op.n,))
    ax, atv = sensing.apply(op, x), sensing.adjoint_apply(op, v)
    lhs, rhs = np.vecdot(ax, v), np.vecdot(x, atv)
    norm = np.linalg.norm
    scale = np.maximum(norm(ax, axis=-1) * norm(v, axis=-1),
                       norm(x, axis=-1) * norm(atv, axis=-1))
    assert np.all(np.abs(lhs - rhs) <= 1e-10 * scale)


@pytest.mark.parametrize("shape", [(), (4,), (2, 4), (2, 3, 5)])
def test_apply_rejects_other_shapes(shape):
    op = sensing.sensing_new("dense_gaussian", 3, 5, 0)
    with pytest.raises(ValueError):
        sensing.apply(op, np.zeros(shape))
