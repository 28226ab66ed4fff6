"""Row-batched checks against their one-point-at-a-time oracles, the memory
budget of their blocks, and the row-batched operator against per-row
calls."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from genprior import (analysis, cli, genmodel, measurement, sensing,
                      solvers)
from genprior.seeding import derive_seed

U = np.finfo(float).eps / 2  # unit round-off


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
    for seed in seeds:
        want = oracles.sample_latent(dec, seed, inset)
        assert np.array_equal(genmodel.sample_latent(dec, seed, inset), want)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 40), count=st.integers(1, 60),
       inset=st.floats(0.05, 1.0), seed=st.integers(0, 2 ** 64 - 1))
def test_sample_latents_lie_in_the_ball_and_match_the_row_oracle(
        k, count, inset, seed):
    # every row is the per-row oracle's bit for bit, and so is sample_latent,
    # the one-row draw: a radius computed with numpy's array power instead of
    # Python's float pow rounds differently. Row 0 of a longer draw is not
    # sample_latent's, as its radius is drawn after every direction.
    dec = genmodel.identity_decoder(k, r=2.5)
    rows = genmodel._sample_latents(dec, np.random.default_rng(seed), count,
                                    inset)
    assert rows.shape == (count, k)
    assert np.all(np.linalg.norm(rows, axis=1) <= inset * 2.5 * (1 + 1e-12))
    assert np.array_equal(rows, oracles.ball_draws(
        dec, np.random.default_rng(seed), count, inset))
    assert np.array_equal(genmodel.sample_latent(dec, seed, inset),
                          oracles.sample_latent(dec, seed, inset))


OPERATORS = [("dense_gaussian", 200), ("dense_gaussian", 3),
             ("partial_circulant", 48), ("partial_circulant", 3)]
# one pair, a few short runs, and 1000 pairs: several blocks at every n here
PAIRS = [1, 15, 16, 17, 1000]


def block_bracket(cells):
    """Counts one below, at and one above the first block boundary of the
    dense n = 200 case, p = 64, for a check of ``cells * (n + p)`` floats
    per pair or point."""
    b = analysis._block_len(cells * (200 + 64))
    return [b - 1, b, b + 1]


def assert_matches(report, want):
    violations, worst = want
    assert report.violations == violations
    assert report.worst_margin == pytest.approx(worst, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind,n", OPERATORS)
@pytest.mark.parametrize("pairs", PAIRS + block_bracket(2))
def test_tsrec_matches_serial_oracle(kind, n, pairs):
    dec = check_decoder()
    op = sensing.sensing_new(kind, n, dec.ambient_dim, derive_seed(n, kind))
    report = analysis.tsrec_check(op, dec, eps=0.5, delta=0.01, pairs=pairs,
                                  seed=pairs)
    assert report.trials == pairs
    assert_matches(report, oracles.tsrec_check(op, dec, 0.5, 0.01, pairs, pairs))


@pytest.mark.parametrize("kind,n", OPERATORS)
@pytest.mark.parametrize("pairs", PAIRS + block_bracket(4))
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


def test_range_checks_construct_one_generator_per_tag(monkeypatch):
    # each tag's latents come from one default_rng, not one per point; the
    # draws still match the serial oracles
    dec = check_decoder()
    op = sensing.sensing_new("dense_gaussian", 1000, dec.ambient_dim,
                             derive_seed(1000, "guard"))
    want_tsrec = oracles.tsrec_check(op, dec, 0.5, 0.01, 1000, 5)
    want_wnu = oracles.wnu_check(op, dec, 1.0, 0.3, 500, 6, analysis.WNU_SLACK)

    seeds = []
    default_rng = np.random.default_rng

    def counting(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    tsrec = analysis.tsrec_check(op, dec, eps=0.5, delta=0.01, pairs=1000,
                                 seed=5)
    assert seeds == [derive_seed(5, "tsrec-a"), derive_seed(5, "tsrec-b")]
    seeds.clear()
    wnu = analysis.wnu_check(op, dec, nu=1.0, eps=0.3, pairs=500, seed=6)
    assert seeds == [derive_seed(6, tag)
                     for tag in ("wnu-a", "wnu-b", "wnu-c", "wnu-d")]
    assert tsrec.passed and wnu.passed
    assert_matches(tsrec, want_tsrec)
    assert_matches(wnu, want_wnu)


def test_zero_pairs():
    dec = check_decoder()
    op = sensing.sensing_new("dense_gaussian", 10, dec.ambient_dim, 0)
    assert analysis.tsrec_check(op, dec, 0.5, 0.01, 0, 1).worst_margin == 0.0
    assert analysis.wnu_check(op, dec, 1.0, 0.3, 0, 1).worst_margin == np.inf


@pytest.mark.parametrize("kind,n", OPERATORS)
@pytest.mark.parametrize("count", [1, 100] + block_bracket(1))
def test_jle_matches_serial_oracle(kind, n, count):
    # a zero row is skipped by both; n = 3 has violations to compare
    p = 64
    op = sensing.sensing_new(kind, n, p, derive_seed(n, kind))
    points = np.random.default_rng(count).standard_normal((count, p))
    points[count // 2] = 0.0
    report = analysis.jle_check(op, points, eps=0.5)
    assert report.trials == count
    assert_matches(report, oracles.jle_check(op, points, 0.5))


def polarization_roundoff(op, pairs, seed):
    """A bound on the relative polarization defect that round-off alone can
    leave at any pair, whatever order the sums are taken in.

    For pair (x, y), let M = sum_i (|A| (|x| + |y|))_i^2. Every product A u
    errs by at most g (|A| |u|) componentwise, with g = (n + 2p + 4) u, u
    the unit round-off, covering the p-term products, the n-term sums and
    the few roundings in between, so |lhs - rhs| <= 2 g M. Divided by the
    larger side, here bounded below by |<A x, A y>| - 2 g M, this is the
    pair's bound; the largest over the pairs is returned.
    """
    a = oracles.materialize(op)
    g = (op.n + 2 * op.p + 4) * U
    worst = 0.0
    for x, y in oracles.polarization_pairs(op, pairs, seed):
        m = float(np.sum((np.abs(a) @ (np.abs(x) + np.abs(y))) ** 2))
        side = abs(float((a @ x) @ (a @ y))) - 2 * g * m
        worst = max(worst, 2 * g * m / side if side > 0 else np.inf)
    return worst


@pytest.mark.parametrize("kind,n", OPERATORS)
@pytest.mark.parametrize("pairs", [1, 100] + block_bracket(4))
def test_polarization_matches_serial_oracle(kind, n, pairs):
    # the worst margin is itself round-off, which the batched products take
    # in another order, so both sides are held to the round-off bound
    # instead of to each other
    op = sensing.sensing_new(kind, n, 64, derive_seed(n, kind))
    report = analysis.polarization_check(op, pairs, seed=pairs)
    violations, worst = oracles.polarization_check(op, pairs, pairs,
                                                   analysis.POLARIZATION_TOL)
    bound = polarization_roundoff(op, pairs, pairs)
    assert report.trials == pairs
    assert report.violations == violations
    assert report.worst_margin <= bound and worst <= bound


def test_polarization_draws_each_pair_in_stream_order(monkeypatch):
    # the stacked operands are the pairs drawn one vector at a time
    op = sensing.sensing_new("dense_gaussian", 48, 32, 5)
    calls = []
    apply = sensing.apply
    monkeypatch.setattr(sensing, "apply", lambda op, x: calls.append(
        np.array(x)) or apply(op, x))
    analysis.polarization_check(op, 70, seed=9)
    xs, ys = map(np.array, zip(*oracles.polarization_pairs(op, 70, 9)))
    assert len(calls) == 4
    for got, want in zip(calls, (xs, ys, xs + ys, xs - ys)):
        assert np.array_equal(got, want)


# widths n at a small and a large p of each kind; partial circulants need
# n <= p
VECTOR_CASES = [(kind, n, p) for kind in sensing.KINDS
                for n in (1, 3, 5, 7, 37, 200) for p in (8, 64, 240)
                if kind == "dense_gaussian" or n <= p]


def bits(value):
    return float(value).hex()


@pytest.mark.parametrize("kind,n,p", VECTOR_CASES)
def test_adjoint_matches_serial_oracle_bitwise(kind, n, p):
    # 300 trials span several blocks at the largest widths
    op = sensing.sensing_new(kind, n, p, derive_seed(n, kind, p))
    report = analysis.adjoint_check(op, trials=300, seed=p)
    violations, worst = oracles.adjoint_check(op, 300, p, analysis.ADJOINT_TOL)
    assert report.trials == 300
    assert report.violations == violations
    assert bits(report.worst_margin) == bits(worst)


@pytest.mark.parametrize("link", [measurement.linear_link(),
                                  measurement.shifted_cosine_link()],
                         ids=["linear", "shifted_cosine"])
@pytest.mark.parametrize("kind,n,p", VECTOR_CASES)
def test_mvt_matches_serial_oracle_bitwise(kind, n, p, link):
    op = sensing.sensing_new(kind, n, p, derive_seed(n, kind, p))
    report = analysis.mvt_check(op, link, triples=300, seed=n)
    violations, worst = oracles.mvt_check(op, link, 300, n)
    assert report.trials == 300
    assert report.violations == violations
    assert bits(report.worst_margin) == bits(worst)


def test_vector_checks_of_no_trials():
    op = sensing.sensing_new("dense_gaussian", 5, 8, 0)
    dec = genmodel.decoder_new(1, k=2, hidden_dims=[4], p=8, r=3.0)
    assert analysis.adjoint_check(op, 0, seed=1).worst_margin == 0.0
    assert analysis.mvt_check(op, measurement.linear_link(), 0,
                              seed=1).worst_margin == np.inf
    assert analysis.gradient_check(op, measurement.linear_link(), dec, 0,
                                   seed=1).worst_margin == 0.0


@pytest.mark.parametrize("kind", sensing.KINDS)
@pytest.mark.parametrize("n", [2000, analysis.N_CAP])
def test_vector_checks_stay_within_the_cell_budget(monkeypatch, kind, n):
    # adjoint and mvt hand sensing stacks of b rows of p floats, whose
    # products have n floats a row: b (n + p) stays within CHECK_CELLS, or
    # b = 1. A dense p of 8 keeps the operator at n = N_CAP to 6.4 MB.
    p = 8 if kind == "dense_gaussian" else n
    op = sensing.sensing_new(kind, n, p, 3)
    rows = []
    spy_rows(monkeypatch, sensing, "_apply_each", rows)
    spy_rows(monkeypatch, sensing, "_adjoint_each", rows)
    for run in (lambda: analysis.adjoint_check(op, trials=40, seed=1),
                lambda: analysis.mvt_check(op, measurement.linear_link(),
                                           triples=40, seed=1)):
        rows.clear()
        run()
        assert rows and max(rows) * (n + p) <= max(analysis.CHECK_CELLS,
                                                   n + p)
        assert max(rows) > 1 if n == 2000 else max(rows) == 1


def test_gradient_check_applies_the_operator_once_per_point(monkeypatch):
    # every point's x, for both analytic gradients, and each of its 2p
    # stepped points x +- h e_j, for both losses, is multiplied exactly
    # once, in one call of each kind per block of points
    dec = genmodel.decoder_new(derive_seed(1, "decoder"), k=4,
                               hidden_dims=[8], p=24, r=3.0)
    op = sensing.sensing_new("dense_gaussian", 40, 24, 1)
    link = measurement.shifted_cosine_link()
    steps = analysis.FD_STEP * np.eye(op.p)
    want = [row for x, *_ in oracles.gradient_points(op, link, dec, 50, 1)
            for row in (x[None], x + steps, x - steps)]
    calls = []
    for name in ("apply", "_apply_each"):
        real = getattr(sensing, name)
        monkeypatch.setattr(sensing, name, lambda op, x, real=real: (
            calls.append(np.atleast_2d(x)) or real(op, x)))
    analysis.gradient_check(op, link, dec, points=50, seed=1)
    blocks = -(-50 // analysis._block_len(2 * op.p * (op.p + 2 * op.n)))
    assert blocks > 1 and len(calls) == 2 * blocks
    assert (sorted(row.tobytes() for row in np.concatenate(calls))
            == sorted(row.tobytes() for row in np.concatenate(want)))


def scaled(factor):
    return lambda real: lambda *args, **kw: real(*args, **kw) * factor


def largest_scaled(factor):  # each point's largest coordinate, in magnitude
    def wrong(real):
        def grad(*args, **kw):
            g = np.array(real(*args, **kw))
            rows = g.reshape(-1, g.shape[-1])
            rows[np.arange(len(rows)), np.abs(rows).argmax(1)] *= factor
            return g
        return grad
    return wrong


def without_link_derivative(real):
    def grad(op, y, link, x, ax=None):  # (1/n) A^T (f(A x) - y)
        t = sensing._apply_each(op, x) if ax is None else ax
        r = measurement.link_eval(link, t) - y
        return sensing._adjoint_each(op, r) / op.n
    return grad


# (module, name, the real function -> a wrong version of it)
GRADIENT_BUGS = {
    "grad_nlasso_scaled": (solvers, "grad_nlasso", scaled(1 + 1e-4)),
    "grad_glasso_scaled": (solvers, "grad_glasso", scaled(1 + 3e-5)),
    "grad_nlasso_largest": (solvers, "grad_nlasso", largest_scaled(1 + 1e-3)),
    "grad_nlasso_no_deriv": (solvers, "grad_nlasso", without_link_derivative),
    "jacobian_scaled": (genmodel, "_jacobian_cached", scaled(1 + 1e-3)),
}


@pytest.mark.parametrize("seed", [20240, 1, 7, 99, 5])
@pytest.mark.parametrize("bug", [None, *GRADIENT_BUGS])
def test_gradient_check_fails_a_wrong_gradient(monkeypatch, bug, seed):
    # the gradients suite, as the CLI builds it, passes the real gradients
    # and vjp and fails each wrong one, at every seed
    if bug is not None:
        module, name, wrong = GRADIENT_BUGS[bug]
        monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    [report] = cli._run_suite("gradients", seed, None)
    assert report.passed == (bug is None)


def test_gradient_check_passes_correct_code_at_every_seed():
    # the gradients suite, as the CLI builds it, at check seeds 0-199: the
    # normwise deviation keeps central-difference round-off under the
    # tolerance (a coordinate-wise ratio failed 20 of these seeds)
    assert [seed for seed in range(200)
            if not cli._run_suite("gradients", seed, None)[0].passed] == []


def hexes(arrays):
    return [float(value).hex() for a in arrays for value in np.ravel(a)]


# (kind, n, p, k): blocks of 26 and of 48 points, and blocks of one point
# whose 2p = 128 stepped points _losses multiplies as 127 rows, then 1
GRADIENT_CASES = [("dense_gaussian", 40, 24, 3),
                  ("partial_circulant", 16, 24, 1),
                  ("dense_gaussian", 968, 64, 2)]


@pytest.mark.parametrize("link", [measurement.linear_link(),
                                  measurement.shifted_cosine_link()],
                         ids=["linear", "shifted_cosine"])
@pytest.mark.parametrize("hidden", [[], [6], [5, 7]], ids=len)
@pytest.mark.parametrize("activation", genmodel.ACTIVATIONS)
@pytest.mark.parametrize("kind,n,p,k", GRADIENT_CASES)
def test_gradient_check_matches_per_point_oracle_bitwise(
        monkeypatch, kind, n, p, k, activation, hidden, link):
    # the central differences, analytic gradients and vjps compared in each
    # block are, row by row, those the per-point loop formed
    dec = genmodel.decoder_new(derive_seed(k, activation), k, hidden, p, 3.0,
                               activation)
    op = sensing.sensing_new(kind, n, p, derive_seed(n, kind))
    compared = []
    rel_dev = analysis._rel_dev
    monkeypatch.setattr(analysis, "_rel_dev", lambda fd, grad: (
        compared.append((fd, grad)) or rel_dev(fd, grad)))
    report = analysis.gradient_check(op, link, dec, points=50, seed=n)
    rows = oracles.gradient_points(op, link, dec, 50, n)
    losses, vjps = compared[0::2], compared[1::2]
    assert len(losses) == -(-50 // analysis._block_len(2 * p * (p + 2 * n)))
    assert hexes(fd for fd, _ in losses) == hexes(r[1] for r in rows)
    assert hexes(g for _, g in losses) == hexes(
        np.stack(r[2:4], axis=-1) for r in rows)
    assert hexes(fd for fd, _ in vjps) == hexes(r[4] for r in rows)
    assert hexes(g for _, g in vjps) == hexes(r[5] for r in rows)
    violations, worst = oracles.gradient_check(op, link, dec, 50, n)
    assert report.violations == violations
    assert bits(report.worst_margin) == bits(worst)


def fd_roundoff(magnitude, terms, h):
    """A bound on how far two evaluation orders can move a central difference
    with step h of a value computed as ``terms`` rounded operations on
    numbers of the given magnitude: each order errs by at most
    g * magnitude per value, g = terms * u with u the unit round-off, so
    each difference by g * magnitude / h, and two orders differ by twice
    that."""
    return 2 * terms * U * magnitude / h


@pytest.mark.parametrize("seed", range(6))
def test_batched_central_differences_match_serial_within_roundoff(seed):
    # the gradients suite's sizes. Loss terms: r_i = f((A u)_i) - y_i with
    # |f(t)| <= 2.5 |t| + 0.5 for both links here, so with
    # R = 2.5 |A| |u| + 0.5 + |y| the loss errs by at most
    # (n + 2p + 8) u * sum(R^2) / 2n. Decoder term <G(u), v> with
    # G(u) = W2 tanh(W1 u + b1) + b2 and |tanh| <= 1, tanh' <= 1: it errs by
    # at most (k + d + p + 4) u * |v| (|W2| (1 + |W1| |u| + |b1|) + |b2|).
    # |u| is taken at |x| + h, which covers every stepped point.
    dec = genmodel.decoder_new(derive_seed(seed, "decoder"), k=4,
                               hidden_dims=[8], p=24, r=3.0)
    op = sensing.sensing_new("dense_gaussian", 40, 24, derive_seed(seed, "op"))
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(op.n)
    x = rng.standard_normal(op.p)
    h = analysis.FD_STEP
    big_r = 2.5 * (np.abs(op.matrix) @ (np.abs(x) + h)) + 0.5 + np.abs(y)
    bound = fd_roundoff(big_r @ big_r / (2 * op.n), op.n + 2 * op.p + 8, h)
    cosine = measurement.shifted_cosine_link()
    for link, loss in (
            (None, lambda u: solvers.loss_glasso(op, y, u)),
            (cosine, lambda u: solvers.loss_nlasso(op, y, cosine, u))):
        batched = analysis._central_differences(
            lambda u: analysis._losses(op, y, (link,), u)[:, 0], x, h)
        serial = oracles.central_differences(loss, x, h)
        assert np.all(np.abs(batched - serial) <= bound)

    z = genmodel.sample_latent(dec, derive_seed(seed, "z"))
    v = rng.standard_normal(dec.ambient_dim)
    h = analysis.VJP_STEP
    (w1, b1), (w2, b2) = dec.layers
    magnitude = np.abs(v) @ (np.abs(w2) @ (1 + np.abs(w1) @ (np.abs(z) + h)
                                           + np.abs(b1)) + np.abs(b2))
    terms = dec.latent_dim + dec.hidden_dims[0] + dec.ambient_dim + 4
    bound = fd_roundoff(magnitude, terms, h)
    batched = analysis._central_differences(
        lambda u: genmodel._forward_cached(dec, u)[0] @ v, z, h)
    serial = oracles.central_differences(
        lambda u: genmodel.forward(dec, u) @ v, z, h)
    assert np.all(np.abs(batched - serial) <= bound)


def spy_rows(monkeypatch, module, name, rows):
    """Record the row count of each call of module.name in rows."""
    real = getattr(module, name)

    def spy(owner, x, *args):
        rows.append(np.atleast_2d(x).shape[0])
        return real(owner, x, *args)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("kind,n", OPERATORS)
def test_range_checks_read_the_operator_once(monkeypatch, kind, n):
    # tsrec and wnu apply A only to form A^T A: the operator rows they make
    # do not grow with the number of pairs
    dec = check_decoder()
    op = sensing.sensing_new(kind, n, dec.ambient_dim, derive_seed(n, kind))
    rows = []
    spy_rows(monkeypatch, sensing, "apply", rows)
    spy_rows(monkeypatch, sensing, "adjoint_apply", rows)
    for check in (lambda pairs: analysis.tsrec_check(op, dec, 0.5, 0.01,
                                                     pairs, seed=1),
                  lambda pairs: analysis.wnu_check(op, dec, 1.0, 0.3, pairs,
                                                   seed=1)):
        counts = []
        for pairs in (10, 1000):
            rows.clear()
            check(pairs)
            counts.append(sum(rows))
        assert counts[0] == counts[1] == 2 * op.p


@pytest.mark.parametrize("n", [1, 200, 5000, analysis.N_CAP])
@pytest.mark.parametrize("tags", [("a",), ("a", "b"), ("a", "b", "c", "d")])
def test_range_blocks_stay_within_the_cell_budget(monkeypatch, n, tags):
    # every block but the last holds _block_len pairs; a block's range
    # points and measurements fit in CHECK_CELLS floats, or it is one pair;
    # the points of each tag are G at the tag's draws, in draw order
    dec = check_decoder()
    width = len(tags) * (n + dec.ambient_dim)
    want = [genmodel._forward_cached(dec, genmodel._sample_latents(
        dec, np.random.default_rng(derive_seed(1, tag)), 300, 1.0))[0]
        for tag in tags]
    decoded, blocks = [], []
    spy_rows(monkeypatch, genmodel, "_forward_cached", decoded)
    analysis._range_map(lambda *x: blocks.append(x) or np.zeros(len(x[0])),
                        dec, 1, tags, 300, n)
    sizes = [len(block[0]) for block in blocks]
    assert decoded == [len(tags) * b for b in sizes] and sum(sizes) == 300
    assert set(sizes[:-1]) <= {analysis._block_len(width)}
    assert all(b * width <= max(analysis.CHECK_CELLS, width) for b in sizes)
    for got, points in zip(zip(*blocks), want, strict=True):
        assert np.allclose(np.concatenate(got), points, rtol=1e-12,
                           atol=1e-12)


@pytest.mark.parametrize("n", [2000, analysis.N_CAP])
def test_check_products_stay_within_the_cell_budget(monkeypatch, n):
    # A check block of b pairs or points holds b * c * (n + p) floats of
    # operands and measurements: c = 2 range points in tsrec, 4 in wnu, 4
    # vectors in polarization, 1 point in jle and in a loss evaluation, and
    # 1 stepped point in the gradients check, whose points have 2p of them
    # each. It stays within CHECK_CELLS, or holds one pair or point. A small
    # p keeps the operator at n = N_CAP to 6.4 MB.
    dec = genmodel.decoder_new(1, k=2, hidden_dims=[4], p=8, r=3.0)
    p = dec.ambient_dim
    op = sensing.sensing_new("dense_gaussian", n, p, 2)
    applied, decoded = [], []
    for name in ("apply", "adjoint_apply", "_apply_each", "_adjoint_each"):
        spy_rows(monkeypatch, sensing, name, applied)
    spy_rows(monkeypatch, genmodel, "_forward_cached", decoded)
    runs = [
        (2, lambda: analysis.tsrec_check(op, dec, eps=0.5, delta=0.01,
                                         pairs=40, seed=1)),
        (4, lambda: analysis.wnu_check(op, dec, nu=1.0, eps=0.3, pairs=40,
                                       seed=1)),
        (4, lambda: analysis.polarization_check(op, 40, seed=1)),
        (1, lambda: analysis.jle_check(op, np.ones((40, p)), eps=0.5)),
        (1, lambda: analysis._central_differences(
            lambda u: analysis._losses(op, np.zeros(n), (None,), u),
            np.ones(p), 1e-6)),
        (1, lambda: analysis.gradient_check(op, measurement.linear_link(),
                                            dec, points=40, seed=1)),
    ]
    for c, run in runs:
        applied.clear()
        decoded.clear()
        run()
        budget = max(analysis.CHECK_CELLS, c * (n + p))
        assert max(applied) * c * (n + p) <= budget
        assert max(decoded, default=0) * (n + p) <= budget
        assert max(applied) > 1 if n == 2000 else max(applied) == 1


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
