"""Reference implementations shared by the test modules: the estimators
and serial loops that the library's closed forms and batched paths must
match."""

import math

import numpy as np

from genprior import (analysis, genmodel, measurement, projection,
                      sensing, solvers)
from genprior.errors import UnsupportedOperationError
from genprior.seeding import derive_seed

MU_MC_SEED = derive_seed(0, "mu-of-link-mc")


def mu_mc_estimate(link, samples, seed):
    """Monte Carlo estimate of E[f(g) g] for g ~ N(0, 1), with its standard
    error; the oracle for the library's closed-form and quadrature gains."""
    g = np.random.default_rng(derive_seed(seed, "g")).standard_normal(samples)
    y = measurement.link_eval(link, g, seed=derive_seed(seed, "e"))
    vals = y * g
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples))


def materialize(op):
    """Dense n x p matrix of the operator, built entry by entry from its
    definition A = R_Omega circ(g) D_xi with circ(g)_ij = g_(i-j mod p);
    the oracle for the FFT path of ``sensing.apply``."""
    if op.kind == "dense_gaussian":
        return op.matrix.copy()
    i, j = np.ogrid[:op.p, :op.p]
    return op.gen[(i - j) % op.p][op.omega] * op.signs


def spectral_norm(op):
    """||A||, the top singular value of the materialized operator."""
    return float(np.linalg.norm(materialize(op), 2))


def sample_latent(decoder, seed, inset=0.9):
    """One uniform draw from the ball of radius inset * r, sampled alone;
    the oracle for ``genmodel.sample_latent``."""
    rng = np.random.default_rng(seed)
    k = decoder.latent_dim
    direction = rng.standard_normal(k)
    direction /= np.linalg.norm(direction)
    radius = decoder.latent_radius * inset * rng.uniform() ** (1.0 / k)
    return radius * direction


def ball_draws(decoder, rng, count, inset):
    """count uniform draws from the ball of radius inset * r, one row at a
    time: every direction from rng first, then every radius; the oracle for
    ``genmodel._sample_latents``."""
    k = decoder.latent_dim
    directions = [rng.standard_normal(k) for _ in range(count)]
    radii = [decoder.latent_radius * inset * rng.uniform() ** (1.0 / k)
             for _ in range(count)]
    return [r * (d / np.linalg.norm(d)) for r, d in zip(radii, directions)]


def range_points(decoder, seed, tag, pairs):
    """G(z_i) for the pairs latents of one range-check tag, each decoded
    alone; the latents are drawn from the tag's one stream."""
    rng = np.random.default_rng(derive_seed(seed, tag))
    return [genmodel.forward(decoder, z)
            for z in ball_draws(decoder, rng, pairs, 1.0)]


def tsrec_check(op, decoder, eps, delta, pairs, seed):
    """(violations, worst_margin) of ``analysis.tsrec_check``, one pair at a
    time through the single-vector forward pass and operator."""
    violations = 0
    worst = 0.0
    for x1, x2 in zip(*(range_points(decoder, seed, tag, pairs)
                        for tag in ("tsrec-a", "tsrec-b"))):
        d = x1 - x2
        nd = np.linalg.norm(d)
        s = np.linalg.norm(sensing.apply(op, d)) / np.sqrt(op.n)
        if s > (1 + eps) * nd + delta or s < (1 - eps) * nd - delta:
            violations += 1
        if nd > 0:
            worst = max(worst, abs(s / nd - 1.0))
    return violations, float(worst)


def wnu_check(op, decoder, nu, eps, pairs, seed, slack):
    """(violations, worst_margin) of ``analysis.wnu_check``, one pair at a
    time through the single-vector forward pass and operator."""
    bound_coef = solvers.mu1_of(nu, eps) + slack
    violations = 0
    worst = math.inf
    for xa, xb, xc, xd in zip(*(range_points(decoder, seed, tag, pairs)
                                for tag in ("wnu-a", "wnu-b", "wnu-c", "wnu-d"))):
        x1 = xa - xb
        x2 = xc - xd
        wx1 = x1 - (nu / op.n) * sensing.adjoint_apply(op, sensing.apply(op, x1))
        lhs = abs(float(wx1 @ x2))
        scale = np.linalg.norm(x1) * np.linalg.norm(x2)
        margin = bound_coef * scale - lhs
        worst = min(worst, margin)
        if margin < 0:
            violations += 1
    return violations, float(worst)


def jle_check(op, points, eps):
    """(violations, worst_margin) of ``analysis.jle_check``, one point at a
    time through the single-vector operator."""
    violations = 0
    worst = 0.0
    for x in np.atleast_2d(np.asarray(points, dtype=float)):
        nx2 = float(x @ x)
        if nx2 == 0.0:
            continue
        s2 = float(np.sum(sensing.apply(op, x) ** 2)) / op.n
        dev = abs(s2 / nx2 - 1.0)
        worst = max(worst, dev)
        if dev > eps:
            violations += 1
    return violations, worst


def polarization_pairs(op, pairs, seed):
    """The (x, y) pairs of ``analysis.polarization_check``, drawn one vector
    at a time."""
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(op.p), rng.standard_normal(op.p))
            for _ in range(pairs)]


def polarization_check(op, pairs, seed, tol):
    """(violations, worst_margin) of ``analysis.polarization_check``, one
    pair at a time through the single-vector operator."""
    violations = 0
    worst = 0.0
    for x, y in polarization_pairs(op, pairs, seed):
        lhs = float(sensing.apply(op, x) @ sensing.apply(op, y))
        plus = float(np.sum(sensing.apply(op, x + y) ** 2))
        minus = float(np.sum(sensing.apply(op, x - y) ** 2))
        rhs = (plus - minus) / 4.0
        dev = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, dev)
        if dev > tol:
            violations += 1
    return violations, worst


def mvt_check(op, link, triples, seed):
    """(violations, worst_margin) of ``analysis.mvt_check``, one triple at a
    time through the single-vector operator."""
    rng = np.random.default_rng(seed)
    l, u = link.deriv_lo, link.deriv_hi
    violations = 0
    worst = math.inf
    for _ in range(triples):
        x1 = rng.standard_normal(op.p)
        x2 = rng.standard_normal(op.p)
        t1 = sensing.apply(op, x1)
        t2 = sensing.apply(op, x2)
        base = float(np.linalg.norm(t1 - t2))
        mid = float(np.linalg.norm(measurement.link_eval(link, t1)
                                   - measurement.link_eval(link, t2)))
        if mid < l * base or mid > u * base:
            violations += 1
        worst = min(worst, mid - l * base, u * base - mid)
    return violations, worst


def adjoint_check(op, trials, seed, tol):
    """(violations, worst_margin) of ``analysis.adjoint_check``, one trial
    at a time through the single-vector operator."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.p)
        v = rng.standard_normal(op.n)
        lhs = float(sensing.apply(op, x) @ v)
        rhs = float(x @ sensing.adjoint_apply(op, v))
        dev = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, dev)
        if dev > tol:
            violations += 1
    return violations, worst


def gradient_points(op, link, decoder, points, seed):
    """What ``analysis.gradient_check`` compares at each point, one point at
    a time as its per-point loop formed them: a list of (x, the central
    differences of both losses, (p, 2), the two analytic gradients, the
    central differences of <G(z), v>, the vjp)."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(op.n)
    rows = []
    for _ in range(points):
        x = rng.standard_normal(op.p)
        fd = point_differences(
            lambda u: analysis._losses(op, y, (None, link), u), x,
            analysis.FD_STEP)
        ax = sensing.apply(op, x)  # one product for both gradients
        g_lin = sensing.adjoint_apply(op, ax - y) / op.n
        g_link = sensing.adjoint_apply(
            op, (measurement.link_eval(link, ax) - y)
            * measurement.link_deriv(link, ax)) / op.n
        [z] = ball_draws(decoder, rng, 1, 0.9)
        v = rng.standard_normal(decoder.ambient_dim)
        vfd = point_differences(
            lambda u: genmodel._forward_cached(decoder, u)[0] @ v, z,
            analysis.VJP_STEP)
        rows.append((x, fd, g_lin, g_link, vfd, genmodel.vjp(decoder, z, v)))
    return rows


def gradient_check(op, link, decoder, points, seed):
    """(violations, worst_margin) of ``analysis.gradient_check``, one point
    at a time."""
    def rel_dev(fd, grad):  # normwise: worst error over the largest entry
        return float(np.max(np.abs(fd - grad))
                     / max(np.max(np.abs(grad)), 1e-8))

    violations = 0
    worst = 0.0
    for _, fd, g_lin, g_link, vfd, vjp in gradient_points(op, link, decoder,
                                                          points, seed):
        dev = max(rel_dev(fd[:, 0], g_lin), rel_dev(fd[:, 1], g_link))
        vdev = rel_dev(vfd, vjp)
        worst = max(worst, dev, vdev)
        if dev > analysis.GRADIENT_TOL or vdev > analysis.VJP_TOL:
            violations += 1
    return violations, worst


def point_differences(f, x, h):
    """Central differences with step h at the vector x of a scalar function
    that f evaluates at each row of a stack (or of several, one column
    each): the 2 len(x) stepped points x + h e_j, then x - h e_j, in one
    call, as the gradients check formed them one point at a time."""
    steps = h * np.eye(len(x))
    values = f(np.concatenate([x + steps, x - steps]))
    return (values[:len(x)] - values[len(x):]) / (2 * h)


def central_differences(f, x, h):
    """Central differences with step h at x of the scalar function f, one
    coordinate at a time; the oracle for ``analysis._central_differences``."""
    fd = np.empty_like(x)
    e = np.zeros_like(x)
    for j in range(len(x)):
        e[j] = h
        fd[j] = (f(x + e) - f(x - e)) / (2 * h)
        e[j] = 0.0
    return fd


def project_exact_linear(decoder, x):
    """Exact projection for a single-layer orthonormal-column decoder: the
    minimizer W^T x, radially clipped into the latent ball; the oracle for
    ``projection.project`` on such decoders."""
    w = _orthonormal_weight(decoder)
    x = np.asarray(x, dtype=float)
    if x.shape != (decoder.ambient_dim,):
        raise ValueError(f"expected ambient vector of length {decoder.ambient_dim}")
    z = w.T @ x
    r = decoder.latent_radius
    z = z * (r / max(np.linalg.norm(z), r))
    x_hat = genmodel.forward(decoder, z)
    return projection.ProjectionResult(z, x_hat,
                                       float(np.linalg.norm(x_hat - x)), 0, 0)


def _orthonormal_weight(decoder):
    if (len(decoder.layers) != 1 or decoder.activation != "identity"
            or np.any(decoder.layers[0][1] != 0.0)):
        raise UnsupportedOperationError(
            "exact projection needs a single linear layer with zero bias")
    w = decoder.layers[0][0]
    gram = w.T @ w
    if not np.allclose(gram, np.eye(w.shape[1]), atol=1e-10):
        raise UnsupportedOperationError(
            "exact projection needs orthonormal columns")
    return w
