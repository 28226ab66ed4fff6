"""Synthetic generative prior: a fixed-weight multilayer decoder.

The decoder maps a bounded latent ball into ambient space. It is immutable
after construction, its forward pass is deterministic, and it carries a
certified Lipschitz upper bound: the product of its layers' exact spectral
norms, computed on first read, then cached (the activations used here are
all 1-Lipschitz).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GenerativeDecoder",
    "decoder_new",
    "identity_decoder",
    "orthonormal_linear_decoder",
    "forward",
    "vjp",
    "sample_latent",
]

ACTIVATIONS = ("tanh", "relu", "identity")
WEIGHT_CAP = 2 ** 27  # layer weights of one decoder: 1 GiB of float64


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class GenerativeDecoder:
    """Fixed-weight feed-forward decoder z in B_2^k(r) -> R^p.

    ``layers`` is an ordered list of (weight, bias) pairs; the activation is
    applied after every layer except the last. ``family`` records how the
    weights were generated so they can be rebuilt from the seed alone.
    ``hidden_dims`` (the output dims of all layers but the last) is derived
    from ``layers`` at construction; ``lipschitz`` (the product of the
    layers' spectral norms) on first read, then cached.
    """

    latent_dim: int
    ambient_dim: int
    latent_radius: float
    layers: tuple
    activation: str
    seed: int
    weight_scale: float
    family: str = "mlp"
    hidden_dims: tuple = field(init=False)

    def __post_init__(self):
        _check_dims(self.latent_dim, self.ambient_dim, self.latent_radius)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        dims = [self.latent_dim]
        for w, b in self.layers:
            if w.shape[1] != dims[-1]:
                raise ValueError("layer dimensions do not chain")
            if b.shape != (w.shape[0],):
                raise ValueError("bias shape does not match layer output")
            dims.append(w.shape[0])
        if dims[-1] != self.ambient_dim:
            raise ValueError("last layer output dim != ambient dim")
        object.__setattr__(self, "hidden_dims", tuple(dims[1:-1]))

    @functools.cached_property
    def lipschitz(self):  # only the statistical bound reads it
        return float(math.prod(_spectral_norm(w) for w, _ in self.layers))


def _spectral_norm(w):
    """Largest singular value of w, exactly: the root of the top eigenvalue
    of the smaller of the Gram matrices w^T w and w w^T."""
    gram = w.T @ w if w.shape[0] >= w.shape[1] else w @ w.T
    return math.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))


def _check_dims(k, p, r):
    """The checks on k, p and r that every decoder family shares; factories
    run them before drawing weights. Returns k and p as ints."""
    k, p = _size(k, "k"), _size(p, "p")
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p, got k = {k}, p = {p}")
    if not 0 < r < math.inf:
        raise ValueError(f"r must be finite and positive, got {r}")
    return k, p


def _check_weights(dims):
    """Reject, before any draw, layers of widths dims (k first, p last) that
    hold more than WEIGHT_CAP weights."""
    count = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    if count > WEIGHT_CAP:
        raise ValueError(f"layer widths {dims} (k, hidden dims, p) hold "
                         f"{count} weights, above the cap of {WEIGHT_CAP}")


def _size(value, name):
    """value as an int; a bool, a float or any other non-integer is rejected
    rather than truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def decoder_new(seed, k, hidden_dims, p, r, activation="tanh", weight_scale=1.0):
    """Build a decoder with Gaussian weights of std weight_scale/sqrt(fan_in).

    Biases are zero. Empty ``hidden_dims`` yields a single linear layer.
    """
    k, p = _check_dims(k, p, r)
    if not 0 < weight_scale < math.inf:
        raise ValueError("weight scale must be finite and positive")
    dims = [k, *(_size(h, "a hidden dim") for h in hidden_dims), p]
    if min(dims[:-1]) < 1:  # each fan-in divides a weight std
        raise ValueError("hidden dims must be positive")
    _check_weights(dims)
    rng = np.random.default_rng(seed)
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        w = rng.standard_normal((d_out, d_in))
        w *= weight_scale / np.sqrt(d_in)
        layers.append((w, np.zeros(d_out)))
    return GenerativeDecoder(k, p, float(r), tuple(layers),
                             activation, int(seed), float(weight_scale),
                             family="mlp")


def identity_decoder(k, r=1.0):
    """Decoder with a single identity layer: forward(z) = z."""
    k, _ = _check_dims(k, k, r)
    _check_weights([k, k])
    layers = ((np.eye(k), np.zeros(k)),)
    return GenerativeDecoder(k, k, float(r), layers, "identity", 0, 1.0,
                             family="identity")


def orthonormal_linear_decoder(seed, k, p, r):
    """Single linear layer whose columns are orthonormal (QR of a Gaussian).

    Projection onto the range of this decoder has a closed form, which makes
    it the exact-projection oracle used in tests.
    """
    k, p = _check_dims(k, p, r)
    _check_weights([k, p])
    rng = np.random.default_rng(seed)
    q, rmat = np.linalg.qr(rng.standard_normal((p, k)))
    q = q * np.sign(np.diag(rmat))  # canonical sign, deterministic
    return GenerativeDecoder(k, p, float(r), ((q, np.zeros(p)),),
                             "identity", int(seed), 1.0,
                             family="orthonormal_linear")


def forward(decoder, z):
    """Evaluate the decoder at a latent point; points outside the latent
    ball still evaluate."""
    z = np.asarray(z, dtype=float)
    if z.shape != (decoder.latent_dim,):
        raise ValueError(f"latent vector must have length {decoder.latent_dim}")
    return _forward_cached(decoder, z)[0]


def vjp(decoder, z, v):
    """Gradient of <G(z), v> with respect to z: v^T J, with the Jacobian
    J = dG/dz of ``_jacobian_cached``."""
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    if z.shape != (decoder.latent_dim,):
        raise ValueError(f"latent vector must have length {decoder.latent_dim}")
    if v.shape != (decoder.ambient_dim,):
        raise ValueError(f"ambient vector must have length {decoder.ambient_dim}")
    hidden = _forward_cached(decoder, z[None])[1]
    return v @ _jacobian_cached(decoder, z[None], hidden)[0]


def _forward_cached(decoder, z):
    """Outputs for the rows of z, (B, k) or (k,), and the hidden activations.
    Each layer is one new array, h @ w.T, to which the bias and activation
    are applied in place: the bits of h @ w.T + b and then the activation."""
    hidden = []
    h = z
    last = len(decoder.layers) - 1
    for i, (w, b) in enumerate(decoder.layers):
        h = h @ w.T
        h += b
        if i < last:
            if decoder.activation == "tanh":
                np.tanh(h, out=h)
            elif decoder.activation == "relu":
                np.maximum(h, 0.0, out=h)
            hidden.append(h)
    return h, hidden


def _jacobian_cached(decoder, z, hidden, each=False):
    """dG/dz at the rows of z, (B, k), as a (B, p, k) stack, by forward
    accumulation. The activation derivative is read off the forward pass's
    activations: 1 - tanh^2, or relu > 0, so ReLU uses derivative 0 at 0.
    With ``each``, row b's products are its own, bit for bit those of z_b."""
    (w, _), *rest = decoder.layers
    jt = np.broadcast_to(w.T, (len(z),) + w.T.shape)  # rows of J^T, (B, k, d)
    for h, (w, _) in zip(hidden, rest):
        if decoder.activation != "identity":
            tanh = decoder.activation == "tanh"
            jt = jt * (1.0 - h * h if tanh else h > 0)[:, None]
        jt = jt @ w.T if each else (jt.reshape(-1, w.shape[1]) @ w.T).reshape(
            len(z), -1, w.shape[0])
    return np.swapaxes(jt, 1, 2)


def sample_latent(decoder, seed, inset=0.9):
    """Uniform sample from the ball of radius inset * r.

    The default inset keeps planted signals strictly interior to the latent
    ball, away from projection boundary effects.
    """
    return _sample_latents(decoder, np.random.default_rng(seed), 1, inset)[0]


def _sample_latents(decoder, rng, count, inset):
    """``count`` uniform draws from the ball of radius inset * r, as the rows
    of a (count, k) array: every direction from rng first, then every radius.
    One draw consumes the stream as ``sample_latent`` does. The radius
    inset * r * u^(1/k) takes u^(1/k) from ``math.pow``, the C library's pow
    that Python's float power also calls; numpy's array power rounds
    differently in a few percent of draws."""
    k = decoder.latent_dim
    d = rng.standard_normal((count, k))
    roots = map(math.pow, rng.random(count).tolist(), [1.0 / k] * count)
    radius = decoder.latent_radius * inset * np.fromiter(roots, float, count)
    return radius[:, None] * (d / np.sqrt(np.vecdot(d, d))[:, None])

