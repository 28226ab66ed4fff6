"""Synthetic generative prior: a fixed-weight multilayer decoder.

The decoder maps a bounded latent ball into ambient space. It is immutable
after construction, its forward pass is deterministic, and it carries a
certified Lipschitz upper bound (product of per-layer spectral norms; the
activations used here are all 1-Lipschitz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import _pcg64_states, derive_seed
from .sensing import _power_norm

__all__ = [
    "GenerativeDecoder",
    "decoder_new",
    "identity_decoder",
    "orthonormal_linear_decoder",
    "forward",
    "vjp",
    "lipschitz_bound",
    "sample_latent",
    "decoder_to_json",
    "decoder_from_json",
]

ACTIVATIONS = ("tanh", "relu", "identity")


@dataclass(frozen=True)
class GenerativeDecoder:
    """Fixed-weight feed-forward decoder z in B_2^k(r) -> R^p.

    ``layers`` is an ordered list of (weight, bias) pairs; the activation is
    applied after every layer except the last. ``family`` records how the
    weights were generated so they can be rebuilt from the seed alone.
    """

    latent_dim: int
    ambient_dim: int
    latent_radius: float
    layers: tuple
    activation: str
    seed: int
    weight_scale: float
    family: str = "mlp"
    hidden_dims: tuple = ()
    lipschitz: float = field(default=0.0)

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


def _check_dims(k, p, r):
    """The checks on k, p and r that every decoder family shares; factories
    run them before drawing weights."""
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p, got k = {k}, p = {p}")
    if not 0 < r < math.inf:
        raise ValueError(f"r must be finite and positive, got {r}")


def decoder_new(seed, k, hidden_dims, p, r, activation="tanh", weight_scale=1.0):
    """Build a decoder with Gaussian weights of std weight_scale/sqrt(fan_in).

    Biases are zero. Empty ``hidden_dims`` yields a single linear layer.
    """
    _check_dims(k, p, r)
    if not 0 < weight_scale < math.inf:
        raise ValueError("weight scale must be finite and positive")
    dims = [int(k)] + [int(h) for h in hidden_dims] + [int(p)]
    if min(dims[:-1]) < 1:  # each fan-in divides a weight std
        raise ValueError("hidden dims must be positive")
    rng = np.random.default_rng(seed)
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        w = rng.standard_normal((d_out, d_in)) * (weight_scale / np.sqrt(d_in))
        layers.append((w, np.zeros(d_out)))
    dec = GenerativeDecoder(
        latent_dim=int(k),
        ambient_dim=int(p),
        latent_radius=float(r),
        layers=tuple(layers),
        activation=activation,
        seed=int(seed),
        weight_scale=float(weight_scale),
        family="mlp",
        hidden_dims=tuple(int(h) for h in hidden_dims),
    )
    object.__setattr__(dec, "lipschitz", _lipschitz_product(dec))
    return dec


def identity_decoder(k, r=1.0):
    """Decoder with a single identity layer: forward(z) = z."""
    _check_dims(k, k, r)
    layers = ((np.eye(k), np.zeros(k)),)
    dec = GenerativeDecoder(k, k, float(r), layers, "identity", 0, 1.0,
                            family="identity")
    object.__setattr__(dec, "lipschitz", _lipschitz_product(dec))
    return dec


def orthonormal_linear_decoder(seed, k, p, r):
    """Single linear layer whose columns are orthonormal (QR of a Gaussian).

    Projection onto the range of this decoder has a closed form, which makes
    it the exact-projection oracle used in tests.
    """
    _check_dims(k, p, r)
    rng = np.random.default_rng(seed)
    q, rmat = np.linalg.qr(rng.standard_normal((p, k)))
    q = q * np.sign(np.diag(rmat))  # canonical sign, deterministic
    dec = GenerativeDecoder(int(k), int(p), float(r), ((q, np.zeros(p)),),
                            "identity", int(seed), 1.0,
                            family="orthonormal_linear")
    object.__setattr__(dec, "lipschitz", _lipschitz_product(dec))
    return dec


def forward(decoder, z):
    """Evaluate the decoder at a latent point; points outside the latent
    ball still evaluate."""
    z = np.asarray(z, dtype=float)
    if z.shape != (decoder.latent_dim,):
        raise ValueError(f"latent vector must have length {decoder.latent_dim}")
    return _forward_cached(decoder, z)[0]


def vjp(decoder, z, v):
    """Gradient of <G(z), v> with respect to z (reverse accumulation). The
    activation derivative is read off the forward pass's activations:
    1 - tanh^2, or relu > 0, so ReLU uses derivative 0 at 0.
    """
    z = np.asarray(z, dtype=float)
    g = np.asarray(v, dtype=float)
    if z.shape != (decoder.latent_dim,):
        raise ValueError(f"latent vector must have length {decoder.latent_dim}")
    if g.shape != (decoder.ambient_dim,):
        raise ValueError(f"ambient vector must have length {decoder.ambient_dim}")
    hidden = _forward_cached(decoder, z)[1]
    for i in range(len(decoder.layers) - 1, -1, -1):
        g = g @ decoder.layers[i][0]
        if i > 0 and decoder.activation != "identity":
            h = hidden[i - 1]
            g = g * (1.0 - h * h if decoder.activation == "tanh" else h > 0)
    return g


def _forward_cached(decoder, z):
    """Outputs for the rows of z, (B, k) or (k,), and the hidden activations."""
    hidden = []
    h = z
    last = len(decoder.layers) - 1
    for i, (w, b) in enumerate(decoder.layers):
        h = h @ w.T + b
        if i < last:
            h = _act(decoder.activation, h)
            hidden.append(h)
    return h, hidden


def _jacobian_cached(decoder, z, hidden):
    """dG/dz at the rows of z, (B, k), as a (B, p, k) stack, by forward
    accumulation; activations and derivatives as in ``vjp``."""
    (w, _), *rest = decoder.layers
    jt = np.broadcast_to(w.T, (len(z),) + w.T.shape)  # rows of J^T, (B, k, d)
    for h, (w, _) in zip(hidden, rest):
        if decoder.activation != "identity":
            tanh = decoder.activation == "tanh"
            jt = jt * (1.0 - h * h if tanh else h > 0)[:, None]
        jt = (jt.reshape(-1, w.shape[1]) @ w.T).reshape(len(z), -1, w.shape[0])
    return np.swapaxes(jt, 1, 2)


def lipschitz_bound(decoder):
    """Upper bound on the decoder's Lipschitz constant (cached at build)."""
    return decoder.lipschitz


def sample_latent(decoder, seed, inset=0.9):
    """Uniform sample from the ball of radius inset * r.

    The default inset keeps planted signals strictly interior to the latent
    ball, away from projection boundary effects.
    """
    return _sample_latents(decoder, [seed], inset)[0]


def _sample_latents(decoder, seeds, inset):
    """One ``sample_latent`` draw per seed, as the rows of a (len(seeds), k)
    array. Each row equals its one-seed draw bit for bit: the radius is
    computed in Python floats, and ``vecdot`` rounds like the 1-D norm. One
    generator is reused: each seed's ``default_rng`` state is derived for all
    seeds at once and set before its draws."""
    k = decoder.latent_dim
    d = np.empty((len(seeds), k))
    radius = np.empty(len(seeds))
    rng = np.random.Generator(np.random.PCG64(0))
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    for i, (s, inc) in enumerate(_pcg64_states(seeds)):
        rng.bit_generator.state = {**state, "state": {"state": s, "inc": inc}}
        d[i] = rng.standard_normal(k)
        radius[i] = decoder.latent_radius * inset * rng.random() ** (1.0 / k)
    return radius[:, None] * (d / np.sqrt(np.vecdot(d, d))[:, None])


def decoder_to_json(decoder):
    """JSON-serializable description; weights regenerate from the seed."""
    doc = {
        "family": decoder.family,
        "k": decoder.latent_dim,
        "p": decoder.ambient_dim,
        "r": decoder.latent_radius,
        "activation": decoder.activation,
        "seed": decoder.seed,
        "layer_dims": list(decoder.hidden_dims),
        "weight_scale": decoder.weight_scale,
    }
    return doc


def decoder_from_json(doc):
    family = doc.get("family", "mlp")
    if family == "mlp":
        return decoder_new(doc["seed"], doc["k"], doc.get("layer_dims", []),
                           doc["p"], doc["r"], doc.get("activation", "tanh"),
                           doc.get("weight_scale", 1.0))
    if family == "orthonormal_linear":
        return orthonormal_linear_decoder(doc["seed"], doc["k"], doc["p"], doc["r"])
    if family == "identity":
        return identity_decoder(doc["k"], doc["r"])
    raise ValueError(f"unknown decoder family {family!r}")


def _act(name, x):
    if name == "tanh":
        return np.tanh(x)
    if name == "relu":
        return np.maximum(x, 0.0)
    return x


def _lipschitz_product(decoder):
    # tanh/relu/identity are 1-Lipschitz, so the product of per-layer
    # spectral norms is a valid upper bound.
    prod = 1.0
    for i, (w, _) in enumerate(decoder.layers):
        prod *= _power_norm(lambda v, w=w: w @ v, lambda u, w=w: w.T @ u,
                            w.shape[1], derive_seed(decoder.seed, "lipschitz", i))
    return prod
