"""Random measurement operators with forward and adjoint application.

Two kinds are supported: a dense matrix with i.i.d. standard normal entries,
and a row-subsampled Gaussian circulant with random column sign flips,
A = R_Omega circ(g) D_xi. The operator stores A unnormalized; 1/n and
1/sqrt(n) factors live at the call sites that need them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SensingOperator",
    "sensing_new",
    "apply",
    "adjoint_apply",
]

KINDS = ("dense_gaussian", "partial_circulant")


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class SensingOperator:
    kind: str
    n: int
    p: int
    seed: int
    matrix: np.ndarray | None = None  # dense payload
    gen: np.ndarray | None = None     # circulant generator g (length p)
    signs: np.ndarray | None = None   # +-1 column flips xi (length p)
    omega: np.ndarray | None = None   # sorted row subset, |omega| = n
    # rfft(g), derived from gen once; every circulant product reads it
    spectrum: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.n < 1 or self.p < 1:
            raise ValueError("operator dimensions must be positive")
        if self.kind == "partial_circulant":
            if len(self.omega) != self.n or len(np.unique(self.omega)) != self.n:
                raise ValueError("omega must hold n distinct indices")
            object.__setattr__(self, "spectrum", np.fft.rfft(self.gen))


def sensing_new(kind, n, p, seed):
    """Draw a fresh operator of the given kind from the seed."""
    rng = np.random.default_rng(seed)
    if kind == "dense_gaussian":
        return SensingOperator(kind, int(n), int(p),
                               int(seed), matrix=rng.standard_normal((n, p)))
    if kind == "partial_circulant":
        if n > p:
            raise ValueError("partial_circulant requires n <= p")
        g = rng.standard_normal(p)
        xi = rng.choice([-1.0, 1.0], size=p)
        omega = np.sort(rng.choice(p, size=n, replace=False))
        return SensingOperator(kind, int(n), int(p), int(seed),
                               gen=g, signs=xi, omega=omega)
    raise ValueError(f"unknown operator kind {kind!r}")


def apply(op, x):
    """A x for a vector x, or the rows of A x_i for a stack x of shape (m, p).
    Circulant path: the cyclic convolution circ(g) x, with
    (circ(g))_ij = g_((i-j) mod p), by FFT, then row subsampling."""
    x = _checked(x, op.p)
    if op.kind == "dense_gaussian":
        return op.matrix @ x if x.ndim == 1 else x @ op.matrix.T
    full = np.fft.irfft(op.spectrum * np.fft.rfft(op.signs * x), n=op.p)
    return full[..., op.omega]


def adjoint_apply(op, v):
    """A^T v for a vector v, or row-wise for a stack v of shape (m, n).
    Circulant path: zero-fill on omega, correlate with g (circ(g)^T w) by
    FFT, flip signs."""
    v = _checked(v, op.n)
    if op.kind == "dense_gaussian":
        return op.matrix.T @ v if v.ndim == 1 else v @ op.matrix
    w = np.zeros(v.shape[:-1] + (op.p,))
    w[..., op.omega] = v
    return op.signs * np.fft.irfft(np.conj(op.spectrum) * np.fft.rfft(w),
                                   n=op.p)


def _apply_each(op, x):
    """The rows A x_i of a stack x, (m, p), each bit for bit the vector
    product ``apply(op, x_i)``: one gemv per row for a dense operator (a
    gemm rounds differently), and C-contiguous rows, so that a row's dot
    product rounds as the vector's does (``apply`` returns a circulant
    stack in column order). A vector x is ``apply(op, x)`` itself."""
    if op.kind == "dense_gaussian" and np.ndim(x) > 1:
        return (op.matrix @ _checked(x, op.p)[..., None])[..., 0]
    return np.ascontiguousarray(apply(op, x))


def _adjoint_each(op, v):
    """The rows A^T v_i of a stack v, (m, n), each bit for bit the vector
    product ``adjoint_apply(op, v_i)``; a vector v is that product."""
    if op.kind == "dense_gaussian" and np.ndim(v) > 1:
        return (op.matrix.T @ _checked(v, op.n)[..., None])[..., 0]
    return adjoint_apply(op, v)


def _checked(x, length):
    """x as a float array: a vector of the given length or a stack of rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != length:
        raise ValueError(f"expected vector of length {length} or rows of it")
    return x

