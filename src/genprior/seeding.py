"""Deterministic seed derivation.

Every random object in the package is seeded from a 64-bit integer. Experiment
drivers derive sub-seeds from a master seed with ``derive_seed(master, label,
index)`` so that trials can fan out concurrently without seed collisions and
re-runs are bit-reproducible. The rule is a hash of the string
``"{master}:{label}:{index}"``, so it is stable across platforms and sessions.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

__all__ = ["derive_seed"]

_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _consts(init, mult, count):
    # init * mult**j mod 2**32 for j = 0..count, as a uint32 column
    return np.array([init * pow(mult, j, 1 << 32) & _MASK32
                     for j in range(count + 1)], dtype=np.uint32)[:, None]


# numpy SeedSequence's hash constants: mixing 4 pool words calls hashmix
# 4 + 12 times, and generate_state(4, uint64) hashes 8 output words.
_HASH_A = _consts(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _consts(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def derive_seed(master: int, label: str, index: int = 0) -> int:
    """Derive a 64-bit sub-seed from a master seed, a label and an index."""
    payload = f"{master}:{label}:{index}".encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _pcg64_states(seeds):
    """``(state, inc)`` of ``np.random.default_rng(seed).bit_generator.state``
    for each seed in [0, 2**64), as Python ints.

    numpy's SeedSequence mixing (pool size 4) runs as uint32 array arithmetic
    over all seeds at once. A seed's entropy is its 1 or 2 little-endian
    32-bit words; padded with zeros to the pool size it hashes the same.
    PCG64's two-step ``srandom`` then runs in Python ints.
    """
    seeds = [operator.index(s) for s in seeds]
    if seeds and not (min(seeds) >= 0 and max(seeds) < 1 << 64):
        raise ValueError("seeds must lie in [0, 2**64)")
    s = np.array(seeds, dtype=np.uint64)
    entropy = np.zeros((4, len(seeds)), dtype=np.uint32)
    entropy[0], entropy[1] = s & _MASK32, s >> 32
    pool = _hash(entropy, _HASH_A[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        h = _hash(pool[src], _HASH_A[4 + 3 * src:8 + 3 * src])
        m = _MIX_L * pool[dst] - _MIX_R * h
        pool[dst] = m ^ (m >> 16)
    w = _hash(np.tile(pool, (2, 1)), _HASH_B).astype(np.uint64)
    hi, lo, inc_hi, inc_lo = (w[0::2] | w[1::2] << 32).tolist()
    incs = [((a << 64 | b) << 1 | 1) & _MASK128 for a, b in zip(inc_hi, inc_lo)]
    return [(((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128, inc)
            for a, b, inc in zip(hi, lo, incs)]


def _hash(v, consts):
    """SeedSequence's hashmix of the rows of v: row i is xored with
    consts[i] and multiplied by consts[i + 1] (uint32, wrapping)."""
    v = (v ^ consts[:-1]) * consts[1:]
    return v ^ (v >> 16)
