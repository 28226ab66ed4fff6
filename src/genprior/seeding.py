"""Deterministic seed derivation.

Every random object in the package is seeded from a 64-bit integer. Experiment
drivers derive sub-seeds from a master seed with ``derive_seed(master, label,
index)`` so that trials can fan out concurrently without seed collisions and
re-runs are bit-reproducible. The rule is a hash of the string
``"{master}:{label}:{index}"``, so it is stable across platforms and sessions.
"""

from __future__ import annotations

import hashlib

__all__ = ["derive_seed"]


def derive_seed(master: int, label: str, index: int = 0) -> int:
    """Derive a 64-bit sub-seed from a master seed, a label and an index."""
    payload = f"{master}:{label}:{index}".encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")
