"""Deterministic RNG plumbing.

Every random decision in the toolkit flows from an explicit u64 master seed.
Independent substreams (per label, per video, per row) are derived by hashing
the master seed together with a string key path, so parallel or re-ordered
execution cannot change results.
"""
from __future__ import annotations

import hashlib
import struct

from ._lazy import np

MASK64 = (1 << 64) - 1


def derive_seed(master: int, *keys: object) -> int:
    """Derive a u64 substream seed from a master seed and a key path."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", master & MASK64))
    for key in keys:
        h.update(str(key).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def make_rng(seed: int, *keys: object) -> np.random.Generator:
    """Generator for the substream identified by (seed, *keys)."""
    if keys:
        seed = derive_seed(seed, *keys)
    return np.random.Generator(np.random.PCG64(seed & MASK64))
