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


def check_seed(seed: object, prefix: str = "") -> None:
    """The one seed rule: an integer in [0, 2**64).  Errors start with ``prefix``."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        from .records import ValidationError  # records imports this module

        raise ValidationError(f"{prefix}seed must be an integer in [0, 2**64), got {seed!r}")


def derive_seed(master: int, *keys: object) -> int:
    """Derive a u64 substream seed from a master seed and a key path."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", master))
    for key in keys:
        h.update(str(key).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def make_rng(seed: int, *keys: object) -> np.random.Generator:
    """Generator for the substream identified by (seed, *keys)."""
    check_seed(seed)
    if keys:
        seed = derive_seed(seed, *keys)
    return np.random.Generator(np.random.PCG64(seed))
