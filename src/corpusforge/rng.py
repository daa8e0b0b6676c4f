"""Deterministic RNG plumbing.

Every random decision in the toolkit flows from an explicit u64 master seed.
Independent substreams (per label, per video, per row) are derived by hashing
the master seed together with a string key path, so parallel or re-ordered
execution cannot change results.

:func:`make_rng` is the one seeded-stream rule.  :func:`first_integers` is its
batched form for the first bounded draw of many streams: it reproduces numpy's
``SeedSequence`` mixing, PCG64 seeding (O'Neill 2014, "PCG: A Family of Simple
Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation") and bounded 32-bit draw (Lemire 2019, "Fast Random Integer
Generation in an Interval") for all streams at once, without a ``Generator``
per stream.
"""
from __future__ import annotations

import hashlib
import struct
from typing import Sequence

from ._lazy import np


def check_seed(seed: object, prefix: str = "") -> None:
    """The one seed rule: an integer in [0, 2**64).  Errors start with ``prefix``."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        from .records import ValidationError, _shown  # records imports this module

        raise ValidationError(f"{prefix}seed must be an integer in [0, 2**64), got {_shown(seed)}")


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


# numpy's SeedSequence constants (its pool is 4 words), and PCG64's multiplier
_MASK32 = 2**32 - 1
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state_words(seeds: Sequence[int]) -> list:
    """``SeedSequence(s).generate_state(8, np.uint32)`` for every u64 ``s``, as
    eight uint32 arrays.  A seed below 2**32 is one entropy word, not two, but
    SeedSequence hashes a missing word exactly like a zero word."""
    u64 = np.array(seeds, dtype=np.uint64)
    pool = [(u64 & np.uint64(_MASK32)).astype(np.uint32), (u64 >> np.uint64(32)).astype(np.uint32)]
    pool += [np.zeros(len(u64), dtype=np.uint32)] * 2
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ (out >> np.uint32(16))

    pool = [hashmix(word) for word in pool]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        words.append(value ^ (value >> np.uint32(16)))
    return words


def _pcg64_states(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(s)`` for every u64 ``s``, before any draw."""
    words = [w.tolist() for w in _seed_state_words(seeds)]
    states = []
    for w0, w1, w2, w3, w4, w5, w6, w7 in zip(*words):
        # generate_state(4, np.uint64) is (initstate high, low, sequence high, low);
        # seeding: state 0, inc = 2*sequence + 1; step; state += initstate; step
        initstate = (w1 << 96) | (w0 << 64) | (w3 << 32) | w2
        inc = (((w5 << 96) | (w4 << 64) | (w7 << 32) | w6) << 1 | 1) & _MASK128
        states.append((((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def first_integers(seed: int, key_paths: Sequence[tuple], bounds: Sequence[int]) -> list[int]:
    """``[int(make_rng(seed, *keys).integers(n)) for keys, n in zip(key_paths, bounds)]``,
    bit for bit, computed for all streams at once.

    Per stream: the u64 from :func:`derive_seed`, numpy's ``SeedSequence``
    mixing (vectorised over the streams), the PCG64 seeding step, then XSL-RR
    outputs consumed as 32-bit halves, low half first, by numpy's Lemire
    rejection draw.  A bound outside [1, 2**32] takes numpy's other draws, so
    that stream runs through :func:`make_rng` itself.
    """
    check_seed(seed)
    states = _pcg64_states([derive_seed(seed, *keys) if keys else seed for keys in key_paths])
    out = []
    for keys, n, (state, inc) in zip(key_paths, bounds, states):
        if not 1 <= n <= 2**32:
            out.append(int(make_rng(seed, *keys).integers(n)))
            continue
        threshold = (2**32 - n) % n  # Lemire: a product whose low half is below this is rejected
        high = None
        while True:
            if high is None:
                state = (state * _PCG_MULT + inc) & _MASK128
                x, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
                output = ((x >> rot) | (x << (64 - rot))) & _MASK64
                word, high = output & _MASK32, output >> 32
            else:
                word, high = high, None
            product = word * n
            if product & _MASK32 >= threshold:
                break
        out.append(product >> 32)
    return out
