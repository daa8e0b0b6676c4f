"""Exact dedup oracle, independent of ``corpusforge``.

It reads the ``.cfvd`` files itself, computes census signatures with its own
numpy code and compares every source frame with every target frame (brute
force, no LSH).  The overlap rule is the program's: the share of a source's
frames with at least one target frame at cosine >= tau.
"""
from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

_HEADER = struct.Struct("<4sIIIf")
_SIDE = 112
_FPS = 16.0
_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))


def _read(path: Path) -> np.ndarray:
    data = path.read_bytes()
    magic, w, h, n, fps = _HEADER.unpack_from(data)
    if magic != b"CFVD" or fps != _FPS or w != h or w not in (_SIDE, 2 * _SIDE):
        raise ValueError(f"{path}: oracle expects square {_SIDE} or {2 * _SIDE} px CFVD at {_FPS} fps")
    return np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size).reshape(n, h, w)


def _signature(frame: np.ndarray) -> np.ndarray:
    f = frame.astype(np.float64)
    if f.shape[0] == 2 * _SIDE:
        # half-pixel-centre bilinear at an exact 2x downscale is the 2x2 block mean
        f = f.reshape(_SIDE, 2, _SIDE, 2).mean(axis=(1, 3))
    center = f[1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.int64)
    for bit, (dy, dx) in enumerate(_OFFSETS):
        codes |= (f[1 + dy : _SIDE - 1 + dy, 1 + dx : _SIDE - 1 + dx] > center).astype(np.int64) << bit
    hist = np.bincount((codes // 4).ravel(), minlength=64).astype(np.float64)
    return hist / np.linalg.norm(hist)


def _signatures(directory: Path, cache: dict[bytes, np.ndarray]) -> dict[str, np.ndarray]:
    """Unit-length signature rows per video; identical frames are computed once."""
    out = {}
    for path in sorted(directory.glob("*.cfvd")):
        rows = []
        for frame in _read(path):
            key = hashlib.blake2b(frame.tobytes(), digest_size=16).digest()
            if key not in cache:
                cache[key] = _signature(frame)
            rows.append(cache[key])
        out[path.stem] = np.stack(rows)
    return out


class DedupOracle:
    def __init__(self, sources: Path, targets: Path) -> None:
        cache: dict[bytes, np.ndarray] = {}
        self.sources = _signatures(sources, cache)
        self.targets = _signatures(targets, cache)
        self.similarity = {
            (s, t): src @ tgt.T
            for s, src in self.sources.items()
            for t, tgt in self.targets.items()
        }

    def pairs(self, tau: float) -> dict[tuple[str, str], float]:
        """(source, target) -> overlap percent, for every pair with overlap > 0."""
        out = {}
        for key, sim in self.similarity.items():
            matched = int((sim >= tau).any(axis=1).sum())
            if matched:
                out[key] = 100.0 * matched / sim.shape[0]
        return out
