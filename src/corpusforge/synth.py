"""Procedural video fixtures for exercising the dedup pipeline.

Two frame generators with complementary properties:

* ramp frames -- horizontal bands filled with linear intensity ramps at 8
  fixed orientations.  The census histogram of such a frame is (area-wise)
  the band-width vector over 8 well-separated bins, so frames built from a
  packed family of width vectors are mutually dissimilar while being almost
  exactly reproducible across spatial rescales (gradients are scale-free).
  Use these wherever duplicate detection across rescaling matters.

* tile frames -- a 3x3 permutation of intensity levels tiled periodically.
  Every permutation yields a census histogram on its own pseudo-random bin
  set, giving a practically unlimited supply of mutually dissimilar frames.
  These are not rescale-stable; use them for distractor content.

Ramp frames drawn from :data:`RAMP_FAMILY` have pairwise signature cosine
below ~0.81, tile-vs-ramp cosine below ~0.6, and same-content 2x-rescale
cosine above 0.99 (checked in the test suite against the exact oracle).
"""
from __future__ import annotations

import math
from itertools import permutations

from ._lazy import np
from .census import FrameVideo
from .rng import make_rng

# ramp orientations at census sector centers; each maps to a distinct folded bin
RAMP_ANGLES = tuple(math.radians(22.5 + 45.0 * n) for n in range(8))

_FAMILY_SEED = 0xC0FFEE
_FAMILY_SIZE = 40
_FAMILY_MAX_COS = 0.80
_FAMILY_MIN_WIDTH = 0.15


def _build_ramp_family() -> np.ndarray:
    """Greedy packing of band-width vectors with pairwise cosine <= 0.80."""
    rng = make_rng(_FAMILY_SEED, "ramp-family")
    family: list[np.ndarray] = []
    while len(family) < _FAMILY_SIZE:
        k = int(rng.integers(1, 4))
        dirs = rng.choice(8, size=k, replace=False)
        widths = rng.dirichlet(np.ones(k))
        if k > 1 and widths.min() < _FAMILY_MIN_WIDTH:
            continue
        v = np.zeros(8)
        v[dirs] = widths
        unit = v / np.linalg.norm(v)
        if all(float(unit @ (u / np.linalg.norm(u))) <= _FAMILY_MAX_COS for u in family):
            family.append(v)
    return np.stack(family)


RAMP_FAMILY = _build_ramp_family()

_TILE_PERMUTATIONS = list(permutations(range(9)))


def ramp_frame(member: int, side: int = 112) -> np.ndarray:
    """Band-ramp frame for one family member, values in [0, 255]."""
    comp = RAMP_FAMILY[member % len(RAMP_FAMILY)]
    ys = np.arange(side) / side
    xs = np.arange(side) / side
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    img = np.full((side, side), 127.5)
    edges = np.concatenate([[0.0], np.cumsum(comp)])
    for d in range(8):
        if comp[d] <= 0.0:
            continue
        y0 = int(round(edges[d] * side))
        y1 = int(round(edges[d + 1] * side))
        if y1 <= y0:
            continue
        theta = RAMP_ANGLES[d]
        proj = xx[y0:y1] * math.cos(theta) + yy[y0:y1] * math.sin(theta)
        img[y0:y1] = 127.5 + 224.0 * (proj - proj.mean())
    return np.clip(img, 0.0, 255.0)


def tile_frame(tile_id: int, side: int = 112) -> np.ndarray:
    """Periodic 3x3-permutation texture, values in [10, 250]."""
    perm = _TILE_PERMUTATIONS[tile_id % len(_TILE_PERMUTATIONS)]
    tile = (10.0 + 30.0 * np.asarray(perm, dtype=np.float64)).reshape(3, 3)
    reps = side // 3 + 2
    return np.tile(tile, (reps, reps))[:side, :side]


def ramp_video(
    video_id: str,
    members: list[int],
    side: int = 112,
    fps: float = 16.0,
) -> FrameVideo:
    """Video whose frame k renders RAMP_FAMILY[members[k]]."""
    frames = np.stack([ramp_frame(m, side) for m in members])
    return FrameVideo(video_id=video_id, fps=fps, frames=frames)


def tile_video(
    video_id: str,
    tile_ids: list[int],
    side: int = 112,
    fps: float = 16.0,
) -> FrameVideo:
    frames = np.stack([tile_frame(t, side) for t in tile_ids])
    return FrameVideo(video_id=video_id, fps=fps, frames=frames)
