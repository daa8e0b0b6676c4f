"""Census-transform frame signatures.

Each decoded frame becomes a 64-dim descriptor: the 8-bit census code of
every interior pixel (bit i set iff the i-th of its 8 neighbors, clockwise
from the top-left, is strictly greater) is histogrammed over 256 bins, folded
4:1 down to 64, and L1-normalized.  Comparing against neighbors only makes
the descriptor invariant to brightness shifts and robust to rescaling.

The fold keeps only the top 6 code bits, so only those are computed: the two
neighbors of bits 0 and 1 are never compared, and each code is the folded bin.

Pixels stay uint8 from a CFVD file to the census: a uint8 array compares
exactly as its float64 copy would, so ``FrameVideo`` keeps uint8 frames and
``census_signatures`` compares a block in its own dtype (float64 for any
other input).  ``decode_frames`` runs the census on blocks of
``DECODE_BLOCK`` distinct source frames, and ``bilinear_resize`` reuses one
index/weight plan per frame shape.  Signatures are bit for bit those of
float64 frames.
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ._lazy import np
from .records import ValidationError, check_count, read_exact, write_file

SIGNATURE_DIM = 64
DEFAULT_FPS = 16.0
DEFAULT_SIDE = 112
MAX_DECODED_FRAMES = 2**18  # 4.5 hours at 16 fps; 128 MiB of signatures
DECODE_BLOCK = 8  # distinct source frames per census_signatures call; ~2 MiB of work arrays at 224 px

# clockwise from top-left: bit i compares neighbor at NEIGHBOR_OFFSETS[i]
NEIGHBOR_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1),
)
# code bits the 4:1 fold drops: their neighbors are never compared
FOLDED_BITS = 2

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


def _pixels(frames: np.ndarray) -> np.ndarray:
    """uint8 arrays as they are; anything else as float64 (no copy of float64)."""
    if isinstance(frames, np.ndarray) and frames.dtype == np.uint8:
        return frames
    return np.asarray(frames, dtype=np.float64)


def census_signatures(block: np.ndarray) -> np.ndarray:
    """(n, 64) folded census-code histograms of an (n, 112, 112) grayscale block.

    A uint8 block is compared as uint8, which orders pixels exactly as their
    float64 values do; any other input is compared as float64.  One bincount
    histograms all n frames.
    """
    block = _pixels(block)
    if block.ndim != 3 or block.shape[1:] != (DEFAULT_SIDE, DEFAULT_SIDE):
        raise ValidationError(
            f"census frames must be {DEFAULT_SIDE}x{DEFAULT_SIDE}, got a block of {block.shape}"
        )
    n, h, w = block.shape
    center = block[:, 1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.uint8)
    for bit, (dy, dx) in enumerate(NEIGHBOR_OFFSETS[FOLDED_BITS:]):  # bit of the folded code
        neighbor = block[:, 1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx]
        codes += (neighbor > center).view(np.uint8) * (1 << bit)  # faster than |= and <<
    # frame i's codes count into bins [64 i, 64 i + 64)
    bins = codes + np.arange(0, n * SIGNATURE_DIM, SIGNATURE_DIM)[:, None, None]
    hist = np.bincount(bins.ravel(), minlength=n * SIGNATURE_DIM).reshape(n, SIGNATURE_DIM)
    hist = hist.astype(np.float64)
    return hist / hist.sum(axis=1, keepdims=True)


def census_signature(frame: np.ndarray) -> np.ndarray:
    """64-bin folded census-code histogram of a 112x112 grayscale frame."""
    return census_signatures(_pixels(frame)[None])[0]


def to_grayscale(frame: np.ndarray) -> np.ndarray:
    """ITU luma conversion for (h, w, 3) frames; grayscale passes through."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim == 2:
        return frame
    if frame.ndim == 3 and frame.shape[2] == 3:
        r, g, b = LUMA_WEIGHTS
        return r * frame[..., 0] + g * frame[..., 1] + b * frame[..., 2]
    raise ValidationError(f"expected (h,w) or (h,w,3) frame, got {frame.shape}")


@functools.lru_cache(maxsize=32, typed=True)  # typed: True or 1.0 must not hit the entry for 1
def _resize_plan(in_h: int, in_w: int, out_h: int, out_w: int) -> tuple[np.ndarray, ...]:
    """Source rows (y0 then y1), source columns (x0 then x1) and the weights
    wy, 1 - wy, wx, 1 - wx of one resize shape; read-only, shared by calls.
    The output size is checked here, once per shape."""
    out_h, out_w = check_count(out_h, "out_h"), check_count(out_w, "out_w")
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    rows = np.concatenate((y0, np.minimum(y0 + 1, in_h - 1)))
    cols = np.concatenate((x0, np.minimum(x0 + 1, in_w - 1)))
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    plan = (rows, cols, wy, 1 - wy, wx, 1 - wx)
    for array in plan:
        array.setflags(write=False)
    return plan


def bilinear_resize(frame: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel-center alignment; returns float64."""
    frame = _pixels(frame)
    in_h, in_w = frame.shape
    rows, cols, wy, vy, wx, vx = _resize_plan(in_h, in_w, out_h, out_w)
    corners = frame.take(rows, axis=0)[:, cols]
    tl, tr = corners[:out_h, :out_w], corners[:out_h, out_w:]
    bl, br = corners[out_h:, :out_w], corners[out_h:, out_w:]
    return tl * vy * vx + tr * vy * wx + bl * wy * vx + br * wy * wx


@dataclass
class FrameVideo:
    """In-memory frame source: (n, h, w) or (n, h, w, 3) arrays plus fps.

    uint8 frames stay uint8; any other input becomes float64.
    """

    video_id: str
    fps: float
    frames: np.ndarray

    def __post_init__(self) -> None:
        self.frames = _pixels(self.frames)
        if self.frames.ndim not in (3, 4) or self.frames.shape[0] == 0:
            raise ValidationError(f"video {self.video_id!r}: no frames")
        h, w = self.frames.shape[1:3]
        if h == 0 or w == 0:
            raise ValidationError(f"video {self.video_id!r}: frames are {h}x{w} pixels")
        if not 0 < self.fps < math.inf:
            raise ValidationError(f"video {self.video_id!r}: fps must be finite and > 0")

    @property
    def num_frames(self) -> int:
        return int(self.frames.shape[0])

    @property
    def duration_s(self) -> float:
        return self.num_frames / self.fps


@dataclass
class SignatureSequence:
    """Per-frame census descriptors for one video, in time order."""

    video_id: str
    frames: np.ndarray  # (n, 64), rows L1-normalized

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != SIGNATURE_DIM:
            raise ValidationError(
                f"signature array must be (n, {SIGNATURE_DIM}), got {self.frames.shape}"
            )
        sums = self.frames.sum(axis=1)
        if self.frames.shape[0] and not np.allclose(sums, 1.0, atol=1e-9):
            raise ValidationError("signatures must be L1-normalized")

    def __len__(self) -> int:
        return int(self.frames.shape[0])


def decode_frames(video: FrameVideo) -> SignatureSequence:
    """Resample to DEFAULT_FPS, grayscale, resize to DEFAULT_SIDE, and extract signatures.

    Resampling picks the nearest source frame to each output timestamp
    k / DEFAULT_FPS for k in 0 .. round(duration * DEFAULT_FPS) - 1.  A video
    that would resample to more than MAX_DECODED_FRAMES (2**18) frames is
    rejected before anything is allocated.
    """
    span = video.duration_s * DEFAULT_FPS
    if not span <= MAX_DECODED_FRAMES:
        raise ValidationError(
            f"video {video.video_id!r}: {video.num_frames} frames at {video.fps:g} fps resample "
            f"to {span:g} frames at {DEFAULT_FPS:g} fps, over the {MAX_DECODED_FRAMES} limit"
        )
    n_out = max(1, int(round(span)))
    # nondecreasing in k, so each distinct source frame serves one run of outputs
    picks = np.rint(np.arange(n_out) * (video.fps / DEFAULT_FPS)).astype(np.int64)
    sources, runs = np.unique(np.minimum(picks, video.num_frames - 1), return_inverse=True)
    distinct = np.empty((len(sources), SIGNATURE_DIM), dtype=np.float64)
    for start in range(0, len(sources), DECODE_BLOCK):
        block = video.frames[sources[start : start + DECODE_BLOCK]]
        if block.ndim == 4:
            block = np.stack([to_grayscale(frame) for frame in block])
        if block.shape[1:] != (DEFAULT_SIDE, DEFAULT_SIDE):
            block = np.stack([bilinear_resize(frame, DEFAULT_SIDE, DEFAULT_SIDE) for frame in block])
        distinct[start : start + DECODE_BLOCK] = census_signatures(block)
    return SignatureSequence(video_id=video.video_id, frames=distinct[runs])


# ---------------------------------------------------------------------------
# Raw-frames container ("CFVD"): a codec-free grayscale video file.
#
#   magic "CFVD", u32 width, u32 height, u32 frame count, f32 fps,
#   then frames as row-major u8 grayscale.  Little-endian.

_CFVD_MAGIC = b"CFVD"
_CFVD_HEADER = struct.Struct("<4sIIIf")


def save_raw_frames(video: FrameVideo, path: str | Path) -> None:
    frames = video.frames
    if frames.ndim == 4:
        frames = np.stack([to_grayscale(f) for f in frames])
    data = np.clip(np.rint(frames), 0, 255).astype(np.uint8)
    n, h, w = data.shape
    write_file(path, b"".join((_CFVD_HEADER.pack(_CFVD_MAGIC, w, h, n, float(video.fps)), data)))


def load_raw_frames(path: str | Path) -> FrameVideo:
    """Read a CFVD file; the video id is the file stem."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic, w, h, n, fps = _CFVD_HEADER.unpack(read_exact(fh, _CFVD_HEADER.size, path, "header"))
        if magic != _CFVD_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}")
        payload = read_exact(fh, n * h * w, path, "payload")
    try:
        frames = np.frombuffer(payload, dtype=np.uint8).reshape(n, h, w)
        return FrameVideo(video_id=path.stem, fps=fps, frames=frames)
    except ValueError as exc:  # a ValidationError, or dims numpy cannot shape
        raise ValidationError(f"{path}: {exc}") from exc


def cosine(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Plain cosine similarity; zero vectors yield 0.

    A 1-D ``v`` gives a float; a 2-D ``v`` gives the cosine of ``u`` with each
    of its rows, each by ``vecdot`` so that it is bit for bit the pair's own value.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    rows = np.atleast_2d(v)
    nu, nv = np.sqrt(np.vecdot(u, u)), np.sqrt(np.vecdot(rows, rows))
    nonzero = (nv != 0.0) & (nu != 0.0)
    sims = np.divide(np.vecdot(rows, u), nu * nv, out=np.zeros(len(rows)), where=nonzero)
    return float(sims[0]) if v.ndim == 1 else sims
