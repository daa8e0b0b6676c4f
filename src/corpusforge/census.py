"""Census-transform frame signatures.

Each decoded frame becomes a 64-dim descriptor: the 8-bit census code of
every interior pixel (bit i set iff the i-th of its 8 neighbors, clockwise
from the top-left, is strictly greater) is histogrammed over 256 bins, folded
4:1 down to 64, and L1-normalized.  Comparing against neighbors only makes
the descriptor invariant to brightness shifts and robust to rescaling.

The fold keeps only the top 6 code bits, so only those are computed: the two
neighbors of bits 0 and 1 are never compared, and each code is the folded bin.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .records import ValidationError, read_exact, write_file

SIGNATURE_DIM = 64
DEFAULT_FPS = 16.0
DEFAULT_SIDE = 112
MAX_DECODED_FRAMES = 2**18  # 4.5 hours at 16 fps; 128 MiB of signatures

# clockwise from top-left: bit i compares neighbor at NEIGHBOR_OFFSETS[i]
NEIGHBOR_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1),
)
# code bits the 4:1 fold drops: their neighbors are never compared
FOLDED_BITS = 2

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


def census_signature(frame: np.ndarray) -> np.ndarray:
    """64-bin folded census-code histogram of a 112x112 grayscale frame."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (DEFAULT_SIDE, DEFAULT_SIDE):
        raise ValidationError(
            f"census frame must be {DEFAULT_SIDE}x{DEFAULT_SIDE}, got {frame.shape}"
        )
    h, w = frame.shape
    center = frame[1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.uint16)
    for bit, (dy, dx) in enumerate(NEIGHBOR_OFFSETS[FOLDED_BITS:]):  # bit of the folded code
        neighbor = frame[1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx]
        codes |= (neighbor > center).astype(np.uint16) << bit
    hist = np.bincount(codes.ravel(), minlength=SIGNATURE_DIM).astype(np.float64)
    return hist / hist.sum()


def to_grayscale(frame: np.ndarray) -> np.ndarray:
    """ITU luma conversion for (h, w, 3) frames; grayscale passes through."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim == 2:
        return frame
    if frame.ndim == 3 and frame.shape[2] == 3:
        r, g, b = LUMA_WEIGHTS
        return r * frame[..., 0] + g * frame[..., 1] + b * frame[..., 2]
    raise ValidationError(f"expected (h,w) or (h,w,3) frame, got {frame.shape}")


def bilinear_resize(frame: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel-center alignment."""
    frame = np.asarray(frame, dtype=np.float64)
    in_h, in_w = frame.shape
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    tl = frame[np.ix_(y0, x0)]
    tr = frame[np.ix_(y0, x1)]
    bl = frame[np.ix_(y1, x0)]
    br = frame[np.ix_(y1, x1)]
    return tl * (1 - wy) * (1 - wx) + tr * (1 - wy) * wx + bl * wy * (1 - wx) + br * wy * wx


@dataclass
class FrameVideo:
    """In-memory frame source: (n, h, w) or (n, h, w, 3) arrays plus fps."""

    video_id: str
    fps: float
    frames: np.ndarray

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.float64)
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


def decode_frames(
    video: FrameVideo,
    target_fps: float = DEFAULT_FPS,
    side: int = DEFAULT_SIDE,
) -> SignatureSequence:
    """Resample to target fps, grayscale, resize, and extract signatures.

    Resampling picks the nearest source frame to each output timestamp
    k / target_fps for k in 0 .. round(duration * target_fps) - 1.  A video
    that would resample to more than MAX_DECODED_FRAMES (2**18) frames is
    rejected before anything is allocated.
    """
    span = video.duration_s * target_fps
    if not span <= MAX_DECODED_FRAMES:
        raise ValidationError(
            f"video {video.video_id!r}: {video.num_frames} frames at {video.fps:g} fps resample "
            f"to {span:g} frames at {target_fps:g} fps, over the {MAX_DECODED_FRAMES} limit"
        )
    n_out = max(1, int(round(span)))
    scale = video.fps / target_fps
    signatures = np.empty((n_out, SIGNATURE_DIM), dtype=np.float64)
    cache_idx = -1
    cache_sig: np.ndarray | None = None
    for k in range(n_out):
        j = min(video.num_frames - 1, int(round(k * scale)))
        if j != cache_idx:
            gray = to_grayscale(video.frames[j])
            if gray.shape != (side, side):
                gray = bilinear_resize(gray, side, side)
            cache_sig = census_signature(gray)
            cache_idx = j
        assert cache_sig is not None
        signatures[k] = cache_sig
    return SignatureSequence(video_id=video.video_id, frames=signatures)


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


def load_raw_frames(path: str | Path, video_id: str | None = None) -> FrameVideo:
    path = Path(path)
    with open(path, "rb") as fh:
        magic, w, h, n, fps = _CFVD_HEADER.unpack(read_exact(fh, _CFVD_HEADER.size, path, "header"))
        if magic != _CFVD_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}")
        payload = read_exact(fh, n * h * w, path, "payload")
    try:
        frames = np.frombuffer(payload, dtype=np.uint8).reshape(n, h, w).astype(np.float64)
        return FrameVideo(video_id=video_id or path.stem, fps=fps, frames=frames)
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
