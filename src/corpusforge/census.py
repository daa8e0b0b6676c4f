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

A block is read as one flat run from its first interior pixel to its last,
so each neighbor is the same run shifted by ``dy * w + dx`` and every compare
reads contiguous memory.  The run also holds border and row-wrap positions,
across frame ends too: one ``bincount`` against a cached bin table sends each
interior pixel to one of ``LANES`` sub-histograms of its frame (by its index
in the frame), which keeps neighboring equal codes off one bin, and every
other position to a discard block that is sliced off.  At 224 px a block
needs about 1 MiB of work arrays: the float64 block and the int bins, ~0.4
MiB each, and two bytes a pixel for codes.
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ._lazy import np
from .netops import check_elements
from .records import ValidationError, check_count, read_exact, write_file

SIGNATURE_DIM = 64
DEFAULT_FPS = 16.0
DEFAULT_SIDE = 112
MAX_DECODED_FRAMES = 2**18  # 4.5 hours at 16 fps; 128 MiB of signatures
DECODE_BLOCK = 4  # frames per census run: its float64 block and int bins set the dedup command's peak
RESIZE_PLANS = 8  # cached bilinear_resize shapes; 0.4 MiB each at 112x112 out

# clockwise from top-left: bit i compares neighbor at NEIGHBOR_OFFSETS[i]
NEIGHBOR_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1),
)
# code bits the 4:1 fold drops: their neighbors are never compared
FOLDED_BITS = 2
# sub-histograms per frame: neighboring run positions count into different bins
LANES = 4

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


def _pixels(frames: np.ndarray) -> np.ndarray:
    """uint8 arrays as they are; anything else as float64 (no copy of float64)."""
    if isinstance(frames, np.ndarray) and frames.dtype == np.uint8:
        return frames
    return np.asarray(frames, dtype=np.float64)


@functools.cache
def _bin_table() -> np.ndarray:
    """Histogram bin, less the code, of each position of a DECODE_BLOCK-frame
    flat run; uint16 and read-only.  The run of the first n frames is a
    prefix, for any n.

    An interior pixel of frame f with flat index i in its frame counts into
    the frame's lane i % LANES, bins 64 (1 + LANES f + lane) onwards; a
    border or row-wrap position counts into the discard block, bins [0, 64).
    Built from one frame's pattern, so no work array outgrows the table.
    """
    h = w = DEFAULT_SIDE
    frame = np.zeros((h, w), dtype=np.uint16)  # frame 0's bins; 0 on the border
    frame[1:-1, 1:-1] = (1 + np.arange(h * w).reshape(h, w)[1:-1, 1:-1] % LANES) * SIGNATURE_DIM
    later = np.arange(DECODE_BLOCK, dtype=np.uint16)[:, None, None] * (LANES * SIGNATURE_DIM)
    table = np.where(frame != 0, frame + later, frame)
    table.setflags(write=False)
    return table.reshape(-1)[w + 1 : table.size - w - 1]


def _census_counts(block: np.ndarray) -> np.ndarray:
    """(n, 64) int folded-code counts of an (n, 112, 112) block, n <= DECODE_BLOCK.

    The block, flattened in C order (a copy only if it is not C-contiguous),
    is one flat run from the first interior pixel to the last, and each
    neighbor the same run shifted by dy * w + dx: every compare reads
    contiguous memory.  The codes are built highest bit first in one uint8
    buffer; border and row-wrap positions get codes too, and _bin_table
    sends them to the discard block.
    """
    n, h, w = block.shape
    flat = block.reshape(-1)
    size = flat.size - 2 * w - 2
    start = w + 1

    def shifted(dy: int, dx: int) -> np.ndarray:
        return flat[start + dy * w + dx : start + dy * w + dx + size]

    center = shifted(0, 0)
    codes = np.empty(size, dtype=np.uint8)
    above = np.empty(size, dtype=bool)
    top, *rest = NEIGHBOR_OFFSETS[FOLDED_BITS:][::-1]  # the folded code's bits, highest first
    np.greater(shifted(*top), center, out=codes.view(bool))
    for dy, dx in rest:
        np.greater(shifted(dy, dx), center, out=above)
        codes += codes  # faster than <<= 1
        codes += above.view(np.uint8)
    # intp bins: bincount takes them without a converted copy
    bins = np.add(_bin_table()[:size], codes, out=np.empty(size, dtype=np.intp))
    counts = np.bincount(bins, minlength=(1 + LANES * n) * SIGNATURE_DIM)[SIGNATURE_DIM:]
    return counts.reshape(n, LANES, SIGNATURE_DIM).sum(axis=1)


def census_signatures(block: np.ndarray) -> np.ndarray:
    """(n, 64) folded census-code histograms of an (n, 112, 112) grayscale block.

    A uint8 block is compared as uint8, which orders pixels exactly as their
    float64 values do; any other input is compared as float64.  Each run of
    DECODE_BLOCK frames is histogrammed by one bincount.
    """
    block = _pixels(block)
    if block.ndim != 3 or block.shape[1:] != (DEFAULT_SIDE, DEFAULT_SIDE):
        raise ValidationError(
            f"census frames must be {DEFAULT_SIDE}x{DEFAULT_SIDE}, got a block of {block.shape}"
        )
    hist = np.empty((len(block), SIGNATURE_DIM), dtype=np.float64)
    for start in range(0, len(block), DECODE_BLOCK):
        hist[start : start + DECODE_BLOCK] = _census_counts(block[start : start + DECODE_BLOCK])
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


@functools.lru_cache(maxsize=RESIZE_PLANS, typed=True)  # typed: True or 1.0 must not hit the entry for 1
def _resize_plan(in_h: int, in_w: int, out_h: int, out_w: int) -> tuple[np.ndarray, ...]:
    """Source rows (y0 then y1), source columns x0 and x1, and the weights
    wy, 1 - wy, wx, 1 - wx as full (out_h, out_w) arrays, of one resize
    shape; read-only, shared by calls.  The output size is checked here, once
    per shape, before anything is allocated."""
    out_h, out_w = check_count(out_h, "out_h"), check_count(out_w, "out_w")
    check_elements(out_h * out_w, "resized frame")
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    rows = np.concatenate((y0, np.minimum(y0 + 1, in_h - 1)))
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    weights = (np.broadcast_to(w, (out_h, out_w)).copy() for w in (wy, 1 - wy, wx, 1 - wx))
    plan = (rows, x0, x1, *weights)
    for array in plan:
        array.setflags(write=False)
    return plan


def bilinear_resize(frame: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel-center alignment; returns float64.

    The corners are gathered into two C-ordered arrays, tl over bl and tr
    over br, so each corner is contiguous; they are then weighted in place by
    the multiplies and adds of ``tl*vy*vx + tr*vy*wx + bl*wy*vx + br*wy*wx``,
    in that order, which keeps every output bit.
    """
    frame = _pixels(frame)
    in_h, in_w = frame.shape
    rows, x0, x1, wy, vy, wx, vx = _resize_plan(in_h, in_w, out_h, out_w)
    picked = frame.take(rows, axis=0)
    left, right = picked.take(x0, axis=1), picked.take(x1, axis=1)  # C order; [:, x0] is not
    out = left[:out_h] * vy
    out *= vx
    term = right[:out_h] * vy
    term *= wx
    out += term
    np.multiply(left[out_h:], wy, out=term)
    term *= vx
    out += term
    np.multiply(right[out_h:], wy, out=term)
    term *= wx
    out += term
    return out


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
    ready = video.frames.shape[1:] == (DEFAULT_SIDE, DEFAULT_SIDE)  # grayscale at the census size
    for start in range(0, len(sources), DECODE_BLOCK):
        chosen = sources[start : start + DECODE_BLOCK]
        if ready:
            block = video.frames[chosen]
        else:  # one frame at a time into the block: no list of converted frames
            block = np.empty((len(chosen), DEFAULT_SIDE, DEFAULT_SIDE), dtype=np.float64)
            for i, k in enumerate(chosen.tolist()):
                frame = video.frames[k]
                if frame.ndim == 3:
                    frame = to_grayscale(frame)
                if frame.shape != (DEFAULT_SIDE, DEFAULT_SIDE):
                    frame = bilinear_resize(frame, DEFAULT_SIDE, DEFAULT_SIDE)
                block[i] = frame
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


def cosine(
    u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray, *, norms: np.ndarray | None = None
) -> float | np.ndarray:
    """Plain cosine similarity; zero vectors yield 0.

    A 1-D ``v`` gives a float; a 2-D ``v`` gives the cosine of ``u`` with each
    of its rows, each by ``vecdot`` so that it is bit for bit the pair's own value.
    ``norms``, if given, are the rows' ``sqrt(vecdot(row, row))``, computed
    once by the caller.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    rows = np.atleast_2d(v)
    nu = np.sqrt(np.vecdot(u, u))
    nv = np.sqrt(np.vecdot(rows, rows)) if norms is None else norms
    nonzero = (nv != 0.0) & (nu != 0.0)
    sims = np.divide(np.vecdot(rows, u), nu * nv, out=np.zeros(len(rows)), where=nonzero)
    return float(sims[0]) if v.ndim == 1 else sims
