"""Test-time evaluation: label assignment, clip sampling, accuracy and mAP."""
from __future__ import annotations

import math

import numpy as np

from .netops import softmax
from .records import LabelSpace, ValidationError, VideoRecord, assign_label, matches_by_video


def assign_single_label(video: VideoRecord, space: LabelSpace, seed: int) -> str:
    """Collapse a multi-label video to one label, uniformly at random.

    The same seeded draw the samplers and budget planners use, so a video
    gets the same label here as in their manifests.
    """
    matched = matches_by_video([video], space).get(video.id)
    if not matched:
        raise ValidationError(f"video {video.id!r} matches no label in {space.name!r}")
    return assign_label(video.id, matched, seed)


def uniform_clip_starts(
    num_frames: int,
    clip_len: int,
    n_clips: int = 10,
    placement: str = "endpoints",
) -> list[int]:
    """Evenly spaced clip starts over a test video.

    "endpoints" (default): starts[i] = round(i * span / (n_clips - 1)) with
    span = num_frames - clip_len, so the first clip begins at 0 and the last
    ends flush with the video.  "centers": the span is cut into n_clips equal
    segments and each clip starts at its segment's midpoint.  A single clip
    is centered either way.  Rounding is half-up for determinism.
    """
    if n_clips < 1:
        raise ValidationError("n_clips must be >= 1")
    if clip_len < 1 or clip_len > num_frames:
        raise ValidationError(
            f"clip_len {clip_len} must be in 1..num_frames ({num_frames})"
        )
    if placement not in ("endpoints", "centers"):
        raise ValidationError(f"unknown placement {placement!r}")
    span = num_frames - clip_len
    if n_clips == 1:
        return [int(math.floor(span / 2 + 0.5))]
    if placement == "centers":
        return [
            int(math.floor((i + 0.5) * span / n_clips + 0.5)) for i in range(n_clips)
        ]
    return [int(math.floor(i * span / (n_clips - 1) + 0.5)) for i in range(n_clips)]


def video_prediction(
    clip_logits: list[np.ndarray] | np.ndarray, average_probs: bool = False
) -> np.ndarray:
    """Element-wise mean of per-clip prediction vectors.

    Logits are averaged as given; ``average_probs`` applies a softmax to each
    clip first and averages probabilities instead.
    """
    arrs = [np.asarray(v, dtype=np.float64) for v in clip_logits]
    if not arrs:
        raise ValidationError("no clip predictions")
    dim = arrs[0].shape
    if any(a.shape != dim for a in arrs):
        raise ValidationError("ragged clip predictions")
    if average_probs:
        arrs = [softmax(a, axis=None) for a in arrs]
    return np.mean(np.stack(arrs), axis=0)


def accuracy_topk(preds: np.ndarray, labels: np.ndarray, k: int = 1) -> float:
    """Fraction of rows whose true label ranks in the top k by score.

    Ties are broken by class index (lower index wins).
    """
    scores = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != y.shape[0]:
        raise ValidationError(f"preds {scores.shape} do not align with labels {y.shape}")
    n, classes = scores.shape
    if not 1 <= k <= classes:
        raise ValidationError(f"k={k} out of range 1..{classes}")
    # lexsort: primary key -score, secondary key class index
    order = np.lexsort((np.tile(np.arange(classes), (n, 1)), -scores), axis=1)
    hits = (order[:, :k] == y[:, None]).any(axis=1)
    return float(hits.mean())


def average_precision(scores: np.ndarray, truth: np.ndarray) -> float | None:
    """Rank-precision AP for one label; None when there are no positives.

    Descending score order, ties broken by sample index; AP averages the
    precision at each positive's rank over the number of positives.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truth)
    order = np.lexsort((np.arange(len(s)), -s))
    positives = t[order] > 0
    num_pos = int(positives.sum())
    if num_pos == 0:
        return None
    ranks = np.arange(1, len(s) + 1)
    cum_pos = np.cumsum(positives)
    return float(np.sum((cum_pos[positives] / ranks[positives])) / num_pos)


def mean_average_precision(
    scores: np.ndarray, truth: np.ndarray
) -> tuple[float, list[int]]:
    """Unweighted mean AP over labels; returns (mAP, skipped label indices).

    Labels with no positive example are skipped and reported; if every label
    is skipped there is nothing to average and an error is raised.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truth)
    if s.ndim != 2 or s.shape != t.shape:
        raise ValidationError(f"scores {s.shape} and truth {t.shape} must match")
    if s.size == 0:
        raise ValidationError("empty truth")
    aps = []
    skipped = []
    for label in range(s.shape[1]):
        ap = average_precision(s[:, label], t[:, label])
        if ap is None:
            skipped.append(label)
        else:
            aps.append(ap)
    if not aps:
        raise ValidationError("every label lacks positives; mAP undefined")
    return float(np.mean(aps)), skipped
