"""Test-time evaluation: label assignment, clip sampling, accuracy and mAP."""
from __future__ import annotations

from ._lazy import np
from .netops import check_elements
from .records import (
    LabelSpace,
    ValidationError,
    VideoRecord,
    _shown,
    assign_labels,
    check_count,
    matches_by_video,
)


def assign_single_label(video: VideoRecord, space: LabelSpace, seed: int) -> str:
    """Collapse a multi-label video to one label, uniformly at random.

    The same seeded draw the samplers and budget planners use, so a video
    gets the same label here as in their manifests.
    """
    matched_of = matches_by_video([video], space)
    if not matched_of:
        raise ValidationError(f"video {video.id!r} matches no label in {space.name!r}")
    return assign_labels(matched_of, seed)[video.id]


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
    is centered either way.  Rounding is half-up, in exact integer
    arithmetic, so a start is right for any frame count.
    """
    check_count(n_clips, "n_clips")
    check_elements(n_clips, "clip starts")
    if check_count(clip_len, "clip_len") > check_count(num_frames, "num_frames"):
        raise ValidationError(
            f"clip_len {_shown(clip_len)} must be in 1..num_frames ({_shown(num_frames)})"
        )
    if placement not in ("endpoints", "centers"):
        raise ValidationError(f"unknown placement {placement!r}")
    span, n = num_frames - clip_len, n_clips
    if n == 1:
        return [(span + 1) // 2]
    if placement == "centers":  # floor((i + 1/2) * span / n + 1/2)
        return [((2 * i + 1) * span + n) // (2 * n) for i in range(n)]
    return [(2 * i * span + n - 1) // (2 * (n - 1)) for i in range(n)]  # floor(i * span / (n - 1) + 1/2)


def video_prediction(clip_logits: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Element-wise mean of per-clip prediction vectors, averaged as given
    (pass softmaxed vectors to average probabilities instead of logits)."""
    arrs = [np.asarray(v, dtype=np.float64) for v in clip_logits]
    if not arrs:
        raise ValidationError("no clip predictions")
    dim = arrs[0].shape
    if any(a.shape != dim for a in arrs):
        raise ValidationError("ragged clip predictions")
    return np.mean(np.stack(arrs), axis=0)


def check_class_ids(labels: np.ndarray, classes: int, source: object) -> None:
    """Raise unless every class id in ``labels`` is in 0..classes-1; the
    error names ``source`` (a file, or the argument the ids came in) and the
    first id outside that range."""
    bad = labels[(labels < 0) | (labels >= classes)]
    if bad.size:
        raise ValidationError(f"{source}: class id {int(bad[0])} is outside 0..{classes - 1}")


def accuracy_topk(preds: np.ndarray, labels: np.ndarray, k: int = 1) -> float:
    """Fraction of rows whose true label ranks in the top k by score.

    Ties are broken by class index (lower index wins).  A label with no
    score column is an error, not a miss.
    """
    scores = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != y.shape[0]:
        raise ValidationError(f"preds {scores.shape} do not align with labels {y.shape}")
    classes = scores.shape[1]
    if check_count(k, "k") > classes:
        raise ValidationError(f"k={_shown(k)} out of range 1..{classes}")
    check_class_ids(y, classes, "labels")
    order = np.argsort(-scores, axis=1, kind="stable")  # stable: ties keep class order
    hits = (order[:, :k] == y[:, None]).any(axis=1)
    return float(hits.mean())


def average_precision(scores: np.ndarray, truth: np.ndarray) -> float | None:
    """Rank-precision AP for one label; None when there are no positives.

    Descending score order, ties broken by sample index; AP averages the
    precision at each positive's rank over the number of positives.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truth)
    order = np.argsort(-s, kind="stable")  # stable: ties keep sample order
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
