"""Clip-window planning: jittering, length classes, and budget planners.

Length classes partition a corpus by duration: short videos (1-5 s), long
videos (55-60 s), and long-center, the long videos restricted to a 4 s
window centered at mid-duration (a 60 s video yields the 28-32 s window).

Budget planners build a manifest from a length-class subset under either a
fixed video count (the per-label distribution is preserved to within one
video per label) or a fixed total duration (round-robin label-stratified
fill, stopping before the budget is exceeded).  Videos whose hashtags match
no label are skipped, as in sampling; the fixed count is checked against the
matched videos.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .manifest import DatasetManifest, ManifestRow
from .records import LabelSpace, ValidationError, VideoRecord, assigned_pools
from .rng import make_rng

CENTER_WINDOW_S = 4.0


@dataclass(frozen=True)
class ClipSpec:
    start_s: float
    len_s: float

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.len_s <= 0:
            raise ValidationError("clip must have start >= 0 and length > 0")


class LengthClass(enum.Enum):
    SHORT = "short"
    LONG = "long"
    LONG_CENTER = "long-center"


class BudgetMode(enum.Enum):
    FIXED_COUNT = "f1"
    FIXED_DURATION = "f2"


@dataclass(frozen=True)
class BudgetPlan:
    mode: BudgetMode
    length_class: LengthClass
    count: int | None = None
    total_minutes: float | None = None

    def __post_init__(self) -> None:
        if self.mode is BudgetMode.FIXED_COUNT:
            if self.count is None or self.count < 1:
                raise ValidationError("fixed-count plan needs count >= 1")
        else:
            if self.total_minutes is None or self.total_minutes <= 0:
                raise ValidationError("fixed-duration plan needs total_minutes > 0")


def jitter_clip(
    duration_s: float,
    clip_len_s: float,
    seed: int,
    window: tuple[float, float] | None = None,
) -> ClipSpec:
    """Uniform random clip start within the video (or a restricting window)."""
    if clip_len_s <= 0:
        raise ValidationError("clip_len_s must be > 0")
    if clip_len_s > duration_s:
        raise ValidationError(f"clip {clip_len_s}s longer than video {duration_s}s")
    lo, hi = (0.0, duration_s) if window is None else window
    if lo < 0 or hi > duration_s + 1e-9 or hi - lo < clip_len_s:
        raise ValidationError(f"window ({lo}, {hi}) infeasible for clip {clip_len_s}s")
    span = hi - clip_len_s - lo
    start = lo + float(make_rng(seed).random()) * span
    return ClipSpec(start_s=start, len_s=clip_len_s)


def in_length_class(duration_s: float, cls: LengthClass) -> bool:
    if cls is LengthClass.SHORT:
        return 1.0 <= duration_s <= 5.0
    return 55.0 <= duration_s <= 60.0


def center_window(duration_s: float) -> tuple[float, float]:
    """The 4 s window centered at mid-duration: [d/2 - 2, d/2 + 2]."""
    half = CENTER_WINDOW_S / 2.0
    return (duration_s / 2.0 - half, duration_s / 2.0 + half)


def class_clip(video: VideoRecord, cls: LengthClass) -> ClipSpec:
    """The manifest clip window a video carries under a length class."""
    if cls is LengthClass.LONG_CENTER:
        lo, _hi = center_window(video.duration_s)
        return ClipSpec(start_s=lo, len_s=CENTER_WINDOW_S)
    return ClipSpec(start_s=0.0, len_s=video.duration_s)


def build_length_class(corpus: list[VideoRecord], cls: LengthClass) -> list[VideoRecord]:
    """Filter the corpus to one length class, preserving order."""
    if not corpus:
        raise ValidationError("corpus is empty")
    subset = [v for v in corpus if in_length_class(v.duration_s, cls)]
    if not subset:
        tallies = {
            c.value: sum(in_length_class(v.duration_s, c) for v in corpus)
            for c in LengthClass
        }
        raise ValidationError(f"no video in class {cls.value}; class counts: {tallies}")
    return subset


def _count_quotas(sizes: dict[str, int], count: int) -> dict[str, int]:
    """Largest-remainder split of ``count`` proportional to pool sizes."""
    total = sum(sizes.values())
    raw = {label: count * n / total for label, n in sizes.items()}
    quotas = {label: math.floor(x) for label, x in raw.items()}
    short = count - sum(quotas.values())
    order = sorted(sizes, key=lambda l: (-(raw[l] - quotas[l]), l))
    for label in order[:short]:
        if quotas[label] < sizes[label]:
            quotas[label] += 1
        else:
            fallback = next(l for l in order if quotas[l] < sizes[l])
            quotas[fallback] += 1
    return quotas


def plan_budget(
    subset: list[VideoRecord],
    plan: BudgetPlan,
    space: LabelSpace,
    seed: int,
) -> DatasetManifest:
    """Select videos from a length-class subset under a budget.

    Fixed count: exactly ``count`` videos, label proportions preserved to
    within one video per label.  Fixed duration: labels are filled round-robin
    (ascending count order) until the next video would exceed the budget.
    """
    for video in subset:
        if not in_length_class(video.duration_s, plan.length_class):
            raise ValidationError(
                f"video {video.id!r} ({video.duration_s}s) outside class "
                f"{plan.length_class.value}"
            )
    pools = assigned_pools(subset, space, seed)
    if not pools:
        raise ValidationError("no video in the subset matches any label")
    label_of = {v.id: label for label, videos in pools.items() for v in videos}
    shuffled = {
        label: [videos[int(i)] for i in make_rng(seed, "budget", label).permutation(len(videos))]
        for label, videos in pools.items()
    }
    picked: list[VideoRecord] = []
    if plan.mode is BudgetMode.FIXED_COUNT:
        assert plan.count is not None
        if plan.count > len(label_of):
            raise ValidationError(
                f"count {plan.count} exceeds subset size {len(label_of)}"
            )
        quotas = _count_quotas({l: len(v) for l, v in pools.items()}, plan.count)
        for label in sorted(shuffled):
            picked.extend(shuffled[label][: quotas[label]])
        params = (
            f"mode=f1 count={plan.count} class={plan.length_class.value} "
            f"labelspace={space.name}"
        )
    else:
        assert plan.total_minutes is not None
        budget_s = plan.total_minutes * 60.0
        order = sorted(shuffled, key=lambda l: (len(pools[l]), l))
        rounds = max(len(videos) for videos in shuffled.values())
        sequence = [
            shuffled[label][r]
            for r in range(rounds)
            for label in order
            if r < len(shuffled[label])
        ]
        used = 0.0
        for video in sequence:
            clip = class_clip(video, plan.length_class)
            if used + clip.len_s > budget_s + 1e-9:
                break
            used += clip.len_s
            picked.append(video)
        if not picked:
            raise ValidationError(
                f"duration budget {plan.total_minutes} min too small for any video"
            )
        params = (
            f"mode=f2 minutes={plan.total_minutes:g} achieved_s={used:.6f} "
            f"class={plan.length_class.value} labelspace={space.name}"
        )
    picked.sort(key=lambda v: v.id)
    rows = []
    for v in picked:
        clip = class_clip(v, plan.length_class)
        rows.append(ManifestRow(v.id, label_of[v.id], clip.start_s, clip.len_s))
    return DatasetManifest(rows=rows, provenance={"plan_budget": params}, seed=seed)
