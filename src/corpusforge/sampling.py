"""Long-tail-aware subset selection over a labeled corpus.

Three strategies are provided:

* random    -- uniform subsample without replacement.
* sqrt      -- each draw picks a label with probability proportional to the
               square root of its video count, then a not-yet-taken video of
               that label; exhausted labels are renormalized out.
* tail      -- water-filling: labels are processed in ascending count order;
               a label whose count fits the remaining per-label fair share is
               kept whole (the tail), every remaining head label is uniformly
               subsampled to an equal share.

Multi-label videos are assigned a single working label (uniform, seeded per
video) before random/tail selection so that no video is selected twice.
Every strategy skips videos whose hashtags match no label.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ._lazy import np
from .manifest import DatasetManifest, ManifestRow
from .records import (
    LabelSpace,
    ValidationError,
    VideoRecord,
    _shown,
    assigned_pools,
    check_count,
    matches_by_video,
)
from .rng import check_seed, make_rng


class Strategy(enum.Enum):
    RANDOM = "random"
    SQUARE_ROOT = "sqrt"
    TAIL_PRESERVING = "tail"


@dataclass(frozen=True)
class SamplingPlan:
    strategy: Strategy
    budget: int
    seed: int

    def __post_init__(self) -> None:
        check_count(self.budget, "budget")
        check_seed(self.seed)


def sqrt_weights(counts: dict[str, int]) -> dict[str, float]:
    """Per-label draw probabilities proportional to sqrt(count)."""
    roots = {label: math.sqrt(n) for label, n in counts.items()}
    total = sum(roots.values())
    if total <= 0:
        raise ValidationError("all-zero histogram")
    return {label: r / total for label, r in roots.items()}


def _manifest(rows: list[ManifestRow], seed: int, builder: str, params: str) -> DatasetManifest:
    return DatasetManifest(rows=rows, provenance={builder: params}, seed=seed)


def sample_random(
    corpus: list[VideoRecord], space: LabelSpace, plan: SamplingPlan
) -> DatasetManifest:
    """Uniform subsample of the matchable corpus, exactly ``budget`` videos."""
    pools = assigned_pools(corpus, space, plan.seed)
    videos = sorted(
        ((v, label) for label, vs in pools.items() for v in vs),
        key=lambda pair: pair[0].id,
    )
    if plan.budget > len(videos):
        raise ValidationError(
            f"budget {plan.budget} exceeds matchable corpus size {len(videos)}"
        )
    rng = make_rng(plan.seed, "random")
    idx = rng.permutation(len(videos))[: plan.budget]
    rows = [
        ManifestRow(videos[i][0].id, videos[i][1], 0.0, videos[i][0].duration_s)
        for i in sorted(idx)
    ]
    return _manifest(
        rows, plan.seed, "sample_random", f"budget={plan.budget} labelspace={space.name}"
    )


def sample_square_root(
    corpus: list[VideoRecord], space: LabelSpace, plan: SamplingPlan
) -> DatasetManifest:
    """Square-root sampling: flatten the long tail by damping head classes.

    Labels are drawn with replacement under sqrt weights; videos are drawn
    without replacement within the chosen label.  A video matching several
    labels sits in every pool and is removed from all of them once taken.
    """
    labels_of = matches_by_video(corpus, space)
    if not labels_of:
        raise ValidationError("no video matches any label")
    # pools in label-space order: sqrt_weights sums the roots in this order
    pools: dict[str, list[VideoRecord]] = {label: [] for label in space.entries}
    for video in sorted(corpus, key=lambda v: v.id):
        for label in labels_of.get(video.id, ()):
            pools[label].append(video)
    pools = {label: videos for label, videos in pools.items() if videos}
    if plan.budget > len(labels_of):
        raise ValidationError(
            f"budget {plan.budget} exceeds matchable corpus size {len(labels_of)}"
        )
    weights = sqrt_weights({label: len(videos) for label, videos in pools.items()})
    # swap-with-last removal keeps every draw O(1); pos tracks pool indices
    pos = {label: {v.id: i for i, v in enumerate(videos)} for label, videos in pools.items()}

    def _remove(label: str, video_id: str) -> None:
        pool, index = pools[label], pos[label]
        i = index.pop(video_id)
        last = pool.pop()
        if last.id != video_id:
            pool[i] = last
            index[last.id] = i
        if not pool:
            del pools[label]

    rng = make_rng(plan.seed, "sqrt")
    rows: list[ManifestRow] = []
    labels: list[str] = []
    while len(rows) < plan.budget:
        # pools only shrink, so a length change means a pool emptied and
        # the weights must be renormalized over the labels left
        if len(labels) != len(pools):
            labels = sorted(pools)
            total = sum(weights[l] for l in labels)
            cdf = np.array([weights[l] / total for l in labels]).cumsum()
            cdf /= cdf[-1]
        # the steps and the stream of rng.choice(len(labels), p=probs)
        label = labels[int(cdf.searchsorted(rng.random(), side="right"))]
        pool = pools[label]
        video = pool[int(rng.integers(len(pool)))]
        for l in labels_of[video.id]:
            _remove(l, video.id)
        rows.append(ManifestRow(video.id, label, 0.0, video.duration_s))
    return _manifest(
        rows,
        plan.seed,
        "sample_square_root",
        f"budget={plan.budget} labelspace={space.name}",
    )


def tail_preserving_quotas(counts: dict[str, int], budget: int) -> dict[str, int]:
    """Water-filling quotas: keep tail labels whole, cap head labels equally.

    Labels ascending by count (ties by name): a label fitting the remaining
    fair share keeps everything; at the first label that does not, all
    remaining labels get floor(share), the first ``remainder`` of them (by
    name) one extra.
    """
    if budget < len(counts):
        raise ValidationError(
            f"budget {budget} < number of labels {len(counts)}; "
            "tail semantics need >= 1 video per label"
        )
    total = sum(counts.values())
    if budget > total:
        raise ValidationError(f"budget {budget} exceeds corpus size {total}")
    order = sorted(counts, key=lambda l: (counts[l], l))
    quotas: dict[str, int] = {}
    remaining_budget = budget
    for pos, label in enumerate(order):
        remaining_labels = len(order) - pos
        if counts[label] * remaining_labels <= remaining_budget:
            quotas[label] = counts[label]
            remaining_budget -= counts[label]
        else:
            head = sorted(order[pos:])
            share, extra = divmod(remaining_budget, remaining_labels)
            for j, h in enumerate(head):
                quotas[h] = share + (1 if j < extra else 0)
            break
    return quotas


def sample_tail_preserving(
    corpus: list[VideoRecord], space: LabelSpace, plan: SamplingPlan
) -> DatasetManifest:
    """Keep all videos of rare labels, subsample frequent ones to a budget."""
    pools = assigned_pools(corpus, space, plan.seed)
    if not pools:
        raise ValidationError("no video matches any label")
    counts = {label: len(videos) for label, videos in pools.items()}
    quotas = tail_preserving_quotas(counts, plan.budget)
    rows: list[ManifestRow] = []
    for label in sorted(pools):
        videos = pools[label]
        # per-label permutation keyed only by (seed, label): growing the
        # budget extends the kept prefix instead of reshuffling
        perm = make_rng(plan.seed, "tail", label).permutation(len(videos))
        for i in sorted(perm[: quotas[label]]):
            v = videos[int(i)]
            rows.append(ManifestRow(v.id, label, 0.0, v.duration_s))
    return _manifest(
        rows,
        plan.seed,
        "sample_tail_preserving",
        f"budget={plan.budget} labelspace={space.name}",
    )


def sample(
    corpus: list[VideoRecord], space: LabelSpace, plan: SamplingPlan
) -> DatasetManifest:
    if plan.strategy is Strategy.RANDOM:
        return sample_random(corpus, space, plan)
    if plan.strategy is Strategy.SQUARE_ROOT:
        return sample_square_root(corpus, space, plan)
    return sample_tail_preserving(corpus, space, plan)


def subset_labels(space: LabelSpace, k: int, seed: int) -> LabelSpace:
    """Uniform k-subset of labels, nested across k for a fixed seed.

    Implemented as one seeded permutation of the label list; the subset is
    its k-prefix, so subset(k1) is contained in subset(k2) whenever k1 <= k2.
    """
    labels = sorted(space.entries)
    if check_count(k, "k") > len(labels):
        raise ValidationError(f"k={_shown(k)} out of range 1..{len(labels)}")
    perm = make_rng(seed, "subset").permutation(len(labels))
    kept = {labels[int(i)] for i in perm[:k]}
    return LabelSpace(
        name=f"{space.name}[{k}]",
        kind=space.kind,
        entries={l: space.entries[l] for l in kept},
        min_count=space.min_count,
    )
