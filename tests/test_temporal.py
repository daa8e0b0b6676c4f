from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from corpusforge.manifest import manifest_bytes
from corpusforge.records import ValidationError, VideoRecord
from corpusforge.temporal import (
    BudgetMode,
    BudgetPlan,
    LengthClass,
    build_length_class,
    center_window,
    class_clip,
    in_length_class,
    jitter_clip,
    plan_budget,
)

from conftest import corpus_with_counts


def _videos(durations: list[float], tag: str = "a") -> list[VideoRecord]:
    return [
        VideoRecord(id=f"{tag}{i:04d}", duration_s=d, hashtags=frozenset({tag}))
        for i, d in enumerate(durations)
    ]


def test_jitter_forced_start():
    clip = jitter_clip(4.0, 4.0, seed=0)
    assert clip.start_s == 0.0
    assert clip.len_s == 4.0


def test_jitter_center_window_of_long_video():
    for seed in range(200):
        clip = jitter_clip(60.0, 2.0, seed=seed, window=(28.0, 32.0))
        assert 28.0 <= clip.start_s <= 30.0
        assert clip.start_s + clip.len_s <= 32.0


def test_jitter_uniformity_ks():
    starts = [jitter_clip(10.0, 2.0, seed=s).start_s for s in range(10_000)]
    p = stats.kstest(np.array(starts) / 8.0, "uniform").pvalue
    assert p > 0.01


def test_jitter_infeasible_window():
    with pytest.raises(ValidationError):
        jitter_clip(10.0, 4.0, seed=0, window=(8.0, 10.0))
    with pytest.raises(ValidationError):
        jitter_clip(3.0, 4.0, seed=0)


def test_jitter_deterministic():
    assert jitter_clip(10.0, 2.0, seed=5) == jitter_clip(10.0, 2.0, seed=5)


def test_containment_over_many_random_plans():
    rng = np.random.default_rng(0)
    for i in range(100_000):
        duration = float(rng.uniform(1.0, 60.0))
        clip_len = float(rng.uniform(0.1, duration))
        clip = jitter_clip(duration, clip_len, seed=i)
        assert clip.start_s >= 0.0
        assert clip.start_s + clip.len_s <= duration + 1e-9


# ---------------------------------------------------------------------------
# length classes


def test_three_second_video_is_short_only():
    assert in_length_class(3.0, LengthClass.SHORT)
    assert not in_length_class(3.0, LengthClass.LONG)
    assert not in_length_class(3.0, LengthClass.LONG_CENTER)


def test_long_center_window_is_centered():
    video = VideoRecord(id="v", duration_s=58.0, hashtags=frozenset({"a"}))
    assert center_window(58.0) == (27.0, 31.0)
    clip = class_clip(video, LengthClass.LONG_CENTER)
    assert clip.start_s == 27.0 and clip.len_s == 4.0
    midpoint = clip.start_s + clip.len_s / 2.0
    assert abs(midpoint - 29.0) <= 1e-9


def test_partition_matches_generator():
    durations = [2.0, 4.5, 30.0, 56.0, 60.0, 0.5, 5.0, 55.0]
    corpus = _videos(durations)
    short = build_length_class(corpus, LengthClass.SHORT)
    long_ = build_length_class(corpus, LengthClass.LONG)
    assert {v.duration_s for v in short} == {2.0, 4.5, 5.0}
    assert {v.duration_s for v in long_} == {56.0, 60.0, 55.0}
    assert build_length_class(corpus, LengthClass.LONG_CENTER) == long_


def test_empty_class_reports_counts():
    corpus = _videos([30.0, 40.0])
    with pytest.raises(ValidationError, match="class counts"):
        build_length_class(corpus, LengthClass.SHORT)


# ---------------------------------------------------------------------------
# budget planners


def test_f2_exact_division():
    corpus, space = corpus_with_counts({"A": 40}, duration_s=4.0)
    plan = BudgetPlan(BudgetMode.FIXED_DURATION, LengthClass.SHORT, total_minutes=100.0 / 60.0)
    manifest = plan_budget(corpus, plan, space, seed=0)
    assert len(manifest.rows) == 25


def test_f1_whole_subset():
    corpus, space = corpus_with_counts({"A": 6, "B": 3}, duration_s=3.0)
    plan = BudgetPlan(BudgetMode.FIXED_COUNT, LengthClass.SHORT, count=9)
    manifest = plan_budget(corpus, plan, space, seed=1)
    assert sorted(r.video_id for r in manifest.rows) == sorted(v.id for v in corpus)


def test_f1_preserves_label_proportions():
    corpus, space = corpus_with_counts({"A": 40, "B": 20, "C": 10}, duration_s=2.0)
    plan = BudgetPlan(BudgetMode.FIXED_COUNT, LengthClass.SHORT, count=35)
    manifest = plan_budget(corpus, plan, space, seed=3)
    got = {l: sum(1 for r in manifest.rows if r.label == l) for l in "ABC"}
    assert sum(got.values()) == 35
    for label, total in (("A", 40), ("B", 20), ("C", 10)):
        assert abs(got[label] - 35 * total / 70) <= 1.0


def test_f2_duration_bounds():
    corpus, space = corpus_with_counts({"A": 12, "B": 12}, duration_s=3.5)
    plan = BudgetPlan(BudgetMode.FIXED_DURATION, LengthClass.SHORT, total_minutes=0.5)
    manifest = plan_budget(corpus, plan, space, seed=2)
    total = sum(r.clip_len_s for r in manifest.rows)
    assert total <= 30.0 + 1e-9
    assert total > 30.0 - 3.5


def test_f2_long_center_uses_four_second_clips():
    corpus, space = corpus_with_counts({"A": 30}, duration_s=58.0)
    plan = BudgetPlan(
        BudgetMode.FIXED_DURATION, LengthClass.LONG_CENTER, total_minutes=1.0
    )
    manifest = plan_budget(corpus, plan, space, seed=0)
    assert len(manifest.rows) == 15
    for row in manifest.rows:
        assert row.clip_len_s == 4.0
        assert abs((row.clip_start_s + 2.0) - 29.0) <= 1e-9


def test_desk_scale_trio_ratio():
    # equal-minute short and long-center datasets vs a long dataset at one
    # tenth the count: the first two should hold ~10x the videos
    short_corpus, space = corpus_with_counts({"A": 150}, duration_s=4.0)
    long_corpus = _videos([58.0] * 150, tag="a")
    minutes = 400.0 / 60.0  # 100 four-second clips

    short_m = plan_budget(
        short_corpus,
        BudgetPlan(BudgetMode.FIXED_DURATION, LengthClass.SHORT, total_minutes=minutes),
        space,
        seed=0,
    )
    center_m = plan_budget(
        long_corpus,
        BudgetPlan(BudgetMode.FIXED_DURATION, LengthClass.LONG_CENTER, total_minutes=minutes),
        space,
        seed=0,
    )
    long_m = plan_budget(
        long_corpus,
        BudgetPlan(BudgetMode.FIXED_COUNT, LengthClass.LONG, count=len(short_m.rows) // 10),
        space,
        seed=0,
    )
    assert len(short_m.rows) == 100
    assert len(center_m.rows) == 100
    assert len(long_m.rows) == 10


def test_f1_insufficient_corpus():
    corpus, space = corpus_with_counts({"A": 3}, duration_s=2.0)
    plan = BudgetPlan(BudgetMode.FIXED_COUNT, LengthClass.SHORT, count=4)
    with pytest.raises(ValidationError, match="exceeds subset"):
        plan_budget(corpus, plan, space, seed=0)


def test_unmatched_videos_are_skipped():
    subset, space = corpus_with_counts({"A": 6, "B": 3}, duration_s=3.0)
    stranger = VideoRecord(id="b-stranger", duration_s=3.0, hashtags=frozenset({"noise"}))
    mixed = subset[:4] + [stranger] + subset[4:]
    for plan in [
        BudgetPlan(BudgetMode.FIXED_COUNT, LengthClass.SHORT, count=9),
        BudgetPlan(BudgetMode.FIXED_DURATION, LengthClass.SHORT, total_minutes=0.3),
    ]:
        alone = plan_budget(subset, plan, space, seed=5)
        assert manifest_bytes(plan_budget(mixed, plan, space, seed=5)) == manifest_bytes(alone)
    too_many = BudgetPlan(BudgetMode.FIXED_COUNT, LengthClass.SHORT, count=10)
    with pytest.raises(ValidationError, match="exceeds subset size 9"):
        plan_budget(mixed, too_many, space, seed=5)
    with pytest.raises(ValidationError, match="matches any label"):
        plan_budget([stranger], plan, space, seed=5)


def test_plan_rejects_out_of_class_videos():
    corpus, space = corpus_with_counts({"A": 3}, duration_s=30.0)
    plan = BudgetPlan(BudgetMode.FIXED_COUNT, LengthClass.SHORT, count=2)
    with pytest.raises(ValidationError, match="outside class"):
        plan_budget(corpus, plan, space, seed=0)


def test_budget_plan_validation():
    with pytest.raises(ValidationError):
        BudgetPlan(BudgetMode.FIXED_COUNT, LengthClass.SHORT)
    with pytest.raises(ValidationError):
        BudgetPlan(BudgetMode.FIXED_DURATION, LengthClass.SHORT, total_minutes=0.0)
