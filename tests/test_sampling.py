from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpusforge import records
from corpusforge.manifest import ManifestRow, manifest_bytes
from corpusforge.records import (
    LabelKind,
    LabelSpace,
    ValidationError,
    VideoRecord,
    assigned_pools,
    matches_by_video,
)
from corpusforge.rng import first_integers, make_rng
from corpusforge.sampling import (
    SamplingPlan,
    Strategy,
    sample,
    sample_random,
    sample_square_root,
    sample_tail_preserving,
    sqrt_weights,
    subset_labels,
    tail_preserving_quotas,
)

from conftest import corpus_with_counts


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5, np.int64(3)])
def test_make_rng_and_sampling_plan_reject_seeds_outside_u64(seed):
    message = "^" + re.escape(f"seed must be an integer in [0, 2**64), got {seed!r}") + "$"
    with pytest.raises(ValidationError, match=message):
        make_rng(seed)
    with pytest.raises(ValidationError, match=message):
        make_rng(seed, "assign", "v")
    with pytest.raises(ValidationError, match=message):
        first_integers(seed, [("assign", "v")], [2])
    with pytest.raises(ValidationError, match=message):
        SamplingPlan(Strategy.RANDOM, budget=1, seed=seed)


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
def test_make_rng_without_keys_is_numpys_default_stream(seed):
    assert make_rng(seed).random(4).tolist() == np.random.default_rng(seed).random(4).tolist()


def test_sqrt_weights_forced_values():
    w = sqrt_weights({"A": 100, "B": 25, "C": 4})
    assert w == pytest.approx({"A": 10 / 17, "B": 5 / 17, "C": 2 / 17})


def test_sqrt_weights_symmetry_and_single():
    w = sqrt_weights({"A": 7, "B": 7, "C": 7, "D": 7})
    assert all(v == pytest.approx(0.25) for v in w.values())
    assert sqrt_weights({"A": 1}) == {"A": 1.0}


def test_sqrt_weights_zero_label_and_error():
    w = sqrt_weights({"A": 4, "B": 0})
    assert w["B"] == 0.0
    with pytest.raises(ValidationError):
        sqrt_weights({"A": 0})


def test_sqrt_weights_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(25):
        counts = {f"l{i}": int(rng.integers(0, 500)) for i in range(12)}
        counts["l0"] = max(counts["l0"], 1)
        total = sum(sqrt_weights(counts).values())
        assert abs(total - 1.0) <= 1e-12


def test_square_root_budget_equals_corpus_is_permutation():
    corpus, space = corpus_with_counts({"A": 15, "B": 5})
    plan = SamplingPlan(Strategy.SQUARE_ROOT, budget=20, seed=3)
    manifest = sample_square_root(corpus, space, plan)
    assert sorted(r.video_id for r in manifest.rows) == sorted(v.id for v in corpus)


def test_square_root_single_label_uniform_subsample():
    corpus, space = corpus_with_counts({"A": 30})
    plan = SamplingPlan(Strategy.SQUARE_ROOT, budget=10, seed=1)
    manifest = sample_square_root(corpus, space, plan)
    ids = [r.video_id for r in manifest.rows]
    assert len(ids) == len(set(ids)) == 10
    assert all(r.label == "A" for r in manifest.rows)


def test_square_root_draw_frequency_tracks_sqrt_weights():
    corpus, space = corpus_with_counts({"A": 1000, "B": 100}, duration_s=2.0)
    p_a = math.sqrt(1000) / (math.sqrt(1000) + math.sqrt(100))
    draws, hits = 0, 0
    for seed in range(10):
        plan = SamplingPlan(Strategy.SQUARE_ROOT, budget=200, seed=seed)
        manifest = sample_square_root(corpus, space, plan)
        labels = [r.label for r in manifest.rows]
        hits += sum(1 for l in labels if l == "A")
        draws += len(labels)
    sigma = math.sqrt(p_a * (1 - p_a) / draws)
    assert abs(hits / draws - p_a) <= 3 * sigma


def test_square_root_multi_label_video_drawn_once():
    space = LabelSpace(
        name="s",
        kind=LabelKind.SEED,
        entries={"A": frozenset({"shared"}), "B": frozenset({"shared"})},
        min_count=1,
    )
    from corpusforge.records import VideoRecord

    corpus = [
        VideoRecord(id=f"v{i}", duration_s=2.0, hashtags=frozenset({"shared"}))
        for i in range(6)
    ]
    plan = SamplingPlan(Strategy.SQUARE_ROOT, budget=6, seed=0)
    manifest = sample_square_root(corpus, space, plan)
    ids = [r.video_id for r in manifest.rows]
    assert sorted(ids) == sorted(v.id for v in corpus)
    assert len(set(ids)) == 6


def test_square_root_budget_too_large():
    corpus, space = corpus_with_counts({"A": 5})
    with pytest.raises(ValidationError, match="budget"):
        sample_square_root(corpus, space, SamplingPlan(Strategy.SQUARE_ROOT, 6, 0))


def test_square_root_deterministic():
    corpus, space = corpus_with_counts({"A": 50, "B": 10})
    plan = SamplingPlan(Strategy.SQUARE_ROOT, budget=30, seed=9)
    m1 = sample_square_root(corpus, space, plan)
    m2 = sample_square_root(corpus, space, plan)
    assert manifest_bytes(m1) == manifest_bytes(m2)


# ---------------------------------------------------------------------------
# tail-preserving


def test_tail_preserving_hand_example(small_corpus):
    corpus, space = small_corpus  # counts A:8 B:3 C:2
    plan = SamplingPlan(Strategy.TAIL_PRESERVING, budget=10, seed=0)
    manifest = sample_tail_preserving(corpus, space, plan)
    by_label: dict[str, int] = {}
    for row in manifest.rows:
        by_label[row.label] = by_label.get(row.label, 0) + 1
    assert by_label == {"C": 2, "B": 3, "A": 5}


def test_tail_preserving_full_budget_keeps_everything(small_corpus):
    corpus, space = small_corpus
    plan = SamplingPlan(Strategy.TAIL_PRESERVING, budget=13, seed=0)
    manifest = sample_tail_preserving(corpus, space, plan)
    assert sorted(r.video_id for r in manifest.rows) == sorted(v.id for v in corpus)


def test_tail_preserving_equal_share_branch():
    corpus, space = corpus_with_counts({"A": 5, "B": 5})
    all_kept = sample_tail_preserving(
        corpus, space, SamplingPlan(Strategy.TAIL_PRESERVING, 10, 0)
    )
    assert len(all_kept.rows) == 10
    split = sample_tail_preserving(
        corpus, space, SamplingPlan(Strategy.TAIL_PRESERVING, 8, 0)
    )
    counts = {l: sum(1 for r in split.rows if r.label == l) for l in "AB"}
    assert counts == {"A": 4, "B": 4}


def test_tail_preserving_budget_below_label_count_errors():
    corpus, space = corpus_with_counts({"A": 5, "B": 5, "C": 5})
    with pytest.raises(ValidationError, match="tail semantics"):
        sample_tail_preserving(corpus, space, SamplingPlan(Strategy.TAIL_PRESERVING, 2, 0))


def test_tail_preserving_random_instances_hold_invariants():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n_labels = int(rng.integers(2, 8))
        counts = {f"l{i}": int(rng.integers(1, 40)) for i in range(n_labels)}
        total = sum(counts.values())
        budget = int(rng.integers(n_labels, total + 1))
        quotas = tail_preserving_quotas(counts, budget)
        assert sum(quotas.values()) == budget
        floor_share = budget // n_labels
        for label, count in counts.items():
            if count <= floor_share:
                assert quotas[label] == count, (counts, budget, quotas)


def test_tail_preserving_monotone_in_budget():
    corpus, space = corpus_with_counts({"A": 12, "B": 6, "C": 4})
    kept_prev: set[str] = set()
    for budget in range(3, 23):
        manifest = sample_tail_preserving(
            corpus, space, SamplingPlan(Strategy.TAIL_PRESERVING, budget, seed=5)
        )
        kept = {r.video_id for r in manifest.rows}
        assert kept_prev <= kept
        kept_prev = kept


def test_sample_random_exact_size_and_subset():
    corpus, space = corpus_with_counts({"A": 9, "B": 4})
    manifest = sample_random(corpus, space, SamplingPlan(Strategy.RANDOM, 6, 11))
    ids = [r.video_id for r in manifest.rows]
    assert len(ids) == len(set(ids)) == 6
    assert set(ids) <= {v.id for v in corpus}
    again = sample_random(corpus, space, SamplingPlan(Strategy.RANDOM, 6, 11))
    assert manifest_bytes(manifest) == manifest_bytes(again)


def test_sample_dispatch():
    corpus, space = corpus_with_counts({"A": 4, "B": 4})
    for strategy in Strategy:
        manifest = sample(corpus, space, SamplingPlan(strategy, 4, 2))
        assert len(manifest.rows) == 4


# ---------------------------------------------------------------------------
# subset_labels


def _space_with_labels(n: int) -> LabelSpace:
    return LabelSpace(
        name="big",
        kind=LabelKind.VERB_NOUN,
        entries={f"label{i:05d}": frozenset({f"tag{i:05d}"}) for i in range(n)},
        min_count=1,
    )


def test_subset_labels_identity_and_stability():
    space = _space_with_labels(20)
    assert set(subset_labels(space, 20, 1).entries) == set(space.entries)
    one = subset_labels(space, 1, 99)
    again = subset_labels(space, 1, 99)
    assert set(one.entries) == set(again.entries)
    assert len(one.entries) == 1


def test_subset_labels_nested_chain_at_reported_cardinalities():
    space = _space_with_labels(10653)
    chain = [subset_labels(space, k, seed=4) for k in (675, 1350, 2700, 5400)]
    for smaller, larger in zip(chain, chain[1:]):
        assert set(smaller.entries) <= set(larger.entries)


def test_subset_labels_out_of_range():
    space = _space_with_labels(5)
    with pytest.raises(ValidationError):
        subset_labels(space, 0, 0)
    with pytest.raises(ValidationError):
        subset_labels(space, 6, 0)


# ---------------------------------------------------------------------------
# Equivalence with the per-draw reference implementations


def _reference_sqrt_rows(corpus, space, plan):
    """Square-root sampling as first written: labels re-sorted and the
    probability vector rebuilt on every draw."""
    labels_of = matches_by_video(corpus, space)
    pools = {label: [] for label in space.entries}
    for video in sorted(corpus, key=lambda v: v.id):
        for label in labels_of.get(video.id, ()):
            pools[label].append(video)
    pools = {label: videos for label, videos in pools.items() if videos}
    weights = sqrt_weights({label: len(videos) for label, videos in pools.items()})
    pos = {label: {v.id: i for i, v in enumerate(videos)} for label, videos in pools.items()}

    def _remove(label, video_id):
        pool, index = pools[label], pos[label]
        i = index.pop(video_id)
        last = pool.pop()
        if last.id != video_id:
            pool[i] = last
            index[last.id] = i
        if not pool:
            del pools[label]

    rng = make_rng(plan.seed, "sqrt")
    rows = []
    while len(rows) < plan.budget:
        labels = sorted(pools)
        total = sum(weights[l] for l in labels)
        probs = [weights[l] / total for l in labels]
        label = labels[int(rng.choice(len(labels), p=probs))]
        pool = pools[label]
        video = pool[int(rng.integers(len(pool)))]
        for l in labels_of[video.id]:
            _remove(l, video.id)
        rows.append(ManifestRow(video.id, label, 0.0, video.duration_s))
    return rows


@st.composite
def _multilabel_corpus(draw):
    n_labels = draw(st.integers(1, 8))
    tags = [f"t{k}" for k in range(n_labels)]
    space = LabelSpace(
        name="h",
        kind=LabelKind.SEED,
        entries={f"L{k}": frozenset({tags[k]}) for k in range(n_labels)},
        min_count=1,
    )
    n_videos = draw(st.integers(1, 40))
    corpus = [
        VideoRecord(
            id=f"v{i:03d}",
            duration_s=1.0 + i,
            # a draw without a label tag leaves the video unmatched
            hashtags=draw(st.sets(st.sampled_from(tags + ["noise"]), max_size=3)),
        )
        for i in range(n_videos)
    ]
    return corpus, space


@settings(max_examples=100, deadline=None)
@given(_multilabel_corpus(), st.integers(0, 2**64 - 1), st.data())
def test_square_root_matches_per_draw_reference(corpus_space, seed, data):
    corpus, space = corpus_space
    matched = len(matches_by_video(corpus, space))
    assume(matched > 0)
    budget = data.draw(st.integers(1, matched))
    plan = SamplingPlan(Strategy.SQUARE_ROOT, budget=budget, seed=seed)
    rows = sample_square_root(corpus, space, plan).rows
    assert rows == _reference_sqrt_rows(corpus, space, plan)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=40), st.integers(0, 2**64 - 1))
def test_cdf_search_draws_what_rng_choice_draws(weights, seed):
    # sample_square_root's label draw against the rng.choice(p=...) it replaced
    total = sum(weights)
    probs = np.array([w / total for w in weights])
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    ours, numpys = make_rng(seed, "sqrt"), make_rng(seed, "sqrt")
    for _ in range(20):
        assert int(cdf.searchsorted(ours.random(), side="right")) == int(numpys.choice(len(probs), p=probs))
        assert ours.integers(7) == numpys.integers(7)  # the streams stay in step


def test_assign_draws_only_for_multi_label_videos(monkeypatch):
    corpus = []
    for i in range(300):
        n = 1 + i % 3 if i % 10 else 0  # every tenth video unmatched
        corpus.append(
            VideoRecord(id=f"v{i:04d}", duration_s=2.0, hashtags={f"t{(i + k) % 7}" for k in range(n)})
        )
    space = LabelSpace(
        name="s",
        kind=LabelKind.SEED,
        entries={f"L{k}": frozenset({f"t{k}"}) for k in range(7)},
        min_count=1,
    )
    matches = matches_by_video(corpus, space)
    multi = sum(len(m) > 1 for m in matches.values())
    assert 0 < multi < len(matches)

    # reference: draw for every matched video, as before the single-label shortcut
    expected: dict[str, list[VideoRecord]] = {}
    for video in corpus:
        m = matches.get(video.id)
        if m:
            label = m[int(make_rng(5, "assign", video.id).integers(len(m)))]
            expected.setdefault(label, []).append(video)

    calls = []

    def counting_first_integers(seed, key_paths, bounds):
        calls.append((key_paths, bounds))
        return first_integers(seed, key_paths, bounds)

    monkeypatch.setattr(records, "first_integers", counting_first_integers)
    pools = assigned_pools(corpus, space, seed=5)
    assert pools == expected
    assert len(calls) == 1  # one batch
    key_paths, bounds = calls[0]
    assert len(key_paths) == multi
    assert all(keys[0] == "assign" and len(matches[keys[1]]) == n > 1 for keys, n in zip(key_paths, bounds))
