"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance and runtime limit is pinned here.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from corpusforge.census import census_signature, cosine, decode_frames
from corpusforge.dedup import build_index, dedup_report, overlap
from corpusforge.evalmetrics import (
    accuracy_topk,
    mean_average_precision,
    uniform_clip_starts,
)
from corpusforge.inflate import fcn_transform, inflation_equivalence
from corpusforge.labelspace import (
    PosHint,
    SeedLabel,
    canonicalize,
    parse_seed_phrase,
    relevant_hashtags,
)
from corpusforge.manifest import manifest_bytes
from corpusforge.probe import ProbeMode, probe_loss_and_grad, train_probe
from corpusforge.records import LabelKind, VideoRecord, label_histogram
from corpusforge.sampling import SamplingPlan, Strategy, sample_square_root, tail_preserving_quotas, sample_tail_preserving
from corpusforge.schedule import lr_schedule
from corpusforge.synth import ramp_video, tile_video
from corpusforge.temporal import (
    BudgetMode,
    BudgetPlan,
    LengthClass,
    build_length_class,
    jitter_clip,
    plan_budget,
)
from corpusforge.labelspace import build_label_space
from corpusforge.sampling import sample

from conftest import corpus_with_counts
from oracles import (
    exhaustive_matches,
    fd_gradient,
    map_oracle,
    topk_accuracy_oracle,
)
from test_inflate import random_2d_net, random_3d_net


@contextmanager
def criterion(num: int, title: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nFAIL  criterion {num:2d}: {title}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit_s
    verdict = "PASS" if ok else "FAIL"
    print(f"\n{verdict}  criterion {num:2d}: {title} ({elapsed:.2f}s, limit {limit_s:g}s)")
    assert ok, f"criterion {num} exceeded runtime limit: {elapsed:.2f}s >= {limit_s}s"


def test_criterion_01_hashtag_construction_golden():
    with criterion(1, "hashtag construction golden sets", 1.0):
        burn_candle = SeedLabel(
            text="burning candle",
            words=(
                canonicalize("burning", PosHint.VERB),
                canonicalize("candle", PosHint.NOUN),
            ),
        )
        assert relevant_hashtags(burn_candle) == {
            "burncandle",
            "candlesburning",
            "candleburning",
            "burncandles",
            "burningcandle",
            "burningcandles",
            "candlesburn",
            "candleburn",
        }
        fish = parse_seed_phrase("catching/v a fish/n")
        assert {"catchingafish", "catchfish", "fishcatching"} <= relevant_hashtags(fish)


def test_criterion_02_square_root_sampling_frequency():
    with criterion(2, "square-root sampling tracks sqrt weights", 5.0):
        corpus, space = corpus_with_counts({"A": 10_000, "B": 100}, duration_s=2.0)
        p_a = math.sqrt(10_000) / (math.sqrt(10_000) + math.sqrt(100))  # 10/11
        draws = hits = 0
        for seed in range(30):
            plan = SamplingPlan(Strategy.SQUARE_ROOT, budget=1000, seed=seed)
            manifest = sample_square_root(corpus, space, plan)
            hits += sum(1 for r in manifest.rows if r.label == "A")
            draws += len(manifest.rows)
        assert draws == 30_000
        sigma = math.sqrt(p_a * (1.0 - p_a) / draws)
        assert abs(hits / draws - p_a) <= 3.0 * sigma


def test_criterion_03_tail_preserving_sampling():
    with criterion(3, "tail-preserving water-filling", 10.0):
        corpus, space = corpus_with_counts({"A": 8, "B": 3, "C": 2})
        plan = SamplingPlan(Strategy.TAIL_PRESERVING, budget=10, seed=0)
        manifest = sample_tail_preserving(corpus, space, plan)
        got = {l: sum(1 for r in manifest.rows if r.label == l) for l in "ABC"}
        assert got == {"A": 5, "B": 3, "C": 2}

        rng = np.random.default_rng(123)
        for _ in range(1000):
            n_labels = int(rng.integers(1, 10))
            counts = {f"l{i}": int(rng.integers(1, 60)) for i in range(n_labels)}
            total = sum(counts.values())
            budget = int(rng.integers(n_labels, total + 1))
            quotas = tail_preserving_quotas(counts, budget)
            assert sum(quotas.values()) == budget
            floor_share = budget // n_labels
            for label, count in counts.items():
                if count <= floor_share:
                    assert quotas[label] == count


def test_criterion_04_dedup_recall_and_lsh_oracle():
    with criterion(4, "dedup recall on rescaled/trimmed duplicates", 60.0):
        num_targets, frames_per_target = 20, 16
        targets = [
            ramp_video(f"target{j:02d}", [(3 * j + k) % 40 for k in range(frames_per_target)])
            for j in range(num_targets)
        ]
        sources = []
        for j in range(10):  # true duplicates: 2x spatial rescale, 50% temporal crop
            members = [(3 * j + k) % 40 for k in range(frames_per_target)]
            window = members[frames_per_target // 4 : 3 * frames_per_target // 4]
            sources.append(ramp_video(f"dup{j:02d}", window, side=224))
        for i in range(90):  # distractors with unrelated texture content
            sources.append(tile_video(f"noise{i:02d}", list(range(1000 + 16 * i, 1008 + 16 * i))))

        target_sigs = [decode_frames(v) for v in targets]
        source_sigs = [decode_frames(v) for v in sources]
        report = dedup_report(source_sigs, target_sigs, tau=0.9, threshold_pct=20.0)
        truth = {f"dup{j:02d}" for j in range(10)}
        recall = len(report.flagged_sources() & truth) / len(truth)
        assert recall >= 0.9

        # self-overlap is exactly 100
        index = build_index([target_sigs[0]])
        assert overlap(target_sigs[0], index) == [("target00", 100.0)]

        # LSH agrees with the exhaustive-search oracle on <= 200 frames
        stored_sigs = target_sigs[:12]  # 12 x 16 = 192 frames
        stored = [
            (s.video_id, k, s.frames[k]) for s in stored_sigs for k in range(len(s))
        ]
        assert len(stored) <= 200
        small_index = build_index(stored_sigs)
        found = truth_count = 0
        for q in source_sigs[:6]:
            for k in range(len(q)):
                truth_set = exhaustive_matches(q.frames[k], stored, tau=0.9)
                got = set(small_index.match(q.frames[k], tau=0.9))
                assert got <= truth_set
                truth_count += len(truth_set)
                found += len(got)
        assert truth_count > 0
        assert found / truth_count >= 0.95


def test_criterion_05_census_invariants():
    with criterion(5, "census signature invariants", 1.0):
        one_hot = np.zeros(64)
        one_hot[0] = 1.0
        assert np.array_equal(census_signature(np.full((112, 112), 55.0)), one_hot)

        rng = np.random.default_rng(0)
        for _ in range(10):
            frame = rng.uniform(0.0, 200.0, size=(112, 112))
            sig = census_signature(frame)
            assert abs(sig.sum() - 1.0) <= 1e-9
            shifted = census_signature(frame + 31.7)
            assert np.array_equal(sig, shifted)


def test_criterion_06_inflation_equivalence():
    with criterion(6, "inflation equivalence on random nets", 30.0):
        rng = np.random.default_rng(42)
        for _ in range(20):
            depth = int(rng.integers(1, 5))
            net = random_2d_net(rng, depth)
            channels = net.conv_layers()[0].weights.shape[1]
            x2d = rng.standard_normal((channels, 9, 9))
            for k in (1, 2, 3, 5):
                result = inflation_equivalence(net, k, x2d, tol=1e-5)
                assert result.ok, f"k={k} deviation {result.max_deviation:.2e}"
        # negative control: dropping the 1/k normalization must break it
        control = random_2d_net(np.random.default_rng(7), 2)
        xc = np.random.default_rng(8).standard_normal(
            (control.conv_layers()[0].weights.shape[1], 8, 8)
        )
        for k in (2, 3, 5):
            assert not inflation_equivalence(control, k, xc, tol=1e-5, normalize=False).ok


def test_criterion_07_fcn_transform_logit_exact():
    with criterion(7, "fully-convolutional transform is logit-exact", 10.0):
        rng = np.random.default_rng(11)
        for _ in range(20):
            net = random_3d_net(rng, depth=int(rng.integers(1, 4)))
            fcn = fcn_transform(net)
            channels = net.conv_layers()[0].weights.shape[1]
            x = rng.standard_normal((channels, 4, 8, 8))
            assert np.max(np.abs(fcn.forward(x) - net.forward(x))) <= 1e-6


def test_criterion_08_lr_schedule():
    with criterion(8, "learning-rate schedule shape and final value", 1.0):
        sched = lr_schedule(base_lr=0.192, warmup_iters=10, total_iters=1000, num_reductions=13)
        lengths = sched.plateau_lengths()
        assert len(lengths) == 14
        assert max(lengths) - min(lengths) <= 1
        assert sched.values[-1] == 2.34375e-5


def test_criterion_09_probe_and_metrics():
    with criterion(9, "probe gradients, toy accuracy, metric oracles", 30.0):
        rng = np.random.default_rng(5)
        for i in range(10):
            mode = ProbeMode.SOFTMAX_MULTICLASS if i % 2 == 0 else ProbeMode.SIGMOID_MULTILABEL
            n, d, classes = 8, 3, 3
            x = rng.standard_normal((n, d))
            if mode is ProbeMode.SOFTMAX_MULTICLASS:
                t = rng.integers(0, classes, size=n)
            else:
                t = (rng.uniform(size=(n, classes)) > 0.5).astype(float)
            weights = rng.standard_normal((classes, d))
            bias = rng.standard_normal(classes)

            def loss_of(flat: np.ndarray) -> float:
                w = flat[: classes * d].reshape(classes, d)
                b = flat[classes * d :]
                return probe_loss_and_grad(w, b, x, t, mode, 1e-3)[0]

            _, gw, gb = probe_loss_and_grad(weights, bias, x, t, mode, 1e-3)
            analytic = np.concatenate([gw.ravel(), gb])
            numeric = fd_gradient(loss_of, np.concatenate([weights.ravel(), bias]), eps=1e-5)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-300)
            assert rel <= 1e-4

        x0 = rng.normal(-2.0, 0.4, size=(25, 2))
        x1 = rng.normal(2.0, 0.4, size=(25, 2))
        toy_x = np.vstack([x0, x1])
        toy_y = np.array([0] * 25 + [1] * 25)
        model = train_probe(
            toy_x, toy_y, ProbeMode.SOFTMAX_MULTICLASS, l2_lambda=1e-6, iters=5000, step=0.5
        )
        assert float(np.mean(model.predict(toy_x) == toy_y)) == 1.0

        for _ in range(100):
            n = int(rng.integers(2, 50))
            classes = int(rng.integers(2, 8))
            scores = np.round(rng.standard_normal((n, classes)), 1)
            labels = rng.integers(0, classes, size=n)
            k = int(rng.integers(1, classes + 1))
            assert accuracy_topk(scores, labels, k) == pytest.approx(
                topk_accuracy_oracle(scores, labels, k)
            )
            truth = (rng.uniform(size=(n, classes)) > 0.6).astype(int)
            if not truth.any():
                truth[0, 0] = 1
            got, _skipped = mean_average_precision(scores, truth)
            assert got == pytest.approx(map_oracle(scores, truth))


def test_criterion_10_temporal_planning():
    with criterion(10, "clip starts, duration budgets, jitter uniformity", 10.0):
        assert uniform_clip_starts(100, 8, 10) == [0, 10, 20, 31, 41, 51, 61, 72, 82, 92]

        corpus, space = corpus_with_counts({"A": 40}, duration_s=4.0)
        plan = BudgetPlan(
            BudgetMode.FIXED_DURATION, LengthClass.SHORT, total_minutes=100.0 / 60.0
        )
        manifest = plan_budget(corpus, plan, space, seed=0)
        assert len(manifest.rows) == 25

        long_corpus = [
            VideoRecord(id=f"L{i:03d}", duration_s=55.0 + (i % 6), hashtags=frozenset({"a"}))
            for i in range(30)
        ]
        _, long_space = corpus_with_counts({"A": 1})
        subset = build_length_class(long_corpus, LengthClass.LONG_CENTER)
        center_plan = BudgetPlan(BudgetMode.FIXED_COUNT, LengthClass.LONG_CENTER, count=30)
        center_manifest = plan_budget(subset, center_plan, long_space, seed=1)
        durations = {v.id: v.duration_s for v in long_corpus}
        for row in center_manifest.rows:
            midpoint = row.clip_start_s + row.clip_len_s / 2.0
            assert abs(midpoint - durations[row.video_id] / 2.0) <= 1e-9

        starts = np.array([jitter_clip(10.0, 2.0, seed=s).start_s for s in range(10_000)])
        p_value = stats.kstest(starts / 8.0, "uniform").pvalue
        assert p_value > 0.01


def test_criterion_11_pipeline_determinism():
    with criterion(11, "end-to-end pipeline determinism", 10.0):
        def run_pipeline() -> tuple[bytes, bytes]:
            corpus, _ = corpus_with_counts(
                {"ropejumping": 70, "guitarplaying": 64}, duration_s=4.0
            )
            seeds = [
                parse_seed_phrase("jumping/v rope/n"),
                parse_seed_phrase("playing/v guitar/n"),
            ]
            space = build_label_space(seeds, LabelKind.SEED, corpus, min_count=50)
            sampled = sample(corpus, space, SamplingPlan(Strategy.SQUARE_ROOT, 80, seed=21))
            picked_ids = {r.video_id for r in sampled.rows}
            subset = build_length_class(
                [v for v in corpus if v.id in picked_ids], LengthClass.SHORT
            )
            plan = BudgetPlan(BudgetMode.FIXED_DURATION, LengthClass.SHORT, total_minutes=2.0)
            selected = plan_budget(subset, plan, space, seed=21)
            return manifest_bytes(sampled), manifest_bytes(selected)

        first = run_pipeline()
        second = run_pipeline()
        assert first[0] == second[0]
        assert first[1] == second[1]
