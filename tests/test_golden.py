"""Golden output digests: manifest and dedup-report bytes for fixed seeds.

Criterion 11 only checks that two runs in one process agree; these digests
pin the bytes themselves, so a refactor that silently changes the seeded
label assignment, a sampler, a budget planner or the dedup report fails
here.  Change a digest only when a change means to alter outputs, and say
so in CHANGES.md.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from corpusforge.census import decode_frames
from corpusforge.dedup import dedup_report, save_report
from corpusforge.manifest import manifest_bytes
from corpusforge.records import VideoRecord
from corpusforge.sampling import SamplingPlan, Strategy, sample
from corpusforge.synth import ramp_video, tile_video
from corpusforge.temporal import (
    BudgetMode,
    BudgetPlan,
    LengthClass,
    build_length_class,
    plan_budget,
)

from conftest import zipf_corpus

SEED = 7
N_LABELS = 40

GOLDEN = {
    "random": "11d65c143f494715674354118dabdbf5c0be3432a06946b280341f68967a3b76",
    "sqrt": "0ea699a100f9665afe9cbc167afbddc468ab099d3b4ffb7c7b5e438c132b6e43",
    "tail": "7975dc2f04c9506cd022fa4ba836e63860d30dcf1efcc35e740373c99d19062c",
    "f1": "f9ab6ddb84b90abc15cf4f1d188d11db9165aca847688008f20b174e5203f393",
    "f2": "2722ff7636c88e36e6d146a67e0eb6a85eff555734dcfb72ce574588c6e49616",
    "overlap_pairs": "978243062a0e43d00a6e9096303986b6f8c2a0fdb398f87715d9c0a627c80f68",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_corpus():
    """Zipf corpus with ~30% two-label and ~10% unmatched (noise-tag) videos."""
    base, space, _truth = zipf_corpus(3000, N_LABELS, 1.0, seed=11)
    rng = np.random.default_rng(12)
    corpus = []
    for v in base:
        r = rng.random()
        if r < 0.1:
            tags = frozenset({f"noise{v.id}"})
        elif r < 0.4:
            tags = v.hashtags | {f"label{int(rng.integers(N_LABELS)):03d}"}
        else:
            tags = v.hashtags
        corpus.append(VideoRecord(v.id, v.duration_s, tags))
    known = frozenset().union(*space.entries.values())
    matched = [v for v in corpus if v.hashtags & known]
    return corpus, matched, space


@pytest.mark.parametrize("strategy", ["random", "sqrt", "tail"])
def test_golden_sample_manifests(strategy):
    corpus, _matched, space = golden_corpus()
    manifest = sample(corpus, space, SamplingPlan(Strategy(strategy), 600, seed=SEED))
    assert _sha(manifest_bytes(manifest)) == GOLDEN[strategy]


@pytest.mark.parametrize(
    "mode, plan",
    [
        ("f1", BudgetPlan(BudgetMode.FIXED_COUNT, LengthClass.SHORT, count=60)),
        ("f2", BudgetPlan(BudgetMode.FIXED_DURATION, LengthClass.LONG_CENTER, total_minutes=5.0)),
    ],
)
def test_golden_budget_manifests(mode, plan):
    _corpus, matched, space = golden_corpus()
    subset = build_length_class(matched, plan.length_class)
    manifest = plan_budget(subset, plan, space, SEED)
    assert _sha(manifest_bytes(manifest)) == GOLDEN[mode]


def test_golden_overlap_pairs(tmp_path):
    # targets share ramp content with the first sources; tiles are distractors
    targets = [
        decode_frames(ramp_video(f"t{i}", [(5 * i + k) % 40 for k in range(12)]))
        for i in range(3)
    ] + [decode_frames(tile_video("t3", list(range(2000, 2012))))]
    sources = [
        decode_frames(ramp_video(f"s{i}", [(5 * i + 3 + k) % 40 for k in range(10)]))
        for i in range(3)
    ] + [decode_frames(tile_video(f"s{i}", list(range(100 * i, 100 * i + 10)))) for i in range(3, 5)]
    save_report(dedup_report(sources, targets, seed=1), tmp_path)
    pairs = (tmp_path / "overlap_pairs.jsonl").read_bytes()
    assert pairs
    assert _sha(pairs) == GOLDEN["overlap_pairs"]
