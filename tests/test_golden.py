"""Golden output digests: manifest, dedup-report and probe-model bytes for
fixed seeds.

Criterion 11 only checks that two runs in one process agree; these digests
pin the bytes themselves, so a refactor that silently changes the seeded
label assignment, a sampler, a budget planner, the dedup report or probe
training fails here.  Change a digest only when a change means to alter
outputs, and say so in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corpusforge
from corpusforge.census import FrameVideo, decode_frames
from corpusforge.dedup import dedup_report, save_report
from corpusforge.manifest import manifest_bytes
from corpusforge.probe import ProbeMode, save_features
from corpusforge.records import VideoRecord
from corpusforge.sampling import SamplingPlan, Strategy, sample
from corpusforge.synth import ramp_video, tile_frame, tile_video
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
    "decode_ramp224": "f5374545bd5fc06032ea47c9a54ba5177ce4e253e5e8414c6551c252beee58dc",
    "decode_rgb240x320": "f55f44a274f6cebc84a6b7a37ff14f1ac3e4f613b5a8c3f24c40fa4d517f4a37",
    "probe_softmax": "31ca20774755de2408ce8471cb02f2713ad0c1afa30975665db8508d2fa35a1d",
    "probe_sigmoid": "b145c62d0e2c5a8807faccc5e55b42fb960f7dc8938bc97bd3815d61fed5bfb3",
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


def _rgb_tile_video() -> FrameVideo:
    # 240x320 RGB: a non-square resize with non-dyadic weights, and luma
    frames = np.stack([
        np.stack([tile_frame(1000 + 7 * k + c, side=320)[:240] for c in range(3)], axis=-1)
        for k in range(10)
    ])
    return FrameVideo("rgb240x320", fps=16.0, frames=frames)


@pytest.mark.parametrize(
    "name, video",
    [
        ("decode_ramp224", lambda: ramp_video("r224", [(3 * k) % 40 for k in range(12)], side=224)),
        ("decode_rgb240x320", _rgb_tile_video),
    ],
)
def test_golden_decoded_signatures(name, video):
    # the resize paths: 2:1 from 224 px, and 240x320 RGB to 112x112
    assert _sha(decode_frames(video()).frames.tobytes()) == GOLDEN[name]


# BLAS kernels differ by build and by CPU, so the probe-model digests hold
# only for the numpy, BLAS and machine they were recorded with
_PROBE_PLATFORM = ("2.4.6", "scipy-openblas", "0.3.31.188.0", "x86_64")


def _platform() -> tuple[str, str, str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return np.__version__, blas["name"], blas["version"], platform.machine()


def _probe_features(path: Path, mode: ProbeMode) -> None:
    """Seeded 1500 x 96 features of 32 classes, each class around its own mean."""
    n, d, classes = 1500, 96, 32
    rng = np.random.default_rng(SEED)
    means = rng.standard_normal((classes, d)) / math.sqrt(d)
    y = rng.integers(classes, size=n)
    if mode is ProbeMode.SOFTMAX_MULTICLASS:
        targets, centers = y, means[y]
    else:
        targets = np.zeros((n, classes), dtype=np.uint8)
        targets[np.arange(n), y] = 1
        extra = rng.random(n) < 0.4
        targets[np.arange(n)[extra], rng.integers(classes, size=int(extra.sum()))] = 1
        centers = targets @ means
    save_features(centers + 0.6 * rng.standard_normal((n, d)) / math.sqrt(d), targets, mode, path)


def _train_model(tmp_path: Path, mode: ProbeMode, threads: str | None) -> bytes:
    """The model file ``probe train`` writes in a fresh interpreter, with every
    BLAS thread variable unset or set to ``threads``."""
    features, model = tmp_path / f"{mode.value}.cfft", tmp_path / f"{mode.value}-{threads}.npz"
    if not features.exists():
        _probe_features(features, mode)
    src = str(Path(corpusforge.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    subprocess.run([sys.executable, "-m", "corpusforge.cli", "probe", "train", "--features", str(features),
                    "--mode", mode.value, "-o", str(model)], check=True, capture_output=True, env=env, timeout=120)
    return model.read_bytes()


@pytest.mark.parametrize("mode", list(ProbeMode))
def test_golden_probe_models(tmp_path, mode):
    if _platform() != _PROBE_PLATFORM:
        pytest.skip(f"digests recorded on numpy/BLAS/machine {_PROBE_PLATFORM}, this is {_platform()}")
    assert _sha(_train_model(tmp_path, mode, None)) == GOLDEN[f"probe_{mode.value}"]


@pytest.mark.parametrize("mode", list(ProbeMode))
def test_probe_model_bytes_do_not_depend_on_the_callers_thread_variables(tmp_path, mode):
    # the CLI trains on one BLAS thread whatever the environment asks for
    models = {threads: _train_model(tmp_path, mode, threads) for threads in (None, "1", "2")}
    assert models[None] == models["1"] == models["2"]
