"""Seeded input generators for the benchmark workloads.

Everything a workload feeds to ``corpusforge`` is made here from the
workload seed: the seed-phrase file and the JSONL corpora, the ``.cfvd``
source and target directories, the 2D net and the CFFT probe features.
The same seed always writes the same bytes.

The corpus generator knows which labels every video carries, so it also
returns the expected per-label counts and the labels that survive
``--min-count``; the benchmark checks ``labelspace build`` and ``corpus
stats`` against them.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from corpusforge.census import FrameVideo, save_raw_frames
from corpusforge.netops import (
    Conv2dLayer,
    DenseLayer,
    GlobalAvgPoolLayer,
    NetSpec,
    ReluLayer,
    save_net,
)
from corpusforge.probe import ProbeMode, save_features
from corpusforge.synth import RAMP_FAMILY, ramp_frame, tile_frame

FPS = 16.0
NATIVE_SIDE = 112  # census frame side; other sides need a resize on decode
RESCALED_SIDE = 224
SHOT_FRAMES = 16
TILE_IDS = math.factorial(9)  # distinct tile_frame textures

_CONSONANTS = np.array(list("bdfgklmnprtvz"))
_VOWELS = np.array(list("aeiou"))


@dataclass(frozen=True)
class CorpusSpec:
    videos: int
    labels: int
    min_count: int
    budget: int  # rows asked of each sampling strategy
    f1_count: int  # short videos asked of the f1 planner
    f2_minutes: float  # long-center minutes given to the f2 planner


@dataclass(frozen=True)
class DedupSpec:
    ramp_targets: int
    tile_targets: int
    target_frames: int
    planted: int  # sources holding a rescaled window of one ramp target
    distractors: int  # sources of tile content only
    source_frames: int
    window: int  # frames a planted source copies from its target


@dataclass(frozen=True)
class EvalSpec:
    channels: tuple[int, int, int, int]  # input, then the three conv widths
    verify_size: int
    probe_n: int
    probe_dim: int
    probe_classes: int


@dataclass(frozen=True)
class CorpusTruth:
    counts: dict[str, int]  # videos carrying each candidate label
    kept: list[str]  # labels with count >= min_count, sorted
    videos: int
    unmatched: int  # videos carrying no kept label
    multilabel: int  # videos carrying two or more kept labels


@dataclass(frozen=True)
class DedupTruth:
    planted: list[str]  # source ids holding a window of some target
    frames: int  # source plus target frames
    resized: int  # frames whose side is not the census side


# ---------------------------------------------------------------------------
# Corpus: seed phrases, Zipf label frequencies, multi-label and noise videos.


def _words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """Distinct CVCVCV words; ending in a vowel keeps them out of every stemming rule."""
    out: list[str] = []
    while len(out) < count:
        c = rng.choice(_CONSONANTS, size=3)
        v = rng.choice(_VOWELS, size=3)
        word = "".join(a + b for a, b in zip(c, v))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _phrases(rng: np.random.Generator, n_labels: int) -> list[tuple[str, str, bool]]:
    """(verb, noun, has_stopword) per label; verbs and nouns never share a word."""
    side = math.isqrt(n_labels) + 4
    taken: set[str] = set()
    verbs, nouns = _words(rng, side, taken), _words(rng, side, taken)
    pairs = rng.choice(side * side, size=n_labels, replace=False)
    stop = rng.random(n_labels) < 0.3
    return [(verbs[p // side], nouns[p % side], bool(s)) for p, s in zip(pairs, stop)]


def _label_tags(verb: str, noun: str, stop: bool) -> list[str]:
    """Hashtags that the documented expansion always emits for ``verb/v [the] noun/n``."""
    glued = verb + ("the" if stop else "") + noun
    tags = [glued, verb + noun, noun + verb, verb + "ing" + noun, noun + "s" + verb]
    return list(dict.fromkeys(tags))


def write_corpus(spec: CorpusSpec, rng: np.random.Generator, out: Path) -> CorpusTruth:
    """Write seeds.txt, corpus.jsonl and matched.jsonl (videos with a kept label)."""
    phrases = _phrases(rng, spec.labels)
    names = [f"{v} the {n}" if s else f"{v} {n}" for v, n, s in phrases]
    tags = [_label_tags(*p) for p in phrases]
    with open(out / "seeds.txt", "w", encoding="utf-8") as fh:
        for v, n, s in phrases:
            fh.write(f"{v}/v the {n}/n\n" if s else f"{v}/v {n}/n\n")

    # Zipf(1) over a random rank order of the labels
    rank_of = rng.permutation(spec.labels)
    weights = 1.0 / (rank_of + 1.0)
    weights /= weights.sum()
    n = spec.videos
    kind = rng.random(n)  # < 0.10 noise tags only, < 0.40 two labels, else one
    first = rng.choice(spec.labels, size=n, p=weights)
    second = rng.choice(spec.labels, size=n, p=weights)
    clash = second == first
    second[clash] = (first[clash] + 1 + rng.integers(spec.labels - 1, size=int(clash.sum()))) % spec.labels
    n_labels = np.where(kind < 0.10, 0, np.where(kind < 0.40, 2, 1))
    tag_pick = rng.integers(1 << 30, size=(n, 2))
    n_noise = rng.integers(0, 3, size=n) + (n_labels == 0)
    noise = rng.integers(5000, size=(n, 3))
    cls = rng.random(n)  # short 35%, long 35%, other 30%
    duration = np.where(
        cls < 0.35,
        rng.uniform(1.0, 5.0, n),
        np.where(cls < 0.70, rng.uniform(55.0, 60.0, n), rng.uniform(5.5, 54.5, n)),
    ).round(3)

    counts = np.zeros(spec.labels, dtype=np.int64)
    np.add.at(counts, first[n_labels >= 1], 1)
    np.add.at(counts, second[n_labels == 2], 1)
    keep = counts >= spec.min_count
    kept_hits = np.where(n_labels >= 1, keep[first], False).astype(np.int64)
    kept_hits += np.where(n_labels == 2, keep[second], False)

    with open(out / "corpus.jsonl", "w", encoding="utf-8") as raw, open(
        out / "matched.jsonl", "w", encoding="utf-8"
    ) as matched:
        for i in range(n):
            video_tags = [f"tag{int(t)}" for t in noise[i, : n_noise[i]]]
            for j, label in enumerate((first[i], second[i])[: n_labels[i]]):
                options = tags[label]
                video_tags.append(options[tag_pick[i, j] % len(options)])
            line = json.dumps(
                {"id": f"v{i:07d}", "duration_s": float(duration[i]), "hashtags": video_tags}
            ) + "\n"
            raw.write(line)
            if kept_hits[i]:
                matched.write(line)
    return CorpusTruth(
        counts={names[k]: int(counts[k]) for k in range(spec.labels)},
        kept=sorted(names[k] for k in range(spec.labels) if keep[k]),
        videos=n,
        unmatched=int((kept_hits == 0).sum()),
        multilabel=int((kept_hits >= 2).sum()),
    )


# ---------------------------------------------------------------------------
# Frame videos for dedup: ramp shots (rescale-stable) and tile shots.


class _FrameCache:
    def __init__(self) -> None:
        self._frames: dict[tuple[str, int, int], np.ndarray] = {}

    def get(self, kind: str, ident: int, side: int) -> np.ndarray:
        key = (kind, ident, side)
        if key not in self._frames:
            make = ramp_frame if kind == "ramp" else tile_frame
            self._frames[key] = make(ident, side)
        return self._frames[key]


def _shots(kinds_ids: list[tuple[str, int]], frames: int) -> list[tuple[str, int]]:
    """Expand per-shot content into per-frame content, SHOT_FRAMES frames a shot."""
    out = [shot for shot in kinds_ids for _ in range(SHOT_FRAMES)]
    return out[:frames]


def _save(cache: _FrameCache, recipe: list[tuple[str, int]], side: int, path: Path) -> None:
    frames = np.stack([cache.get(kind, ident, side) for kind, ident in recipe])
    save_raw_frames(FrameVideo(video_id=path.stem, fps=FPS, frames=frames), path)


def write_videos(spec: DedupSpec, rng: np.random.Generator, out: Path) -> DedupTruth:
    """Write sources/ and targets/ directories of .cfvd videos."""
    (out / "sources").mkdir()
    (out / "targets").mkdir()
    cache = _FrameCache()
    shots_per = -(-max(spec.target_frames, spec.source_frames) // SHOT_FRAMES)
    videos = spec.ramp_targets + spec.tile_targets + spec.planted + spec.distractors
    tile_ids = iter(rng.choice(TILE_IDS, size=videos * shots_per, replace=False).tolist())

    def tiles(frames: int) -> list[tuple[str, int]]:
        return _shots([("tile", next(tile_ids)) for _ in range(shots_per)], frames)

    ramp_recipes = []
    for j in range(spec.ramp_targets):
        members = rng.integers(len(RAMP_FAMILY), size=shots_per).tolist()
        recipe = _shots([("ramp", m) for m in members], spec.target_frames)
        ramp_recipes.append(recipe)
        _save(cache, recipe, NATIVE_SIDE, out / "targets" / f"ramp{j:02d}.cfvd")
    for j in range(spec.tile_targets):
        _save(cache, tiles(spec.target_frames), NATIVE_SIDE, out / "targets" / f"tile{j:02d}.cfvd")

    planted = []
    targets_of = rng.permutation(spec.ramp_targets)
    for p in range(spec.planted):
        start = int(rng.integers(spec.target_frames - spec.window + 1))
        window = ramp_recipes[targets_of[p % spec.ramp_targets]][start : start + spec.window]
        recipe = window + tiles(spec.source_frames - spec.window)
        name = f"dup{p:02d}"
        planted.append(name)
        _save(cache, recipe, RESCALED_SIDE, out / "sources" / f"{name}.cfvd")
    for d in range(spec.distractors):
        _save(cache, tiles(spec.source_frames), NATIVE_SIDE, out / "sources" / f"noise{d:02d}.cfvd")
    target_frames = (spec.ramp_targets + spec.tile_targets) * spec.target_frames
    source_frames = (spec.planted + spec.distractors) * spec.source_frames
    return DedupTruth(
        planted=planted,
        frames=target_frames + source_frames,
        resized=spec.planted * spec.source_frames,
    )


# ---------------------------------------------------------------------------
# Evaluation inputs: a three-conv 2D net and separable probe features.


def write_net(spec: EvalSpec, rng: np.random.Generator, path: Path) -> None:
    layers: list = []
    widths = spec.channels
    for c_in, c_out in zip(widths, widths[1:]):
        w = rng.standard_normal((c_out, c_in, 3, 3)) / math.sqrt(9 * c_in)
        layers += [Conv2dLayer(w, 0.1 * rng.standard_normal(c_out), 1, True), ReluLayer()]
    layers += [
        GlobalAvgPoolLayer(),
        DenseLayer(rng.standard_normal((10, widths[-1])), rng.standard_normal(10)),
    ]
    save_net(NetSpec(layers), path)


def write_features(spec: EvalSpec, rng: np.random.Generator, out: Path) -> None:
    """train/val CFFT files for both probe modes, sharing one set of class means."""
    d, classes = spec.probe_dim, spec.probe_classes
    means = rng.standard_normal((classes, d)) / math.sqrt(d)
    for split in ("train", "val"):
        n = spec.probe_n
        y = rng.integers(classes, size=n)
        x = means[y] + 0.6 * rng.standard_normal((n, d)) / math.sqrt(d)
        save_features(x, y, ProbeMode.SOFTMAX_MULTICLASS, out / f"{split}_softmax.cfft")
        multi = np.zeros((n, classes), dtype=np.uint8)
        for k in range(3):
            on = rng.random(n) < (1.0 if k == 0 else 0.4)
            multi[np.arange(n)[on], rng.integers(classes, size=int(on.sum()))] = 1
        x = multi @ means + 0.6 * rng.standard_normal((n, d)) / math.sqrt(d)
        save_features(x, multi, ProbeMode.SIGMOID_MULTILABEL, out / f"{split}_sigmoid.cfft")
