"""Core data model: videos, label spaces, and label histograms.

A corpus is a list of :class:`VideoRecord`.  A :class:`LabelSpace` maps each
retained label to its set of relevant hashtags; matching between the two is
exact string equality on lowercased hashtags.  :func:`matches_by_video` is the
one place that matching happens, and :func:`assign_label` the one seeded draw
that collapses a multi-label video to a single label.
"""
from __future__ import annotations

import enum
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping

from .rng import make_rng


class ValidationError(ValueError):
    """Raised when a record or file violates a structural invariant."""


class LabelKind(enum.Enum):
    SEED = "seed"
    VERB = "verb"
    NOUN = "noun"
    VERB_NOUN = "verbnoun"


@dataclass(frozen=True)
class VideoRecord:
    """One corpus video with its weak supervision (hashtags)."""

    id: str
    duration_s: float
    hashtags: frozenset[str]
    frame_rate: float = 16.0
    source_uri: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("video id must be a non-empty string")
        if not 0 < self.duration_s < math.inf:
            raise ValidationError(f"video {self.id!r}: duration_s must be finite and > 0")
        if not 0 < self.frame_rate < math.inf:
            raise ValidationError(f"video {self.id!r}: frame_rate must be finite and > 0")
        if self.source_uri is not None and not isinstance(self.source_uri, str):
            raise ValidationError(f"video {self.id!r}: source_uri must be a string")
        if isinstance(self.hashtags, (str, dict)):
            raise ValidationError(f"video {self.id!r}: hashtags must be a list of strings")
        try:
            tags = frozenset(map(str.lower, self.hashtags))
        except TypeError as exc:
            raise ValidationError(f"video {self.id!r}: hashtags must be strings") from exc
        for tag in tags:
            # split() != [tag]: empty, or contains a character str.isspace() accepts
            if "#" in tag or tag.split() != [tag]:
                raise ValidationError(f"video {self.id!r}: bad hashtag {tag!r}")
        object.__setattr__(self, "hashtags", tags)


@dataclass(frozen=True)
class LabelSpace:
    """Mapping from labels to their relevant-hashtag sets."""

    name: str
    kind: LabelKind
    entries: Mapping[str, frozenset[str]]
    min_count: int = 50

    def __post_init__(self) -> None:
        if self.min_count < 1:
            raise ValidationError("min_count must be >= 1")
        frozen = {}
        for label, tags in self.entries.items():
            tagset = frozenset(tags)
            if not tagset:
                raise ValidationError(f"label {label!r} has no hashtags")
            for tag in tagset:
                if "#" in tag or any(ch.isspace() for ch in tag):
                    raise ValidationError(f"label {label!r}: bad hashtag {tag!r}")
            frozen[label] = tagset
        object.__setattr__(self, "entries", frozen)


@dataclass
class LabelHistogram:
    """Videos-per-label counts; multi-label videos count toward every match."""

    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label, n in self.counts.items():
            if n < 0:
                raise ValidationError(f"negative count for label {label!r}")

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def nonzero_labels(self) -> list[str]:
        return sorted(l for l, n in self.counts.items() if n > 0)


def label_histogram(corpus: list[VideoRecord], space: LabelSpace) -> LabelHistogram:
    """Count matched videos per label over a corpus.

    A video whose hashtags intersect several labels' sets contributes one
    count to each of them.
    """
    if not corpus:
        raise ValidationError("corpus is empty")
    tally = Counter(chain.from_iterable(matches_by_video(corpus, space).values()))
    return LabelHistogram({label: tally[label] for label in space.entries})


def matches_by_video(
    corpus: list[VideoRecord], space: LabelSpace
) -> dict[str, list[str]]:
    """Sorted matched-label list per video id; unmatched videos are absent.

    The one hashtag-to-label inverted index: a label matches a video when its
    hashtag set intersects the video's tags.
    """
    tag_to_labels: dict[str, list[str]] = {}
    for label, tags in space.entries.items():
        for tag in tags:
            tag_to_labels.setdefault(tag, []).append(label)
    out: dict[str, list[str]] = {}
    for video in corpus:
        matched: set[str] = set()
        for tag in video.hashtags:
            matched.update(tag_to_labels.get(tag, ()))
        if matched:
            out[video.id] = sorted(matched)
    return out


def assign_label(video_id: str, matched: list[str], seed: int) -> str:
    """Collapse a video's sorted matched labels to one, uniformly at random.

    The choice is a pure function of (video id, seed), so a corpus can be
    assigned in any order or in parallel.  A single match is returned
    without a draw: ``integers(1)`` is always 0.
    """
    if len(matched) == 1:
        return matched[0]
    rng = make_rng(seed, "assign", video_id)
    return matched[int(rng.integers(len(matched)))]


def assigned_pools(
    corpus: list[VideoRecord], space: LabelSpace, seed: int
) -> dict[str, list[VideoRecord]]:
    """Videos grouped by their assigned label; each list sorted by id.

    Videos matching no label are skipped.
    """
    matched_of = matches_by_video(corpus, space)
    pools: dict[str, list[VideoRecord]] = {}
    for video in corpus:
        matched = matched_of.get(video.id)
        if matched:
            pools.setdefault(assign_label(video.id, matched, seed), []).append(video)
    for videos in pools.values():
        videos.sort(key=lambda v: v.id)
    return pools


# ---------------------------------------------------------------------------
# Corpus persistence: JSONL, one VideoRecord per line.

_CORPUS_FIELDS = frozenset({"id", "duration_s", "hashtags", "frame_rate", "source_uri"})


def _reject_non_utf8(path: str | Path, text: str, first_line: int = 1) -> None:
    """Name the line of the first byte that is not UTF-8 in text read with
    ``errors="surrogateescape"``, which turns such bytes into lone surrogates.
    Callers skip ASCII text (``str.isascii`` is O(1))."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        lineno = first_line + text.count("\n", 0, exc.start)
        raise ValidationError(f"{path}:{lineno}: not valid UTF-8") from None


def load_corpus(path: str | Path) -> list[VideoRecord]:
    """Read a corpus JSONL file; duplicate ids are rejected."""
    records: list[VideoRecord] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                _reject_non_utf8(path, line, lineno)
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
                raise ValidationError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValidationError(f"{path}:{lineno}: expected a JSON object")
            if not _CORPUS_FIELDS.issuperset(obj):
                unknown = sorted(set(obj) - _CORPUS_FIELDS)
                raise ValidationError(f"{path}:{lineno}: unknown fields {unknown}")
            try:
                rec = VideoRecord(
                    id=obj["id"],
                    duration_s=float(obj["duration_s"]),
                    hashtags=obj.get("hashtags", ()),
                    frame_rate=float(obj.get("frame_rate", 16.0)),
                    source_uri=obj.get("source_uri"),
                )
            except KeyError as exc:
                raise ValidationError(f"{path}:{lineno}: missing field {exc}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            if rec.id in seen:
                raise ValidationError(f"{path}:{lineno}: duplicate video id {rec.id!r}")
            seen.add(rec.id)
            records.append(rec)
    return records


def save_corpus(corpus: Iterable[VideoRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in corpus:
            obj = {
                "id": rec.id,
                "duration_s": rec.duration_s,
                "hashtags": sorted(rec.hashtags),
                "frame_rate": rec.frame_rate,
                "source_uri": rec.source_uri,
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Label-space persistence: one JSON object with sorted keys.


def save_label_space(space: LabelSpace, path: str | Path) -> None:
    obj = {
        "name": space.name,
        "kind": space.kind.value,
        "min_count": space.min_count,
        "entries": {label: sorted(tags) for label, tags in space.entries.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_label_space(path: str | Path) -> LabelSpace:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        return LabelSpace(
            name=obj["name"],
            kind=LabelKind(obj["kind"]),
            entries={l: frozenset(tags) for l, tags in obj["entries"].items()},
            min_count=int(obj["min_count"]),
        )
    except KeyError as exc:
        raise ValidationError(f"{path}: missing field {exc}") from exc
