"""Core data model: videos, label spaces, and label histograms.

A corpus is a list of :class:`VideoRecord`.  A :class:`LabelSpace` maps each
retained label to its set of relevant hashtags; matching between the two is
exact string equality on lowercased hashtags.  :func:`matches_by_video` is the
one place that matching happens, and :func:`assign_labels` the one seeded draw
that collapses a multi-label video to a single label.
"""
from __future__ import annotations

import enum
import json
import math
import numbers
import operator
import os
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping

from .rng import first_integers


class ValidationError(ValueError):
    """Raised when a record or file violates a structural invariant."""


def _shown(value: object) -> str:
    """``repr(value)`` for an error message, which cannot fail: an int too
    long for ``repr`` (over ``sys.get_int_max_str_digits()`` digits) is named
    by its digit count, and any other number holding one by its type."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            return f"a {type(value).__name__} too long to print"
        size = abs(value)
        digits = int(size.bit_length() * math.log10(2))
        digits += size >= 10**digits  # the count is one of these two
        return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"


def check_count(value: object, name: str, low: int = 1) -> int:
    """The one count rule (a seed's is ``rng.check_seed``): ``value`` is an
    integer >= ``low``, an ``int`` or anything ``operator.index`` takes
    (``np.int64``), never a ``bool``.  Returns it as an ``int``."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {_shown(value)}")
    return count


def _real(value: object) -> float:
    """The one number rule, for arguments and file fields: ``value`` as a
    ``float`` when it is an exact ``float`` or ``int``, or another
    ``numbers.Real`` (``np.float64``) but not a ``bool``; otherwise nan, as
    for an int beyond the float range, so that it fails any range test."""
    kind = type(value)
    if kind is float:
        return value
    if kind is int or (kind is not bool and isinstance(value, numbers.Real)):
        try:
            return float(value)
        except OverflowError:
            return math.nan
    return math.nan


def check_real(
    value: object, name: str, low: float, high: float = math.inf, *, open_ends: bool = False
) -> float:
    """The one real-number rule for arguments: ``value`` is a number by
    :func:`_real`, finite and in [low, high], or in (low, high) with
    ``open_ends``.  Returns it as a ``float``."""
    real = _real(value)
    if not (math.isfinite(real) and (low < real < high if open_ends else low <= real <= high)):
        if high == math.inf:
            where = f"{'>' if open_ends else '>='} {low:g}"
        else:
            where = f"in {'(' if open_ends else '['}{low:g}, {high:g}{')' if open_ends else ']'}"
        raise ValidationError(f"{name} must be finite and {where}, got {_shown(value)}")
    return real


# ---------------------------------------------------------------------------
# The file layer: every format is read and written through these helpers.


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)`` for the lines of a UTF-8 text file, from 1.

    Lines end at ``\n``, ``\r\n`` or ``\r``, not at U+0085, U+2028 or U+2029 as
    ``str.splitlines()`` would: JSONL writers leave those unescaped in strings.
    Bytes that are not UTF-8 read as lone surrogates (``surrogateescape``);
    only non-ASCII lines are checked for them (``str.isascii`` is O(1))."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValidationError(f"{path}:{lineno}: not valid UTF-8") from None
            yield lineno, line


def read_json(path: str | Path) -> object:
    """Parse a file holding one JSON document; errors name ``path:line``."""
    text = "".join(line for _lineno, line in read_lines(path))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}: bad JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:  # an integer too long, or nesting too deep
        raise ValidationError(f"{path}: bad JSON: {exc}") from None


def read_object(source: object, where: str, allowed: frozenset[str], required: frozenset[str]) -> dict:
    """The one JSON-object rule: ``source`` (JSON text, or a value already
    parsed) must be an object whose keys are all ``allowed`` and include every
    ``required`` one.  Errors start with ``where``, e.g. ``path:line``."""
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except (ValueError, RecursionError) as exc:  # also an overlong integer, deep nesting
            raise ValidationError(f"{where}: bad JSON: {exc}") from None
    if not isinstance(source, dict):
        raise ValidationError(f"{where}: expected a JSON object")
    if not allowed.issuperset(source):
        raise ValidationError(f"{where}: unknown fields {sorted(set(source) - allowed)}")
    if not source.keys() >= required:
        raise ValidationError(f"{where}: missing fields {sorted(required - set(source))}")
    return source


_JSON_SPACE = " \t\n\r"  # the whitespace json.loads skips around a value


def read_jsonl(
    path: str | Path, lines: Iterable[tuple[int, str]], allowed: frozenset[str], required: frozenset[str]
) -> Iterator[tuple[int, dict]]:
    """Yield ``(lineno, read_object(text, "path:lineno", allowed, required))``
    for each ``(lineno, text)`` of ``lines`` (a :func:`read_lines` stream, or
    one with each line stripped) whose text is not blank.

    One decoder's scanner parses each text in place of ``json.loads``; a text
    it does not take whole as a valid object goes to :func:`read_object`,
    which raises that text's error as the per-line loop always did."""
    scan = json.JSONDecoder().scan_once
    for lineno, text in lines:
        if not text.strip():
            continue
        value = text.strip(_JSON_SPACE)
        try:
            obj, end = scan(value, 0)
        except (StopIteration, ValueError, RecursionError):  # no value, bad JSON, overlong int, deep nesting
            obj, end = None, -1
        whole = end == len(value) and type(obj) is dict
        if not (whole and allowed.issuperset(obj) and obj.keys() >= required):
            obj = read_object(text, f"{path}:{lineno}", allowed, required)
        yield lineno, obj


def read_exact(fh: BinaryIO, size: int, path: str | Path, what: str) -> bytes:
    """Read ``size`` bytes, or raise ``path: truncated what`` before allocating
    anything when the file holds fewer (a header can claim any size)."""
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValidationError(f"{path}: truncated {what}")
    return fh.read(size)


def write_file(path: str | Path, data: bytes) -> None:
    """Replace ``path`` (a symlink itself, not its target) with ``data`` via a
    temp file beside it and a rename: readers see the old or the new file,
    never a part.  No fsync: atomic visibility, not power-loss durability.
    A directory is rejected before the temp file exists."""
    path = Path(path)
    if path.is_dir() and not path.is_symlink():
        raise ValidationError(f"{path}: is a directory")
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    fh = open(tmp, "xb")  # outside the try: a temp file this call did not create stays
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class LabelKind(enum.Enum):
    SEED = "seed"
    VERB = "verb"
    NOUN = "noun"
    VERB_NOUN = "verbnoun"


def _hashtag(tag: object, owner: str, name: str) -> str:
    """The one hashtag rule, for videos and labels: a string, returned
    lowercased, not empty and holding no ``#`` or whitespace."""
    if not isinstance(tag, str):
        raise ValidationError(f"{owner} {name!r}: hashtags must be strings")
    lower = tag.lower()
    # split() != [lower]: empty, or contains a character str.isspace() accepts
    if "#" in lower or lower.split() != [lower]:
        raise ValidationError(f"{owner} {name!r}: bad hashtag {lower!r}")
    return lower


def _hashtag_set(tags: object, owner: str, name: str) -> frozenset[str]:
    """A list of hashtags, each checked by :func:`_hashtag` in list order, so
    an error names the first bad one."""
    if isinstance(tags, (str, dict)):
        raise ValidationError(f"{owner} {name!r}: hashtags must be a list of strings")
    try:
        return frozenset([_hashtag(tag, owner, name) for tag in tags])
    except TypeError:  # tags that are not iterable
        raise ValidationError(f"{owner} {name!r}: hashtags must be strings") from None


def _video_fields(
    video_id: object, duration_s: object, frame_rate: object, source_uri: object
) -> tuple[float, float]:
    """The one rule for a video's fields but its hashtags (:func:`_hashtag`'s),
    for ``VideoRecord`` and :func:`load_corpus`: a non-empty string id,
    ``duration_s`` and ``frame_rate`` finite numbers > 0 by :func:`_real`, a
    null or string ``source_uri``.  Returns the two numbers as floats."""
    if not isinstance(video_id, str) or not video_id:
        raise ValidationError("video id must be a non-empty string")
    duration = duration_s if type(duration_s) is float else _real(duration_s)  # _real's fast path, inline
    rate = frame_rate if type(frame_rate) is float else _real(frame_rate)
    if not 0 < duration < math.inf:
        raise ValidationError(f"video {video_id!r}: duration_s must be finite and > 0, got {_shown(duration_s)}")
    if not 0 < rate < math.inf:
        raise ValidationError(f"video {video_id!r}: frame_rate must be finite and > 0, got {_shown(frame_rate)}")
    if source_uri is not None and not isinstance(source_uri, str):
        raise ValidationError(f"video {video_id!r}: source_uri must be a string")
    return duration, rate


@dataclass(frozen=True, slots=True)
class VideoRecord:
    """One corpus video with its weak supervision (hashtags)."""

    id: str
    duration_s: float
    hashtags: frozenset[str]
    frame_rate: float = 16.0
    source_uri: str | None = None

    def __post_init__(self) -> None:
        duration, rate = _video_fields(self.id, self.duration_s, self.frame_rate, self.source_uri)
        object.__setattr__(self, "duration_s", duration)
        object.__setattr__(self, "frame_rate", rate)
        object.__setattr__(self, "hashtags", _hashtag_set(self.hashtags, "video", self.id))


@dataclass(frozen=True)
class LabelSpace:
    """Mapping from labels to their relevant-hashtag sets."""

    name: str
    kind: LabelKind
    entries: Mapping[str, frozenset[str]]
    min_count: int = 50

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_count", check_count(self.min_count, "min_count"))
        frozen = {}
        for label, tags in self.entries.items():
            tagset = _hashtag_set(tags, "label", label)
            if not tagset:
                raise ValidationError(f"label {label!r} has no hashtags")
            frozen[label] = tagset
        object.__setattr__(self, "entries", frozen)


def label_histogram(corpus: list[VideoRecord], space: LabelSpace) -> dict[str, int]:
    """Matched videos per label over a corpus, in label-space order.

    A video whose hashtags intersect several labels' sets contributes one
    count to each of them.
    """
    if not corpus:
        raise ValidationError("corpus is empty")
    tally = Counter(chain.from_iterable(matches_by_video(corpus, space).values()))
    return {label: tally[label] for label in space.entries}


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


def assign_labels(matched_of: Mapping[str, list[str]], seed: int) -> dict[str, str]:
    """Collapse each video's sorted matched labels to one, uniformly at random.

    A video's label is ``matched[make_rng(seed, "assign", video_id).integers(n)]``
    with ``n = len(matched)``: a pure function of (video id, seed), so a corpus
    can be assigned in any order or in parallel.  The draws of all videos are
    made in one batch (:func:`first_integers`).  A single match is taken
    without a draw: ``integers(1)`` is always 0.
    """
    multi = [video_id for video_id, matched in matched_of.items() if len(matched) > 1]
    picks = first_integers(
        seed, [("assign", video_id) for video_id in multi], [len(matched_of[v]) for v in multi]
    )
    labels = {video_id: matched[0] for video_id, matched in matched_of.items()}
    for video_id, pick in zip(multi, picks):
        labels[video_id] = matched_of[video_id][pick]
    return labels


def assigned_pools(
    corpus: list[VideoRecord], space: LabelSpace, seed: int
) -> dict[str, list[VideoRecord]]:
    """Videos grouped by their assigned label; each list sorted by id.

    Videos matching no label are skipped.
    """
    label_of = assign_labels(matches_by_video(corpus, space), seed)
    pools: dict[str, list[VideoRecord]] = {}
    for video in corpus:
        label = label_of.get(video.id)
        if label is not None:
            pools.setdefault(label, []).append(video)
    for videos in pools.values():
        videos.sort(key=lambda v: v.id)
    return pools


# ---------------------------------------------------------------------------
# Corpus persistence: JSONL, one VideoRecord per line.

_CORPUS_FIELDS = frozenset({"id", "duration_s", "hashtags", "frame_rate", "source_uri"})
_CORPUS_REQUIRED = frozenset({"id", "duration_s"})


# the slot setters, which a frozen VideoRecord's __setattr__ would refuse
_set_id, _set_duration, _set_hashtags, _set_frame_rate, _set_uri = (
    VideoRecord.__dict__[name].__set__ for name in ("id", "duration_s", "hashtags", "frame_rate", "source_uri")
)


def load_corpus(path: str | Path) -> list[VideoRecord]:
    """Read a corpus JSONL file; duplicate ids are rejected.

    Each line's raw JSON values go through the checks ``VideoRecord`` makes
    (:func:`_video_fields`, :func:`_hashtag`); an error names
    ``path:line``.  The record is then built through the slot setters, not
    ``__init__``, which would check it again.  Each distinct raw hashtag is
    checked and lowercased once per load, so records with equal raw tags
    share one string for each."""
    records: list[VideoRecord] = []
    seen: set[str] = set()
    checked: dict[str, str] = {}
    lines = ((lineno, line.strip()) for lineno, line in read_lines(path))
    for lineno, obj in read_jsonl(path, lines, _CORPUS_FIELDS, _CORPUS_REQUIRED):
        video_id, tags, uri = obj["id"], obj.get("hashtags", ()), obj.get("source_uri")
        try:
            duration, frame_rate = _video_fields(video_id, obj["duration_s"], obj.get("frame_rate", 16.0), uri)
            if type(tags) is not list:  # the default (), or a JSON value this rejects
                _hashtag_set(tags, "video", video_id)
            for tag in tags:
                if type(tag) is not str or tag not in checked:  # before the lookup: a list tag is unhashable
                    checked[tag] = _hashtag(tag, "video", video_id)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if video_id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate video id {video_id!r}")
        seen.add(video_id)
        rec = object.__new__(VideoRecord)
        _set_id(rec, video_id)
        _set_duration(rec, duration)
        _set_hashtags(rec, frozenset([checked[tag] for tag in tags]))
        _set_frame_rate(rec, frame_rate)
        _set_uri(rec, uri)
        records.append(rec)
    return records


def save_corpus(corpus: Iterable[VideoRecord], path: str | Path) -> None:
    objs = (
        {
            "id": rec.id,
            "duration_s": rec.duration_s,
            "hashtags": sorted(rec.hashtags),
            "frame_rate": rec.frame_rate,
            "source_uri": rec.source_uri,
        }
        for rec in corpus
    )
    write_file(path, "".join(json.dumps(o, sort_keys=True) + "\n" for o in objs).encode("utf-8"))


# ---------------------------------------------------------------------------
# Label-space persistence: one JSON object with sorted keys.

_SPACE_FIELDS = frozenset({"name", "kind", "min_count", "entries"})


def save_label_space(space: LabelSpace, path: str | Path) -> None:
    obj = {
        "name": space.name,
        "kind": space.kind.value,
        "min_count": space.min_count,
        "entries": {label: sorted(tags) for label, tags in space.entries.items()},
    }
    write_file(path, (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8"))


def load_label_space(path: str | Path) -> LabelSpace:
    obj = read_object(read_json(path), str(path), _SPACE_FIELDS, _SPACE_FIELDS)
    if not isinstance(obj["entries"], dict):
        raise ValidationError(f"{path}: entries must be a JSON object, got {obj['entries']!r}")
    if not isinstance(obj["name"], str):
        raise ValidationError(f"{path}: name must be a string, got {obj['name']!r}")
    try:
        return LabelSpace(
            name=obj["name"],
            kind=LabelKind(obj["kind"]),
            entries=obj["entries"],
            min_count=obj["min_count"],
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc
