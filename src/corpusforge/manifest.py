"""Dataset manifests: the unit of persistence between pipeline stages.

File format (UTF-8 JSONL):
  line 1   {"format":"corpusforge-manifest-v1","seed":<u64>,"provenance":{...}}
  line 2.. {"video_id":str,"label":str,"clip_start_s":float,"clip_len_s":float}

Serialization is byte-deterministic: fields in the order above, floats in
fixed notation with 6 decimal places.  Clip times are quantized to the same
6 decimal places at construction so that save -> load is lossless.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Sequence

from .records import ValidationError, VideoRecord, _real, _shown, read_jsonl, read_lines, read_object, write_file
from .rng import check_seed

FORMAT_TAG = "corpusforge-manifest-v1"

_HEADER_FIELDS = frozenset({"format", "seed", "provenance"})
_ROW_FIELDS = frozenset({"video_id", "label", "clip_start_s", "clip_len_s"})
_ROUNDING_SLACK = 2 * 0.5e-6 + 1e-9  # each of a row's two times rounds by up to 0.5e-6


def _q(x: float) -> float:
    # 6-decimal quantization; normalizes -0.0 so formatting is stable
    v = round(x, 6)
    return 0.0 if v == 0.0 else v


@dataclass(frozen=True, slots=True)
class ManifestRow:
    video_id: str
    label: str
    clip_start_s: float
    clip_len_s: float

    def __post_init__(self) -> None:
        if not isinstance(self.video_id, str) or not isinstance(self.label, str):
            raise ValidationError(f"row {_shown(self.video_id)}: video_id and label must be strings")
        # the number rule first, then the quantized times' ranges
        start, length = _q(_real(self.clip_start_s)), _q(_real(self.clip_len_s))
        if not 0 <= start < math.inf:
            raise ValidationError(
                f"row for video {self.video_id!r}: clip_start_s must be finite and >= 0, "
                f"got {_shown(self.clip_start_s)}"
            )
        if not 0 < length < math.inf:
            raise ValidationError(
                f"row for video {self.video_id!r}: clip_len_s must be finite and > 0, got {_shown(self.clip_len_s)}"
            )
        object.__setattr__(self, "clip_start_s", start)
        object.__setattr__(self, "clip_len_s", length)


@dataclass
class DatasetManifest:
    rows: list[ManifestRow] = field(default_factory=list)
    provenance: dict[str, str] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        check_seed(self.seed)
        _check_unique_rows(self.rows, lambda i: "")

    def validate_against(self, corpus: Sequence[VideoRecord]) -> None:
        """Check that every row fits inside its referenced video, up to the
        rounding of its two times to 6 decimals (1e-6 in all, plus 1e-9)."""
        by_id = {v.id: v for v in corpus}
        for row in self.rows:
            video = by_id.get(row.video_id)
            if video is None:
                raise ValidationError(f"row references unknown video {row.video_id!r}")
            if row.clip_start_s + row.clip_len_s > video.duration_s + _ROUNDING_SLACK:
                raise ValidationError(
                    f"row for video {row.video_id!r}: clip "
                    f"[{row.clip_start_s}, {row.clip_start_s + row.clip_len_s}] "
                    f"exceeds duration {video.duration_s}"
                )


def _check_unique_rows(rows: Sequence[ManifestRow], where: Callable[[int], str]) -> None:
    """No two rows share (video_id, clip_start_s); the error names the second
    one, prefixed with ``where(its index)``."""
    seen: set[tuple[str, float]] = set()
    for i, row in enumerate(rows):
        key = (row.video_id, row.clip_start_s)
        if key in seen:
            raise ValidationError(
                f"{where(i)}duplicate row (video {row.video_id!r}, start {row.clip_start_s})"
            )
        seen.add(key)


def _header_line(m: DatasetManifest) -> str:
    prov = json.dumps(m.provenance, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return '{"format":%s,"seed":%d,"provenance":%s}' % (
        json.dumps(FORMAT_TAG),
        m.seed,
        prov,
    )


def _row_line(row: ManifestRow) -> str:
    # encode_basestring(s) is json.dumps(s, ensure_ascii=False) for a str,
    # without building an encoder per call
    return '{"video_id":%s,"label":%s,"clip_start_s":%.6f,"clip_len_s":%.6f}' % (
        encode_basestring(row.video_id),
        encode_basestring(row.label),
        row.clip_start_s,
        row.clip_len_s,
    )


def manifest_bytes(m: DatasetManifest) -> bytes:
    """Canonical byte serialization (identical manifests, identical bytes)."""
    lines = [_header_line(m)]
    lines.extend(_row_line(row) for row in m.rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def save_manifest(
    m: DatasetManifest,
    path: str | Path,
    corpus: Sequence[VideoRecord] | None = None,
) -> None:
    """Write the canonical JSONL; validation runs before any bytes hit disk."""
    if corpus is not None:
        m.validate_against(corpus)
    write_file(path, manifest_bytes(m))


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse a manifest file; a header or row that breaks its format is rejected."""
    lines = read_lines(path)
    _lineno, first = next(lines, (1, None))
    if first is None:
        raise ValidationError(f"{path}:1: empty file, expected a manifest header")
    header = read_object(first, f"{path}:1", _HEADER_FIELDS, frozenset({"format"}))
    if header["format"] != FORMAT_TAG:
        raise ValidationError(f"{path}:1: unsupported format {header['format']!r}")
    seed = header.get("seed", 0)
    check_seed(seed, f"{path}:1: ")
    provenance = header.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ValidationError(f"{path}:1: provenance must be a JSON object")
    rows: list[ManifestRow] = []
    linenos: list[int] = []
    for lineno, obj in read_jsonl(path, lines, _ROW_FIELDS, _ROW_FIELDS):
        linenos.append(lineno)
        try:
            rows.append(ManifestRow(obj["video_id"], obj["label"], obj["clip_start_s"], obj["clip_len_s"]))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    _check_unique_rows(rows, lambda i: f"{path}:{linenos[i]}: ")
    return DatasetManifest(rows=rows, provenance=provenance, seed=seed)
