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
from pathlib import Path
from typing import Sequence

from .records import ValidationError, VideoRecord, _reject_non_utf8

FORMAT_TAG = "corpusforge-manifest-v1"

_ROW_FIELDS = {"video_id", "label", "clip_start_s", "clip_len_s"}


def _q(x: float) -> float:
    # 6-decimal quantization; normalizes -0.0 so formatting is stable
    v = round(float(x), 6)
    return 0.0 if v == 0.0 else v


@dataclass(frozen=True)
class ManifestRow:
    video_id: str
    label: str
    clip_start_s: float
    clip_len_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "clip_start_s", _q(self.clip_start_s))
        object.__setattr__(self, "clip_len_s", _q(self.clip_len_s))
        if not (math.isfinite(self.clip_start_s) and math.isfinite(self.clip_len_s)):
            raise ValidationError(
                f"row for video {self.video_id!r}: clip times must be finite"
            )
        if self.clip_start_s < 0:
            raise ValidationError(
                f"row for video {self.video_id!r}: clip_start_s < 0"
            )
        if self.clip_len_s <= 0:
            raise ValidationError(
                f"row for video {self.video_id!r}: clip_len_s must be > 0"
            )


@dataclass
class DatasetManifest:
    rows: list[ManifestRow] = field(default_factory=list)
    provenance: dict[str, str] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in u64")
        seen: set[tuple[str, float]] = set()
        for row in self.rows:
            key = (row.video_id, row.clip_start_s)
            if key in seen:
                raise ValidationError(
                    f"duplicate row (video {row.video_id!r}, start {row.clip_start_s})"
                )
            seen.add(key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatasetManifest):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.provenance == other.provenance
            and self.seed == other.seed
        )

    def validate_against(self, corpus: Sequence[VideoRecord]) -> None:
        """Check that every row fits inside its referenced video."""
        by_id = {v.id: v for v in corpus}
        for row in self.rows:
            video = by_id.get(row.video_id)
            if video is None:
                raise ValidationError(f"row references unknown video {row.video_id!r}")
            if row.clip_start_s + row.clip_len_s > video.duration_s + 1e-9:
                raise ValidationError(
                    f"row for video {row.video_id!r}: clip "
                    f"[{row.clip_start_s}, {row.clip_start_s + row.clip_len_s}] "
                    f"exceeds duration {video.duration_s}"
                )


def _header_line(m: DatasetManifest) -> str:
    prov = json.dumps(m.provenance, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return '{"format":%s,"seed":%d,"provenance":%s}' % (
        json.dumps(FORMAT_TAG),
        m.seed,
        prov,
    )


def _row_line(row: ManifestRow) -> str:
    return '{"video_id":%s,"label":%s,"clip_start_s":%.6f,"clip_len_s":%.6f}' % (
        json.dumps(row.video_id, ensure_ascii=False),
        json.dumps(row.label, ensure_ascii=False),
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
    data = manifest_bytes(m)
    with open(path, "wb") as fh:
        fh.write(data)


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse a manifest file; unknown fields and malformed rows are rejected."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    if not text:
        raise ValidationError(f"{path}:1: empty file, expected a manifest header")
    if not text.isascii():
        _reject_non_utf8(path, text)
    # not splitlines(): it also breaks at U+0085, U+2028 and U+2029, which
    # _row_line and _header_line leave unescaped inside JSON strings
    lines = text.split("\n")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:1: bad JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ValidationError(f"{path}:1: header must be a JSON object")
    if header.get("format") != FORMAT_TAG:
        raise ValidationError(f"{path}:1: unsupported format {header.get('format')!r}")
    unknown = set(header) - {"format", "seed", "provenance"}
    if unknown:
        raise ValidationError(f"{path}:1: unknown header fields {sorted(unknown)}")
    seed = header.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ValidationError(f"{path}:1: seed must be an integer in [0, 2**64), got {seed!r}")
    provenance = header.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ValidationError(f"{path}:1: provenance must be a JSON object")
    rows: list[ManifestRow] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{lineno}: bad JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValidationError(f"{path}:{lineno}: expected a JSON object")
        unknown = set(obj) - _ROW_FIELDS
        if unknown:
            raise ValidationError(f"{path}:{lineno}: unknown fields {sorted(unknown)}")
        missing = _ROW_FIELDS - set(obj)
        if missing:
            raise ValidationError(f"{path}:{lineno}: missing fields {sorted(missing)}")
        try:
            rows.append(
                ManifestRow(
                    video_id=obj["video_id"],
                    label=obj["label"],
                    clip_start_s=float(obj["clip_start_s"]),
                    clip_len_s=float(obj["clip_len_s"]),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return DatasetManifest(rows=rows, provenance=provenance, seed=seed)
