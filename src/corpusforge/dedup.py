"""Near-duplicate detection: LSH frame matching and overlap reports.

Frames are matched by cosine similarity of their census signatures.  A
random-hyperplane LSH index (b bands of r sign bits each) prunes the
candidate set; candidates are then verified with the exact cosine.  The
overlap of a source video against a target is the percentage of source
frames with at least one matching target frame, and sources whose overlap
reaches the flag threshold against any target are excluded -- a deliberately
low-precision, high-recall rule.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ._lazy import np
from .census import SIGNATURE_DIM, SignatureSequence, cosine
from .records import ValidationError, write_file
from .rng import make_rng

DEFAULT_BANDS = 16
DEFAULT_BITS = 8
DEFAULT_TAU = 0.9
DEFAULT_THRESHOLD_PCT = 20.0


class LshIndex:
    """Random-hyperplane LSH over 64-dim signatures.

    Each band hashes a vector to r sign bits (dot product against r random
    unit hyperplanes).  The index keeps one row per stored frame: its
    signature in an (n, dim) array and its b band keys in an (n, b) array.
    Similar vectors share a band key with probability (1 - theta/pi)^r per
    band; the candidates of a query are the rows sharing at least one key.

    Build is single-writer.  The first query after an insert stacks the new
    rows; after it returns, queries are read-only and safe to run
    concurrently.
    """

    def __init__(
        self,
        bands: int = DEFAULT_BANDS,
        bits: int = DEFAULT_BITS,
        seed: int = 0,
        dim: int = SIGNATURE_DIM,
    ) -> None:
        if bands < 1 or bits < 1:
            raise ValidationError("bands and bits must be >= 1")
        self.bands = bands
        self.bits = bits
        self.dim = dim
        rng = make_rng(seed, "lsh-planes")
        planes = rng.standard_normal((bands * bits, dim))
        planes /= np.linalg.norm(planes, axis=1, keepdims=True)
        self.planes = planes.reshape(bands, bits, dim)
        self._entries: list[tuple[str, int]] = []
        self._vectors = np.empty((0, dim), dtype=np.float64)
        self._keys = np.empty((0, bands), dtype=np.int64)
        # blocks inserted since the last query; stacked once by _stack(), so
        # that n inserts cost one copy of the index, not n
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []

    def _band_keys(self, vectors: np.ndarray) -> np.ndarray:
        """(n, bands) r-bit keys of the rows of an (n, dim) array."""
        bits = (vectors @ self.planes.reshape(-1, self.dim).T) > 0.0
        weights = 1 << np.arange(self.bits, dtype=np.int64)
        return bits.reshape(len(vectors), self.bands, self.bits) @ weights

    def keys(self, vector: np.ndarray) -> np.ndarray:
        """The b band keys of a vector (r-bit integers)."""
        v = np.asarray(vector, dtype=np.float64)
        return self._band_keys(v[None, :])[0]

    def insert(self, sig: SignatureSequence) -> None:
        """Index every frame of a signature sequence."""
        self._entries.extend((sig.video_id, frame_idx) for frame_idx in range(len(sig)))
        self._pending.append((sig.frames, self._band_keys(sig.frames)))

    def _stack(self) -> None:
        if self._pending:
            vectors, keys = zip(*self._pending)
            self._vectors = np.concatenate((self._vectors, *vectors))
            self._keys = np.concatenate((self._keys, *keys))
            self._pending = []

    def __len__(self) -> int:
        return len(self._entries)

    def candidates(self, vector: np.ndarray) -> list[int]:
        """Entries sharing at least one band key with the vector, in index order."""
        self._stack()
        return np.flatnonzero((self._keys == self.keys(vector)).any(axis=1)).tolist()

    def match(self, vector: np.ndarray, tau: float = DEFAULT_TAU) -> list[tuple[str, int]]:
        """Candidates verified by exact cosine >= tau, with one cosine for all."""
        found = self.candidates(vector)  # stacks pending inserts into _vectors
        sims = cosine(vector, self._vectors[found])
        return [self._entries[found[i]] for i in np.flatnonzero(sims >= tau)]


def build_index(
    targets: Iterable[SignatureSequence],
    bands: int = DEFAULT_BANDS,
    bits: int = DEFAULT_BITS,
    seed: int = 0,
) -> LshIndex:
    index = LshIndex(bands=bands, bits=bits, seed=seed)
    for sig in targets:
        index.insert(sig)
    return index


def overlap(
    source: SignatureSequence, index: LshIndex, tau: float = DEFAULT_TAU
) -> list[tuple[str, float]]:
    """Per-target overlap: % of source frames with >= 1 match in the target."""
    if len(source) == 0:
        raise ValidationError(f"source {source.video_id!r} has no frames")
    matched_frames: dict[str, set[int]] = {}
    for frame_idx in range(len(source)):
        for target_id, _tframe in index.match(source.frames[frame_idx], tau):
            matched_frames.setdefault(target_id, set()).add(frame_idx)
    return sorted(
        (target_id, 100.0 * len(frames) / len(source))
        for target_id, frames in matched_frames.items()
    )


@dataclass
class OverlapReport:
    pairs: list[tuple[str, str, float]]  # (source_id, target_id, overlap_pct)
    threshold_pct: float = DEFAULT_THRESHOLD_PCT
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for source_id, target_id, pct in self.pairs:
            if not 0.0 <= pct <= 100.0:
                raise ValidationError(
                    f"overlap {pct} out of [0, 100] for ({source_id}, {target_id})"
                )

    @property
    def flagged(self) -> list[tuple[str, str, float]]:
        return [p for p in self.pairs if p[2] >= self.threshold_pct]

    def flagged_sources(self) -> set[str]:
        return {source_id for source_id, _t, _p in self.flagged}


def dedup_report(
    sources: Sequence[SignatureSequence],
    targets: Sequence[SignatureSequence],
    tau: float = DEFAULT_TAU,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    bands: int = DEFAULT_BANDS,
    bits: int = DEFAULT_BITS,
    seed: int = 0,
) -> OverlapReport:
    """Measure every source against an index of all targets."""
    for name, value in (("tau", tau), ("threshold_pct", threshold_pct)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    index = build_index(targets, bands=bands, bits=bits, seed=seed)
    pairs: list[tuple[str, str, float]] = []
    for source in sources:
        for target_id, pct in overlap(source, index, tau):
            if pct > 0.0:
                pairs.append((source.video_id, target_id, pct))
    return OverlapReport(
        pairs=pairs,
        threshold_pct=threshold_pct,
        params={
            "tau": tau,
            "threshold_pct": threshold_pct,
            "bands": float(bands),
            "bits": float(bits),
            "seed": float(seed),
        },
    )


def filter_flagged(
    source_ids: Iterable[str], report: OverlapReport
) -> list[str]:
    """Source ids that survive deduplication (flagged ones excluded)."""
    flagged = report.flagged_sources()
    return [sid for sid in source_ids if sid not in flagged]


def save_report(report: OverlapReport, out_dir: str | Path) -> None:
    """Write pairs JSONL plus a summary JSON with params and flag count."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pairs = (
        json.dumps(
            {"source_id": source_id, "target_id": target_id, "overlap_pct": round(pct, 6)},
            sort_keys=True,
        )
        + "\n"
        for source_id, target_id, pct in report.pairs
    )
    write_file(out / "overlap_pairs.jsonl", "".join(pairs).encode("utf-8"))
    doc = {
        "params": report.params,
        "num_pairs": len(report.pairs),
        "num_flagged_pairs": len(report.flagged),
        "flagged_sources": sorted(report.flagged_sources()),
    }
    write_file(out / "summary.json", (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode())
