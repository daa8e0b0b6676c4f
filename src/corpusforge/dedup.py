"""Near-duplicate detection: LSH frame matching and overlap reports.

Frames are matched by cosine similarity of their census signatures.  A
random-hyperplane LSH index (16 bands of 8 sign bits each) prunes the
candidate set; candidates are then verified with the exact cosine.  The
overlap of a source video against a target is the percentage of source
frames with at least one matching target frame, and sources whose overlap
reaches the flag threshold against any target are excluded -- a deliberately
low-precision, high-recall rule.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ._lazy import np
from .census import SIGNATURE_DIM, SignatureSequence, cosine
from .records import ValidationError, check_real, write_file
from .rng import make_rng

BANDS = 16
BITS = 8
DEFAULT_TAU = 0.9
DEFAULT_THRESHOLD_PCT = 20.0


class LshIndex:
    """Random-hyperplane LSH over 64-dim signatures.

    Each of the BANDS bands hashes a vector to BITS sign bits (dot products
    with random unit hyperplanes), packed into one uint8 key.  The index keeps
    one row per stored frame: its signature in an (n, 64) float64 array, the
    signature's norm in an (n,) one, and its band keys in an (n, BANDS) uint8
    one.  Similar vectors share a band key with probability
    (1 - theta/pi)^BITS per band; the candidates of a query are the rows
    sharing at least one key.

    Build is single-writer.  The first query after an insert stacks the new
    rows; after it returns, queries are read-only and safe to run
    concurrently.
    """

    def __init__(self, seed: int = 0) -> None:
        rng = make_rng(seed, "lsh-planes")  # checks the seed
        planes = rng.standard_normal((BANDS * BITS, SIGNATURE_DIM))
        planes /= np.linalg.norm(planes, axis=1, keepdims=True)
        self.planes = planes.reshape(BANDS, BITS, SIGNATURE_DIM)
        self._entries: list[tuple[str, int]] = []
        self._vectors = np.empty((0, SIGNATURE_DIM), dtype=np.float64)
        self._norms = np.empty(0, dtype=np.float64)  # of the rows of _vectors, for cosine
        self._keys = np.empty((0, BANDS), dtype=np.uint8)
        # blocks inserted since the last query; stacked once by _stack(), so
        # that n inserts cost one copy of the index, not n
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []

    def _band_keys(self, vectors: np.ndarray) -> np.ndarray:
        """(n, BANDS) uint8 keys of the rows of an (n, 64) array: bit i of a
        band's key is the sign bit of the band's i-th hyperplane."""
        bits = (vectors @ self.planes.reshape(-1, SIGNATURE_DIM).T) > 0.0
        # BITS == 8: each run of 8 sign bits packs into exactly one band's byte
        return np.packbits(bits, axis=-1, bitorder="little")

    def keys(self, vector: np.ndarray) -> np.ndarray:
        """The BANDS uint8 band keys of a vector."""
        v = np.asarray(vector, dtype=np.float64)
        return self._band_keys(v[None, :])[0]

    def insert(self, sig: SignatureSequence) -> None:
        """Index every frame of a signature sequence."""
        self._entries.extend((sig.video_id, frame_idx) for frame_idx in range(len(sig)))
        self._pending.append((sig.frames, self._band_keys(sig.frames)))

    def _stack(self) -> None:
        """Append the blocks inserted since the last query to the stacked rows,
        in insert order, with one concatenation each for vectors and keys, and
        recompute the rows' norms."""
        if self._pending:
            vectors, keys = zip(*self._pending)
            self._vectors = np.concatenate((self._vectors, *vectors))
            self._keys = np.concatenate((self._keys, *keys))
            self._norms = np.sqrt(np.vecdot(self._vectors, self._vectors))
            self._pending = []

    def __len__(self) -> int:
        return len(self._entries)

    def candidates(self, vector: np.ndarray) -> np.ndarray:
        """Ascending int64 indices of the entries sharing at least one band key
        with the vector."""
        self._stack()
        # BANDS == 16 one-byte keys: a row's equality mask is 16 bytes, read as
        # two uint64 words, and the row shares a key exactly when either is nonzero
        same = (self._keys == self.keys(vector)).view(np.uint64)
        return np.flatnonzero(same[:, 0] | same[:, 1])

    def match(self, vector: np.ndarray, tau: float = DEFAULT_TAU) -> list[tuple[str, int]]:
        """Candidates verified by exact cosine >= tau, with one cosine for all
        and the candidates' norms from the index."""
        check_real(tau, "tau", -1.0, 1.0)
        found = self.candidates(vector)  # stacks pending inserts into _vectors
        sims = cosine(vector, self._vectors.take(found, axis=0), norms=self._norms.take(found))
        return [self._entries[i] for i in found[sims >= tau].tolist()]


def build_index(targets: Iterable[SignatureSequence], seed: int = 0) -> LshIndex:
    index = LshIndex(seed=seed)
    for sig in targets:
        index.insert(sig)
    return index


def overlap(
    source: SignatureSequence, index: LshIndex, tau: float = DEFAULT_TAU
) -> list[tuple[str, float]]:
    """Per-target overlap: % of source frames with >= 1 match in the target; match checks tau."""
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
    sources: list[str]  # every source measured, in order
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
    sources: Iterable[SignatureSequence],
    targets: Iterable[SignatureSequence],
    tau: float = DEFAULT_TAU,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    seed: int = 0,
) -> OverlapReport:
    """Measure every source against an LSH index of all targets, with
    hyperplanes seeded by ``seed``.  No iterable is read before the checks
    pass; then each target and each source is read once, in that order."""
    tau = check_real(tau, "tau", -1.0, 1.0)
    threshold_pct = check_real(threshold_pct, "threshold_pct", 0.0, 100.0)
    index = build_index(targets, seed=seed)
    pairs, source_ids = [], []
    for source in sources:  # a source's signatures are dropped once measured
        source_ids.append(source.video_id)
        pairs += [(source.video_id, target, pct) for target, pct in overlap(source, index, tau)]
    return OverlapReport(
        pairs=pairs,
        sources=source_ids,
        threshold_pct=threshold_pct,
        params={
            "tau": tau,
            "threshold_pct": threshold_pct,
            "bands": float(BANDS),
            "bits": float(BITS),
            "seed": float(seed),
        },
    )


def save_report(report: OverlapReport, out_dir: str | Path) -> None:
    """Write pairs JSONL, a summary JSON with params and flag count, and the
    ids of the sources that survive (flagged ones excluded), in source order."""
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
    flagged = report.flagged_sources()
    doc = {
        "params": report.params,
        "num_pairs": len(report.pairs),
        "num_flagged_pairs": len(report.flagged),
        "flagged_sources": sorted(flagged),
    }
    write_file(out / "summary.json", (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode())
    kept = [sid for sid in report.sources if sid not in flagged]
    write_file(out / "kept_sources.txt", ("\n".join(kept) + "\n").encode("utf-8"))
