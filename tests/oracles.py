"""Independent brute-force reference implementations.

Everything here is written as plain loops, separate from the library code
paths it checks.  Slow on purpose.
"""
from __future__ import annotations

import numpy as np

CENSUS_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1)]


def census_codes_oracle(frame: np.ndarray) -> np.ndarray:
    """Per-pixel 8-bit census codes of all interior pixels (pixel loop)."""
    frame = np.asarray(frame, dtype=np.float64)
    h, w = frame.shape
    codes = np.zeros((h - 2, w - 2), dtype=np.int64)
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            code = 0
            for bit, (dy, dx) in enumerate(CENSUS_OFFSETS):
                if frame[y + dy, x + dx] > frame[y, x]:
                    code |= 1 << bit
            codes[y - 1, x - 1] = code
    return codes


def census_signature_oracle(frame: np.ndarray) -> np.ndarray:
    codes = census_codes_oracle(frame)
    hist = np.zeros(64, dtype=np.float64)
    for code in codes.ravel():
        hist[code // 4] += 1.0
    return hist / hist.sum()


def conv2d_oracle(
    x: np.ndarray,
    w: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    same_pad: bool = False,
) -> np.ndarray:
    """Naive quadruple-loop 2D cross-correlation."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    o, c, kh, kw = w.shape
    if same_pad:
        pt, pl = (kh - 1) // 2, (kw - 1) // 2
        pb, pr = kh - 1 - pt, kw - 1 - pl
        x = np.pad(x, ((0, 0), (pt, pb), (pl, pr)))
    hh = (x.shape[1] - kh) // stride + 1
    ww = (x.shape[2] - kw) // stride + 1
    out = np.zeros((o, hh, ww))
    for oc in range(o):
        for i in range(hh):
            for j in range(ww):
                acc = 0.0
                for ic in range(c):
                    for a in range(kh):
                        for b in range(kw):
                            acc += x[ic, i * stride + a, j * stride + b] * w[oc, ic, a, b]
                out[oc, i, j] = acc + (bias[oc] if bias is not None else 0.0)
    return out


def conv3d_oracle(
    x: np.ndarray,
    w: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    same_pad: bool = False,
    time_same_pad: bool | None = None,
) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    o, c, kt, kh, kw = w.shape
    if time_same_pad is None:
        time_same_pad = same_pad
    pads = [(0, 0)]
    for k, flag in ((kt, time_same_pad), (kh, same_pad), (kw, same_pad)):
        if flag:
            left = (k - 1) // 2
            pads.append((left, k - 1 - left))
        else:
            pads.append((0, 0))
    x = np.pad(x, pads)
    tt = x.shape[1] - kt + 1
    hh = (x.shape[2] - kh) // stride + 1
    ww = (x.shape[3] - kw) // stride + 1
    out = np.zeros((o, tt, hh, ww))
    for oc in range(o):
        for t in range(tt):
            for i in range(hh):
                for j in range(ww):
                    acc = 0.0
                    for ic in range(c):
                        for u in range(kt):
                            for a in range(kh):
                                for b in range(kw):
                                    acc += (
                                        x[ic, t + u, i * stride + a, j * stride + b]
                                        * w[oc, ic, u, a, b]
                                    )
                    out[oc, t, i, j] = acc + (bias[oc] if bias is not None else 0.0)
    return out


def topk_accuracy_oracle(scores: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Explicit per-row ranking with index tie-break."""
    hits = 0
    for row, label in zip(scores, labels):
        ranked = sorted(range(len(row)), key=lambda c: (-row[c], c))
        if label in ranked[:k]:
            hits += 1
    return hits / len(labels)


def average_precision_oracle(scores: np.ndarray, truth: np.ndarray) -> float | None:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    num_pos = sum(1 for t in truth if t > 0)
    if num_pos == 0:
        return None
    hits = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if truth[idx] > 0:
            hits += 1
            total += hits / rank
    return total / num_pos


def map_oracle(scores: np.ndarray, truth: np.ndarray) -> float:
    aps = []
    for label in range(scores.shape[1]):
        ap = average_precision_oracle(scores[:, label], truth[:, label])
        if ap is not None:
            aps.append(ap)
    return float(np.mean(aps))


def cosine_oracle(u: np.ndarray, v: np.ndarray) -> float:
    num = sum(a * b for a, b in zip(u, v))
    nu = sum(a * a for a in u) ** 0.5
    nv = sum(b * b for b in v) ** 0.5
    if nu == 0 or nv == 0:
        return 0.0
    return num / (nu * nv)


def exhaustive_matches(
    query: np.ndarray, stored: list[tuple[str, int, np.ndarray]], tau: float
) -> set[tuple[str, int]]:
    """All stored (video, frame) entries with cosine >= tau to the query."""
    out = set()
    for video_id, frame_idx, vector in stored:
        if cosine_oracle(query, vector) >= tau:
            out.add((video_id, frame_idx))
    return out


def fd_gradient(loss_fn, params: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    grad = np.zeros_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] += eps
        up = loss_fn(bumped)
        bumped[i] -= 2 * eps
        down = loss_fn(bumped)
        grad[i] = (up - down) / (2 * eps)
    return grad


def load_corpus_per_line(path):
    """``records.load_corpus`` as a per-line loop: one ``read_object`` (one
    ``json.loads``) per stripped, non-blank line."""
    from corpusforge.records import ValidationError, VideoRecord, read_lines, read_object

    fields = frozenset({"id", "duration_s", "hashtags", "frame_rate", "source_uri"})
    records, seen = [], set()
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        obj = read_object(line, f"{path}:{lineno}", fields, frozenset({"id", "duration_s"}))
        try:
            rec = VideoRecord(
                id=obj["id"],
                duration_s=obj["duration_s"],
                hashtags=obj.get("hashtags", ()),
                frame_rate=obj.get("frame_rate", 16.0),
                source_uri=obj.get("source_uri"),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if rec.id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate video id {rec.id!r}")
        seen.add(rec.id)
        records.append(rec)
    return records


def load_manifest_per_line(path):
    """``manifest.load_manifest`` as a per-line loop: one ``read_object`` per
    non-blank row line, as it comes (not stripped)."""
    from corpusforge.manifest import FORMAT_TAG, DatasetManifest, ManifestRow
    from corpusforge.records import ValidationError, read_lines, read_object
    from corpusforge.rng import check_seed

    lines = read_lines(path)
    _lineno, first = next(lines, (1, None))
    if first is None:
        raise ValidationError(f"{path}:1: empty file, expected a manifest header")
    header = read_object(first, f"{path}:1", frozenset({"format", "seed", "provenance"}), frozenset({"format"}))
    if header["format"] != FORMAT_TAG:
        raise ValidationError(f"{path}:1: unsupported format {header['format']!r}")
    seed = header.get("seed", 0)
    check_seed(seed, f"{path}:1: ")
    provenance = header.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ValidationError(f"{path}:1: provenance must be a JSON object")
    fields = frozenset({"video_id", "label", "clip_start_s", "clip_len_s"})
    rows, linenos = [], []
    for lineno, line in lines:
        if not line.strip():
            continue
        linenos.append(lineno)
        obj = read_object(line, f"{path}:{lineno}", fields, fields)
        try:
            rows.append(
                ManifestRow(
                    video_id=obj["video_id"],
                    label=obj["label"],
                    clip_start_s=obj["clip_start_s"],
                    clip_len_s=obj["clip_len_s"],
                )
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    seen = set()  # duplicates are checked once every row has parsed
    for i, row in enumerate(rows):
        if (row.video_id, row.clip_start_s) in seen:
            raise ValidationError(
                f"{path}:{linenos[i]}: duplicate row (video {row.video_id!r}, start {row.clip_start_s})"
            )
        seen.add((row.video_id, row.clip_start_s))
    return DatasetManifest(rows=rows, provenance=provenance, seed=seed)
