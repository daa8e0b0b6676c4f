from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge import dedup
from corpusforge.census import SignatureSequence, cosine, decode_frames
from corpusforge.dedup import (
    BANDS,
    BITS,
    LshIndex,
    build_index,
    dedup_report,
    overlap,
    save_report,
)
from corpusforge.records import ValidationError
from corpusforge.rng import make_rng
from corpusforge.synth import ramp_video, tile_video

from oracles import exhaustive_matches


def _sig(video_id: str, vectors: np.ndarray) -> SignatureSequence:
    vectors = np.abs(vectors)
    vectors = vectors / vectors.sum(axis=1, keepdims=True)
    return SignatureSequence(video_id=video_id, frames=vectors)


def test_insert_then_query_self():
    rng = np.random.default_rng(0)
    sig = _sig("v", rng.uniform(0.1, 1.0, size=(5, 64)))
    index = LshIndex(seed=1)
    index.insert(sig)
    matches = index.match(sig.frames[2], tau=1.0 - 1e-12)
    assert ("v", 2) in matches


def test_empty_index_no_candidates():
    index = LshIndex(seed=1)
    found = index.candidates(np.ones(64) / 64)
    assert found.dtype == np.int64 and found.tolist() == []
    assert index.match(np.ones(64) / 64) == []


def test_strict_tau_rejects_perturbation():
    rng = np.random.default_rng(3)
    sig = _sig("v", rng.uniform(0.1, 1.0, size=(1, 64)))
    index = LshIndex(seed=1)
    index.insert(sig)
    noisy = sig.frames[0] + 1e-3 * rng.uniform(size=64)
    assert index.match(noisy, tau=1.0) == []


def test_band_collision_probability_for_dissimilar_vectors():
    # per-band key collision for near-orthogonal pairs stays under the
    # analytic (1 - theta/pi)^r bound, far below 5%
    rng = np.random.default_rng(7)
    index = LshIndex(seed=5)
    pairs = []
    while len(pairs) < 1000:
        u = rng.standard_normal(64)
        v = rng.standard_normal(64)
        if abs(cosine(u, v)) < 0.1:
            pairs.append((u, v))
    collisions = 0
    trials = 0
    analytic = 0.0
    for u, v in pairs:
        ku, kv = index.keys(u), index.keys(v)
        collisions += sum(1 for a, b in zip(ku, kv) if a == b)
        trials += BANDS
        theta = math.acos(max(-1.0, min(1.0, cosine(u, v))))
        analytic += (1.0 - theta / math.pi) ** BITS
    rate = collisions / trials
    bound = analytic / len(pairs)
    assert rate <= 0.05
    assert abs(rate - bound) <= 0.01


def test_noisy_copy_matched_at_target_cosine():
    rng = np.random.default_rng(11)
    base = rng.uniform(0.1, 1.0, size=64)
    base /= base.sum()

    def noisy_at(sigma: float) -> np.ndarray:
        local = np.random.default_rng(99)
        v = np.abs(base + sigma * local.standard_normal(64))
        return v / v.sum()

    # binary-search sigma against the exact cosine oracle until cos ~ 0.95
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if cosine(base, noisy_at(mid)) > 0.95:
            lo = mid
        else:
            hi = mid
    noisy = noisy_at(lo)
    assert abs(cosine(base, noisy) - 0.95) < 0.01
    index = LshIndex(seed=2)
    index.insert(_sig("v", base[None, :]))
    assert ("v", 0) in index.match(noisy, tau=0.9)


def test_overlap_self_is_exactly_100():
    video = ramp_video("self", members=list(range(12)))
    sig = decode_frames(video)
    index = build_index([sig])
    result = overlap(sig, index)
    assert result == [("self", 100.0)]


def test_overlap_middle_trim_is_half():
    members = list(range(24))
    source = decode_frames(ramp_video("src", members))
    target = decode_frames(ramp_video("tgt", members[6:18]))
    index = build_index([target])
    result = dict(overlap(source, index))
    assert abs(result["tgt"] - 50.0) <= 100.0 / 24 + 1e-9


def test_overlap_disjoint_content_is_zero():
    source = decode_frames(tile_video("src", list(range(0, 16))))
    target = decode_frames(tile_video("tgt", list(range(1000, 1016))))
    # verify true dissimilarity with the exact oracle first
    worst = max(
        cosine(source.frames[i], target.frames[j])
        for i in range(len(source))
        for j in range(len(target))
    )
    assert worst < 0.9
    index = build_index([target])
    assert overlap(source, index) == []


def test_overlap_monotone_in_tau():
    members = list(range(20))
    source = decode_frames(ramp_video("src", members, side=112))
    target = decode_frames(ramp_video("tgt", members[:10], side=224))
    index = build_index([target])
    high = dict(overlap(source, index, tau=0.95)).get("tgt", 0.0)
    low = dict(overlap(source, index, tau=0.7)).get("tgt", 0.0)
    assert low >= high


def test_lsh_agrees_with_exhaustive_oracle():
    videos = [ramp_video(f"v{i}", [(7 * i + k) % 40 for k in range(24)]) for i in range(8)]
    sigs = [decode_frames(v) for v in videos]
    stored = [
        (s.video_id, k, s.frames[k]) for s in sigs for k in range(len(s))
    ]
    assert len(stored) <= 200
    index = build_index(sigs)
    queries = [decode_frames(ramp_video("q", [(7 * i + 3) % 40 for i in range(8)]))]
    found_total = 0
    truth_total = 0
    for q in queries:
        for k in range(len(q)):
            truth = exhaustive_matches(q.frames[k], stored, tau=0.9)
            got = set(index.match(q.frames[k], tau=0.9))
            assert got <= truth  # exact-cosine filter can never overshoot
            truth_total += len(truth)
            found_total += len(got)
    assert truth_total > 0
    assert found_total / truth_total >= 0.95


def test_dedup_report_no_shared_content():
    sources = [decode_frames(tile_video(f"s{i}", list(range(100 * i, 100 * i + 8)))) for i in range(3)]
    targets = [decode_frames(tile_video(f"t{i}", list(range(5000 + 100 * i, 5008 + 100 * i)))) for i in range(2)]
    report = dedup_report(sources, targets)
    assert report.flagged == []


def test_dedup_report_threshold_zero_flags_any_match():
    members = list(range(16))
    sources = [decode_frames(ramp_video("dup", members[:4]))]
    targets = [decode_frames(ramp_video("orig", members))]
    report = dedup_report(sources, targets, threshold_pct=0.0)
    assert report.flagged_sources() == {"dup"}


def _entry_points(name: str, value: float) -> list:
    """A call with the value for each entry point that takes the argument:
    dedup_report for both, and overlap and LshIndex.match for tau."""
    sig = decode_frames(ramp_video("dup", list(range(4))))
    calls = [lambda: dedup_report([sig], [sig], **{name: value})]
    if name == "tau":
        index = build_index([sig])
        calls += [lambda: overlap(sig, index, value), lambda: index.match(sig.frames[0], value)]
    return calls


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["tau", "threshold_pct"])
def test_dedup_report_rejects_non_finite_tau_and_threshold(name, value):
    # nan would match nothing and flag nothing, and be written to summary.json
    for call in _entry_points(name, value):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            call()


@pytest.mark.parametrize("name, value", [("tau", -5.0), ("tau", 1.5), ("threshold_pct", -1.0),
                                         ("threshold_pct", 500.0)])
def test_dedup_report_rejects_out_of_range_tau_and_threshold(name, value):
    # tau -5 pairs every frame, threshold 500 flags nothing
    for call in _entry_points(name, value):
        with pytest.raises(ValidationError, match=rf"^{name} must be finite and in \[.*\], got {value}$"):
            call()


def test_dedup_report_accepts_the_range_ends():
    sources = [decode_frames(ramp_video("dup", list(range(4))))]
    for tau, threshold_pct in [(-1.0, 0.0), (1.0, 100.0)]:
        report = dedup_report(sources, sources, tau=tau, threshold_pct=threshold_pct)
        assert (report.params["tau"], report.params["threshold_pct"]) == (tau, threshold_pct)
    flat = _sig("flat", np.ones((2, 64)))  # cosine with itself exactly 1.0
    assert overlap(flat, build_index([flat]), 1.0) == [("flat", 100.0)]
    index = build_index(sources)
    candidates = index.candidates(sources[0].frames[0]).tolist()  # each has a cosine >= -1
    assert index.match(sources[0].frames[0], -1.0) == [index._entries[k] for k in candidates]


def test_dedup_report_recall_on_injected_duplicates():
    # 2 of 12 sources are rescaled, half-length copies of targets
    targets = [ramp_video(f"t{i}", [(5 * i + k) % 40 for k in range(16)]) for i in range(4)]
    sources = []
    for i in range(10):
        sources.append(tile_video(f"noise{i}", list(range(200 * i, 200 * i + 8))))
    for i in range(2):
        base = [(5 * i + k) % 40 for k in range(16)]
        sources.append(ramp_video(f"dup{i}", base[4:12], side=224))
    report = dedup_report(
        [decode_frames(v) for v in sources], [decode_frames(v) for v in targets]
    )
    flagged = report.flagged_sources()
    assert {"dup0", "dup1"} <= flagged
    kept = [sid for sid in report.sources if sid not in flagged]
    assert kept == [f"noise{i}" for i in range(10)]


def test_report_serialization(tmp_path):
    members = list(range(10))
    sources = [decode_frames(ramp_video("dup", members)), decode_frames(tile_video("clean", list(range(8))))]
    targets = [decode_frames(ramp_video("orig", members))]
    report = dedup_report(sources, targets)
    save_report(report, tmp_path / "report")
    pairs = (tmp_path / "report" / "overlap_pairs.jsonl").read_text().splitlines()
    assert len(pairs) == 1 and '"overlap_pct": 100.0' in pairs[0]
    summary = (tmp_path / "report" / "summary.json").read_text()
    assert '"num_flagged_pairs": 1' in summary
    assert (tmp_path / "report" / "kept_sources.txt").read_bytes() == b"clean\n"
    report.pairs = []  # nothing flagged: every source is kept, in source order
    save_report(report, tmp_path / "report")
    assert (tmp_path / "report" / "kept_sources.txt").read_bytes() == b"dup\nclean\n"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["ramp", "tile"]), st.integers(0, 30), st.integers(1, 6)),
                min_size=1, max_size=5),
       st.integers(0, 2**64 - 1))
def test_dedup_report_reads_generators_once_and_lists_every_source(specs, seed):
    make = {"ramp": ramp_video, "tile": tile_video}
    videos = [make[kind](f"v{i}", list(range(start, start + n))) for i, (kind, start, n) in enumerate(specs)]
    sigs = [decode_frames(v) for v in videos]
    sources, targets = sigs, sigs[::2]
    expected = dedup_report(sources, targets, seed=seed)
    report = dedup_report((s for s in sources), (t for t in targets), seed=seed)
    assert (report.pairs, report.sources, report.params) == (expected.pairs, expected.sources, expected.params)
    assert report.sources == [s.video_id for s in sources]  # sources with no pair too
    assert {s for s, _t, _p in report.pairs} <= set(report.sources)


def test_overlap_rejects_empty_source():
    with pytest.raises(ValidationError):
        overlap(
            SignatureSequence("e", np.zeros((0, 64))),
            build_index([]),
        )


def _old_cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v / (nu * nv))


def test_cosine_of_each_row_is_bitwise_the_pair_alone():
    # (3,1,5,5)/14 against (2,6,2,4)/14 is exactly 0.5; a row norm taken with
    # norm(rows, axis=1) rounded differently and gave 0.4999999999999999
    q, r = np.zeros(64), np.zeros(64)
    q[[32, 35, 46, 49]] = np.array([3, 1, 5, 5]) / 14
    r[[4, 46, 50, 55]] = np.array([2, 6, 2, 4]) / 14
    assert _old_cosine(q, r) == 0.5
    assert cosine(q, np.stack([r, r])).tolist() == [0.5, 0.5]
    rng = np.random.default_rng(8)
    for n in (1, 7, 300):
        rows = _census_like(rng, n, 0.3)
        rows /= rows.sum(axis=1, keepdims=True)
        u = rows[0] * rng.random(64)
        assert cosine(u, rows).tolist() == [_old_cosine(u, row) for row in rows]


class _DictTableIndex:
    """The per-band dict-table index with per-pair cosine verification that
    LshIndex replaced; kept as the reference its results must equal."""

    def __init__(self, seed: int, dim: int = 64) -> None:
        planes = make_rng(seed, "lsh-planes").standard_normal((BANDS * BITS, dim))
        planes /= np.linalg.norm(planes, axis=1, keepdims=True)
        self.planes = planes.reshape(BANDS, BITS, dim)
        self._tables: list[dict[int, list[int]]] = [{} for _ in range(BANDS)]
        self._entries: list[tuple[str, int]] = []
        self._vectors: list[np.ndarray] = []

    def keys(self, vector: np.ndarray) -> list[int]:
        bits = (self.planes @ np.asarray(vector, dtype=np.float64)) > 0.0
        weights = 1 << np.arange(BITS)
        return [int(b @ weights) for b in bits]

    def insert(self, sig: SignatureSequence) -> None:
        for frame_idx in range(len(sig)):
            entry = len(self._entries)
            self._entries.append((sig.video_id, frame_idx))
            self._vectors.append(sig.frames[frame_idx])
            for band, key in enumerate(self.keys(sig.frames[frame_idx])):
                self._tables[band].setdefault(key, []).append(entry)

    def candidates(self, vector: np.ndarray) -> list[int]:
        found: set[int] = set()
        for band, key in enumerate(self.keys(vector)):
            found.update(self._tables[band].get(key, ()))
        return sorted(found)

    def match(self, vector: np.ndarray, tau: float) -> list[tuple[str, int]]:
        return [
            self._entries[e] for e in self.candidates(vector)
            if _old_cosine(vector, self._vectors[e]) >= tau
        ]


def _census_like(rng: np.random.Generator, n: int, density: float) -> np.ndarray:
    """(n, 64) non-negative count rows, each with at least one nonzero bin."""
    counts = rng.integers(0, 6, size=(n, 64)) * (rng.random((n, 64)) < density)
    counts[np.arange(n), rng.integers(0, 64, size=n)] += 1
    return counts.astype(np.float64)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(1, 12), min_size=1, max_size=5),
    st.sampled_from([0.1, 0.5, 1.0]),
)
def test_index_equals_dict_table_reference(data_seed, index_seed, sizes, density):
    rng = np.random.default_rng(data_seed)
    sigs = [_sig(f"v{i}", _census_like(rng, n, density)) for i, n in enumerate(sizes)]
    index = LshIndex(seed=index_seed)
    reference = _DictTableIndex(index_seed)
    fresh = _sig("q", _census_like(rng, 4, density)).frames
    for sig in sigs:
        index.insert(sig)
        reference.insert(sig)
        stored = sig.frames
        # perturbed copies: cosines near 1 and on both sides of 0.9
        near = [np.abs(stored + s * rng.standard_normal(stored.shape) * stored.mean()) for s in (0.05, 1.0)]
        queries = [*stored, *near[0], *near[1], *fresh, np.zeros(64)]
        assert len(index) == len(reference._entries)
        for q in queries:
            assert index.candidates(q).tolist() == reference.candidates(q)
            for tau in (0.5, 0.9, 1.0 - 1e-12):
                assert index.match(q, tau) == reference.match(q, tau)
        for frame_idx, vector in enumerate(stored):
            assert (sig.video_id, frame_idx) in index.match(vector, 1.0 - 1e-12)


def test_inserts_stack_once_before_a_query():
    index = LshIndex(seed=3)
    rng = np.random.default_rng(4)
    sigs = [_sig(f"v{i}", rng.uniform(0.1, 1.0, size=(3, 64))) for i in range(5)]
    for sig in sigs:
        index.insert(sig)
    assert len(index) == 15 and len(index._pending) == 5  # nothing stacked per insert
    assert ("v2", 1) in index.match(sigs[2].frames[1], tau=1.0 - 1e-12)
    assert index._pending == [] and index._vectors.shape == (15, 64)
    # a second round stacks after the rows already stacked, bit for bit
    sigs += [_sig(f"w{i}", rng.uniform(0.1, 1.0, size=(n, 64))) for i, n in enumerate([4, 0, 1])]
    for sig in sigs[5:]:
        index.insert(sig)
    assert index.candidates(sigs[0].frames[0])[:1].tolist() == [0]
    frames = np.concatenate([sig.frames for sig in sigs])
    assert index._pending == [] and index._vectors.tobytes() == frames.tobytes()
    assert index._keys.dtype == np.uint8 and index._keys.tobytes() == index._band_keys(frames).tobytes()


def test_cached_norms_give_the_similarities_of_the_gathered_rows():
    # the index keeps each row's norm once; the cosine of a query against the
    # gathered candidates must not change by a bit for it
    rng = np.random.default_rng(21)
    for trial in range(200):
        index = LshIndex(seed=trial)
        for i in range(int(rng.integers(1, 4))):
            index.insert(_sig(f"v{i}", _census_like(rng, int(rng.integers(1, 40)), float(rng.random()))))
        query = _census_like(rng, 1, 0.5)[0]
        found = index.candidates(query)  # stacks the rows and their norms
        rows = index._vectors.take(found, axis=0)
        norms = index._norms.take(found)
        assert norms.tobytes() == np.sqrt(np.vecdot(rows, rows)).tobytes()
        assert cosine(query, rows, norms=norms).tobytes() == cosine(query, rows).tobytes()


def test_match_makes_one_cosine_call_per_query(monkeypatch):
    # the benchmark's tracer counts dedup.verify_calls from these calls
    calls = []
    monkeypatch.setattr(dedup, "cosine", lambda *a, **k: calls.append(1) or cosine(*a, **k))
    rng = np.random.default_rng(22)
    index = build_index([_sig("t", _census_like(rng, 30, 0.3))], seed=2)
    for q in _census_like(rng, 7, 0.3):
        index.match(q, 0.5)
    assert len(calls) == 7


def test_uint8_band_keys_equal_the_weighted_sign_bits():
    # pins packbits' little bit order: bit i of a band's key is its i-th plane
    rng = np.random.default_rng(12)
    index = LshIndex(seed=6)
    vectors = np.concatenate([rng.standard_normal((300, 64)), _census_like(rng, 300, 0.3)])
    bits = (vectors @ index.planes.reshape(-1, 64).T) > 0.0
    expected = bits.reshape(len(vectors), BANDS, BITS) @ (1 << np.arange(BITS))
    keys = index._band_keys(vectors)
    assert keys.dtype == np.uint8 and keys.shape == (len(vectors), BANDS)
    assert keys.tolist() == expected.tolist()
    assert index.keys(vectors[5]).tolist() == expected[5].tolist()


def test_a_row_sharing_one_band_in_any_byte_lane_is_a_candidate():
    # row b shares only band b with the query; each other band differs in one
    # bit, so every band key's byte in both 64-bit words of the test is covered
    index = LshIndex(seed=9)
    query = np.random.default_rng(13).uniform(0.1, 1.0, size=64)
    qkeys = index.keys(query)
    one_bit_off = qkeys ^ (1 << (np.arange(BANDS) % BITS)).astype(np.uint8)
    rows = [np.where(np.arange(BANDS) == band, qkeys, one_bit_off) for band in range(BANDS)]
    rows.insert(7, one_bit_off)  # shares no band
    index._keys = np.stack(rows)
    assert [(index._keys[k] == qkeys).sum() for k in range(len(rows))] == [1] * 7 + [0] + [1] * 9
    found = index.candidates(query)
    assert found.dtype == np.int64 and found.tolist() == [k for k in range(len(rows)) if k != 7]
