from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge.manifest import (
    DatasetManifest,
    ManifestRow,
    load_manifest,
    manifest_bytes,
    save_manifest,
)
from corpusforge.records import (
    LabelKind,
    LabelSpace,
    ValidationError,
    VideoRecord,
    label_histogram,
    load_corpus,
    load_label_space,
    save_corpus,
    save_label_space,
)

from conftest import corpus_with_counts, zipf_corpus


def _manifest() -> DatasetManifest:
    rows = [
        ManifestRow("vid-a", "jumping", 0.0, 4.0),
        ManifestRow("vid-b", "jumping", 1.5, 2.25),
        ManifestRow("vid-a", "running", 4.0, 3.0),
    ]
    return DatasetManifest(rows=rows, provenance={"builder": "test"}, seed=42)


def test_empty_file_is_rejected(tmp_path):
    # save_manifest always writes a header, so no saved manifest is empty
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValidationError, match="empty file") as info:
        load_manifest(path)
    assert str(info.value).startswith(f"{path}:1: ")


def test_round_trip_and_byte_stability(tmp_path):
    m = _manifest()
    path = tmp_path / "m.jsonl"
    save_manifest(m, path)
    loaded = load_manifest(path)
    assert loaded == m
    path2 = tmp_path / "m2.jsonl"
    save_manifest(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_two_saves_identical_bytes():
    m = _manifest()
    assert manifest_bytes(m) == manifest_bytes(_manifest())


def test_zero_row_manifest_is_header_only(tmp_path):
    path = tmp_path / "empty.jsonl"
    save_manifest(DatasetManifest(seed=7), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert '"format":"corpusforge-manifest-v1"' in lines[0]


def test_negative_clip_start_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = manifest_bytes(_manifest()).decode()
    bad = good.replace('"clip_start_s":1.500000', '"clip_start_s":-1.000000')
    path.write_text(bad)
    with pytest.raises(ValidationError, match="clip_start_s"):
        load_manifest(path)


def test_unknown_fields_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = manifest_bytes(_manifest()).decode().splitlines()
    lines[1] = lines[1][:-1] + ',"extra":1}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="unknown fields"):
        load_manifest(path)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = manifest_bytes(_manifest()).decode().splitlines()
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=":3:"):
        load_manifest(path)


def test_duplicate_video_and_start_rejected():
    rows = [
        ManifestRow("vid-a", "jumping", 0.0, 4.0),
        ManifestRow("vid-a", "running", 0.0, 5.0),
    ]
    with pytest.raises(ValidationError, match="duplicate row"):
        DatasetManifest(rows=rows)


def test_unknown_video_id_with_corpus_rejected(tmp_path):
    corpus = [VideoRecord(id="vid-a", duration_s=10.0, hashtags=frozenset({"x"}))]
    m = DatasetManifest(rows=[ManifestRow("ghost", "x", 0.0, 1.0)])
    with pytest.raises(ValidationError, match="unknown video"):
        save_manifest(m, tmp_path / "m.jsonl", corpus=corpus)
    assert not (tmp_path / "m.jsonl").exists()


def test_clip_containment_checked_against_corpus(tmp_path):
    corpus = [VideoRecord(id="vid-a", duration_s=4.0, hashtags=frozenset({"x"}))]
    m = DatasetManifest(rows=[ManifestRow("vid-a", "x", 2.0, 3.0)])
    with pytest.raises(ValidationError, match="exceeds duration"):
        save_manifest(m, tmp_path / "m.jsonl", corpus=corpus)


def test_float_formatting_is_fixed_six_places(tmp_path):
    m = DatasetManifest(rows=[ManifestRow("v", "l", 1.0 / 3.0, 2.0)], seed=1)
    path = tmp_path / "m.jsonl"
    save_manifest(m, path)
    assert '"clip_start_s":0.333333' in path.read_text()
    assert load_manifest(path) == m  # quantized at construction, lossless on disk


def test_corpus_round_trip(tmp_path):
    corpus, _space = corpus_with_counts({"A": 3, "B": 2}, duration_s=7.5)
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_corpus_duplicate_id_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    line = '{"id":"v1","duration_s":5.0,"hashtags":["a"]}\n'
    path.write_text(line + line)
    with pytest.raises(ValidationError, match="duplicate video id"):
        load_corpus(path)


def test_label_space_round_trip(tmp_path):
    _corpus, space = corpus_with_counts({"A": 3, "B": 2})
    path = tmp_path / "space.json"
    save_label_space(space, path)
    loaded = load_label_space(path)
    assert loaded.entries == space.entries
    assert loaded.kind == space.kind


# ---------------------------------------------------------------------------
# label_histogram


def test_histogram_single_label_counts_whole_corpus():
    corpus, space = corpus_with_counts({"A": 5})
    hist = label_histogram(corpus, space)
    assert hist.counts == {"A": 5}


def test_histogram_multi_label_video_counts_twice():
    space = LabelSpace(
        name="s",
        kind=LabelKind.SEED,
        entries={"A": frozenset({"both"}), "B": frozenset({"both"})},
        min_count=1,
    )
    video = VideoRecord(id="v", duration_s=3.0, hashtags=frozenset({"both"}))
    hist = label_histogram([video], space)
    assert hist.counts == {"A": 1, "B": 1}
    assert hist.total == 2  # exceeds corpus size under multi-label matching


def test_histogram_matches_zipf_generator_ground_truth():
    corpus, space, truth = zipf_corpus(1000, 10, 1.0, seed=123)
    hist = label_histogram(corpus, space)
    assert hist.counts == truth
    assert hist.total == len(corpus)


def test_video_record_invariants():
    with pytest.raises(ValidationError):
        VideoRecord(id="v", duration_s=0.0, hashtags=frozenset({"a"}))
    with pytest.raises(ValidationError):
        VideoRecord(id="v", duration_s=1.0, hashtags=frozenset({"has space"}))
    rec = VideoRecord(id="v", duration_s=1.0, hashtags=frozenset({"UPPER"}))
    assert rec.hashtags == frozenset({"upper"})


def test_hashtag_check_matches_per_character_reference():
    # every code point as a one-character tag, lowercased as VideoRecord does
    def reference_bad(tag):
        return not tag or "#" in tag or any(ch.isspace() for ch in tag)

    good, bad = [], []
    for cp in range(0x110000):
        tag = chr(cp)
        (bad if reference_bad(tag.lower()) else good).append(tag)
    for i in range(0, len(good), 0x10000):
        VideoRecord(id="v", duration_s=1.0, hashtags=good[i : i + 0x10000])
    assert len(bad) > 20  # the whitespace code points and "#"
    for tag in bad + [f"a{tag}b" for tag in bad] + [""]:
        with pytest.raises(ValidationError, match="bad hashtag"):
            VideoRecord(id="v", duration_s=1.0, hashtags=[tag])


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"id":"v2","duration_s":5.0,"hashtags":"xyz"}', "list of strings"),
        ('{"id":"v2","duration_s":5.0,"hashtags":["a",7]}', "must be strings"),
        ('{"id":"v2","duration_s":5.0,"hashtags":null}', "must be strings"),
        ('{"id":"v2","duration_s":"abc","hashtags":["a"]}', "could not convert"),
        ('{"id":"v2","duration_s":null,"hashtags":["a"]}', "float"),
        ('{"id":"v2","duration_s":Infinity,"hashtags":["a"]}', "finite"),
        ('{"id":"v2","duration_s":NaN,"hashtags":["a"]}', "finite"),
        ('{"id":"v2","duration_s":1' + "0" * 400 + ',"hashtags":["a"]}', "too large"),
        ('{"id":"v2","duration_s":5.0,"frame_rate":-Infinity}', "frame_rate"),
        ('{"id":"v2","duration_s":5.0,"frame_rate":1e999}', "frame_rate"),
        ('{"id":7,"duration_s":5.0}', "non-empty string"),
        ('{"id":["v2"],"duration_s":5.0}', "non-empty string"),
        ('{"id":"v2","duration_s":5.0,"source_uri":{"a":1}}', "source_uri"),
        ('{"duration_s":5.0}', "missing field"),
        ('["v2", 5.0]', "JSON object"),
        ("{not json", "bad JSON"),
    ],
)
def test_corpus_bad_line_names_file_and_line(tmp_path, line, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id":"v1","duration_s":5.0,"hashtags":["a"]}\n' + line + "\n")
    with pytest.raises(ValidationError, match=message) as info:
        load_corpus(path)
    assert str(info.value).startswith(f"{path}:2: ")


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _corpus_lines(draw):
    """A well-formed record line, half the time with one field dropped or
    replaced by an arbitrary JSON value (or an unknown field added)."""
    obj = draw(
        st.fixed_dictionaries(
            {"id": st.text(min_size=1, max_size=6), "duration_s": st.floats(1e-3, 1e6)},
            optional={
                "hashtags": st.lists(st.text(min_size=1, max_size=6), max_size=4),
                "frame_rate": st.floats(1.0, 120.0) | st.integers(1, 240),
                "source_uri": st.none() | st.text(max_size=8),
            },
        )
    )
    if draw(st.booleans()):
        key = draw(st.sampled_from(["id", "duration_s", "hashtags", "frame_rate", "source_uri", "extra"]))
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(_json)
    return json.dumps(obj)


@settings(max_examples=200, deadline=None)
@given(_corpus_lines() | st.text(max_size=30))
def test_corpus_line_loads_and_round_trips_or_names_its_line(tmp_path_factory, line):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    try:
        corpus = load_corpus(path)
    except ValidationError as exc:
        assert str(exc).startswith(f"{path}:")
        return
    again = path.with_name("again.jsonl")
    save_corpus(corpus, again)
    assert load_corpus(again) == corpus


@pytest.mark.parametrize("start, length", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)])
def test_row_rejects_non_finite_clip_times(start, length):
    with pytest.raises(ValidationError, match="finite"):
        ManifestRow("v", "l", start, length)


_finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def _manifests(draw):
    ids = draw(st.lists(st.text(), unique=True, max_size=8))
    rows = []
    for video_id in ids:
        # lengths below 5e-7 quantize to 0, which ManifestRow rejects
        length = draw(st.floats(min_value=1e-6, allow_infinity=False))
        rows.append(ManifestRow(video_id, draw(st.text()), draw(_finite), length))
    provenance = draw(st.dictionaries(st.text(), st.text(), max_size=3))
    return DatasetManifest(rows=rows, provenance=provenance, seed=draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=100, deadline=None)
@given(_manifests())
def test_manifest_save_load_round_trips_with_stable_bytes(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("manifest") / "m.jsonl"
    save_manifest(m, path)
    loaded = load_manifest(path)
    assert loaded == m
    assert manifest_bytes(loaded) == path.read_bytes()


_HEADER = {"format": "corpusforge-manifest-v1", "seed": 0, "provenance": {}}


@pytest.mark.parametrize(
    "header, message",
    [
        ("[1]", "header must be a JSON object"),
        ('"x"', "header must be a JSON object"),
        (json.dumps({**_HEADER, "seed": "x"}), "seed must be an integer"),
        (json.dumps({**_HEADER, "seed": 1.5}), "seed must be an integer"),
        (json.dumps({**_HEADER, "seed": True}), "seed must be an integer"),
        (json.dumps({**_HEADER, "seed": -1}), "seed must be an integer"),
        (json.dumps({**_HEADER, "seed": 2**64}), "seed must be an integer"),
        (json.dumps({**_HEADER, "provenance": [1]}), "provenance must be a JSON object"),
    ],
)
def test_manifest_bad_header_names_line_one(tmp_path, header, message):
    path = tmp_path / "m.jsonl"
    path.write_text(header + "\n")
    with pytest.raises(ValidationError, match=message) as info:
        load_manifest(path)
    assert str(info.value).startswith(f"{path}:1: ")


@pytest.mark.parametrize("line", [3, 1])
def test_non_utf8_bytes_name_their_line(tmp_path, line):
    good = '{"id":"v%d","duration_s":1.0,"hashtags":["caf\u00e9"]}'
    lines = [(good % k).encode("utf-8") for k in range(3)]
    lines[line - 1] = b"\xff\xfe" + lines[line - 1]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ValidationError, match="not valid UTF-8") as info:
        load_corpus(path)
    assert str(info.value).startswith(f"{path}:{line}: ")
    m = tmp_path / "m.jsonl"
    save_manifest(_manifest(), m)
    rows = m.read_bytes().split(b"\n")
    rows[line - 1] = b"\xc3(" + rows[line - 1]
    m.write_bytes(b"\n".join(rows))
    with pytest.raises(ValidationError, match="not valid UTF-8") as info:
        load_manifest(m)
    assert str(info.value).startswith(f"{m}:{line}: ")


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=40) | _corpus_lines().map(lambda s: s.encode("utf-8") + b"\n\xff\n"))
def test_corpus_bytes_load_or_name_their_line(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_bytes(data)
    try:
        load_corpus(path)
    except ValidationError as exc:
        assert str(exc).startswith(f"{path}:")


_headers = _json.map(json.dumps) | st.fixed_dictionaries(
    {"format": st.just("corpusforge-manifest-v1")},
    optional={"seed": _json, "provenance": _json},
).map(json.dumps)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=40) | _headers.map(lambda h: (h + "\n").encode("utf-8")))
def test_manifest_bytes_load_and_round_trip_or_name_their_line(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("manifest") / "m.jsonl"
    path.write_bytes(data)
    try:
        m = load_manifest(path)
    except ValidationError as exc:
        assert str(exc).startswith(f"{path}:")
        return
    again = path.with_name("again.jsonl")
    save_manifest(m, again)
    assert load_manifest(again) == m
