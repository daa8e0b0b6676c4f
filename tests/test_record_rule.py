"""The one video rule and the one number rule, for records built directly and
for the corpus and manifest files.

A duration, frame rate or clip time is a JSON number (or, in Python, an
``int``, a ``float`` or another ``numbers.Real``), never a string, a bool or
null, and a record stores it as a float.  So a file fails at read time
naming ``path:line`` and the field, or loads and saves again to the same
bytes.  Hashtags are checked in list order, so an error names the first bad
one whatever the hash seed.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge.manifest import DatasetManifest, ManifestRow, load_manifest, save_manifest
from corpusforge.records import ValidationError, VideoRecord, load_corpus, save_corpus

_HEADER = '{"format":"corpusforge-manifest-v1","seed":0,"provenance":{}}'
_ROW = {"video_id": "v1", "label": "l", "clip_start_s": 0.5, "clip_len_s": 1.0}


@pytest.mark.parametrize("value", ['"5"', "true", "null"])
@pytest.mark.parametrize("field", ["duration_s", "frame_rate", "clip_start_s", "clip_len_s"])
def test_a_number_that_is_not_a_json_number_names_its_line_and_field(tmp_path, field, value):
    if field.startswith("clip"):
        path, load = tmp_path / "m.jsonl", load_manifest
        good, first = json.dumps(_ROW), _HEADER
    else:
        path, load = tmp_path / "corpus.jsonl", load_corpus
        good = '{"id": "v1", "duration_s": 4.0, "frame_rate": 16.0, "hashtags": ["a"]}'
        first = good.replace("v1", "v0")
    bad = json.dumps({**json.loads(good), field: json.loads(value)})
    path.write_text(f"{first}\n{bad}\n", encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        load(path)
    message = str(info.value)
    assert message.startswith(f"{path}:2: ") and f"{field} must be finite and " in message


@pytest.mark.parametrize("duration", [True, False, "5", None, [5], np.bool_(True), 10**400, -(10**400)])
def test_video_record_takes_only_real_numbers(duration):
    with pytest.raises(ValidationError, match=r"^video 'a': duration_s must be finite and > 0, got "):
        VideoRecord("a", duration, frozenset())
    with pytest.raises(ValidationError, match=r"^video 'a': frame_rate must be finite and > 0, got "):
        VideoRecord("a", 1.0, frozenset(), frame_rate=duration)


@pytest.mark.parametrize("number", [3, 2.5, np.float64(2.5), np.int64(3), np.float32(0.5)])
def test_a_record_stores_its_numbers_as_floats(number):
    rec = VideoRecord("a", number, ["A"], frame_rate=number)
    assert type(rec.duration_s) is float and type(rec.frame_rate) is float
    assert rec.duration_s == number and rec == VideoRecord("a", float(number), ["a"], frame_rate=float(number))
    row = ManifestRow("a", "l", number, number)
    assert type(row.clip_start_s) is float and type(row.clip_len_s) is float


@pytest.mark.parametrize("start, length", [("0.5", 1.0), (0.5, True), (None, 1.0), (0.0, 10**400)])
def test_manifest_row_takes_only_real_numbers(start, length):
    with pytest.raises(ValidationError, match="must be finite"):
        ManifestRow("a", "l", start, length)


_number = (
    st.integers(1, 10**6)
    | st.floats(1e-3, 1e6)
    | st.floats(1e-3, 1e6).map(np.float64)
    | st.integers(1, 10**6).map(np.int64)
)
_tag = st.text("aAbBzZ_9Éé", min_size=1, max_size=4)
_videos = st.lists(
    st.builds(
        VideoRecord,
        id=st.text(min_size=1, max_size=5),
        duration_s=_number,
        hashtags=st.lists(_tag, max_size=4),
        frame_rate=_number,
        source_uri=st.none() | st.text(max_size=5),
    ),
    max_size=6,
    unique_by=lambda rec: rec.id,
)
_rows = st.lists(
    st.builds(
        ManifestRow,
        video_id=st.text(max_size=5),
        label=st.text(max_size=5),
        clip_start_s=st.just(0) | _number,
        clip_len_s=_number,
    ),
    max_size=6,
    unique_by=lambda row: (row.video_id, row.clip_start_s),
)


@settings(max_examples=150, deadline=None)
@given(_videos, _rows)
def test_save_load_save_gives_the_same_bytes(tmp_path_factory, videos, rows):
    root = tmp_path_factory.mktemp("round")
    save_corpus(videos, root / "a.jsonl")
    loaded = load_corpus(root / "a.jsonl")
    assert loaded == videos
    save_corpus(loaded, root / "b.jsonl")
    assert (root / "b.jsonl").read_bytes() == (root / "a.jsonl").read_bytes()
    save_manifest(DatasetManifest(rows=rows, seed=3), root / "a.m")
    save_manifest(load_manifest(root / "a.m"), root / "b.m")
    assert (root / "b.m").read_bytes() == (root / "a.m").read_bytes()


_TAGS = ["ok", "a b", "#c", "x y", "#d"]
_FIRST_BAD = "bad hashtag 'a b'"
_SCRIPT = """
import sys
from corpusforge.records import LabelKind, LabelSpace, ValidationError, VideoRecord, load_corpus
tags = %r
for call in (
    lambda: load_corpus(sys.argv[1]),
    lambda: VideoRecord("v1", 1.0, tags),
    lambda: LabelSpace("s", LabelKind.SEED, {"l": tags}),
):
    try:
        call()
    except ValidationError as exc:
        print(exc, file=sys.stderr)
""" % (_TAGS,)


def test_the_first_bad_hashtag_is_named_under_any_hash_seed(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "v1", "duration_s": 1.0, "hashtags": _TAGS}) + "\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    stderr = []
    for hash_seed in ["1", "3"]:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = subprocess.run([sys.executable, "-c", _SCRIPT, str(corpus)],
                                capture_output=True, text=True, env=env, timeout=120)
        cli = subprocess.run([sys.executable, "-m", "corpusforge.cli", "corpus", "stats", str(corpus),
                              "--labelspace", str(tmp_path / "absent.json")],
                             capture_output=True, text=True, env=env, timeout=120)
        assert script.returncode == 0 and cli.returncode == 2
        stderr.append(script.stderr + cli.stderr)
    assert stderr[0] == stderr[1]
    assert stderr[0].count(_FIRST_BAD) == 4
