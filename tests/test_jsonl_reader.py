"""The JSONL reader behind ``load_corpus`` and ``load_manifest``.

Reference: the per-line loops the loaders ran before (one ``json.loads`` per
line through ``read_object``), kept in ``oracles.py``.  On drawn files the
loaders return equal records or raise the identical ``ValidationError``.
"""
from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from corpusforge.manifest import load_manifest
from corpusforge.records import ValidationError, load_corpus

# strings JSONL writers leave unescaped (ensure_ascii=False) that str.splitlines()
# would break at; read_lines must not
_ODD_TEXT = st.sampled_from(["v1", "v2", "a\u0085b", "\u2028", "x\u2029y", "café", "t"])
_TEXT = _ODD_TEXT | st.text(max_size=5)
_NUMBER = (
    st.floats(1e-3, 1e4)
    | st.integers(1, 10**6)
    | st.sampled_from([float("nan"), float("inf"), -1.0, 0.0])
)

# whole lines that stress the reader: blank or whitespace-only lines, two
# objects on one line, an object split over two lines, an integer over the
# 4300-digit conversion limit, a BOM, NaN, and values that are not objects
_SPECIAL_CORPUS_LINES = [
    "",
    " \t",
    "\x0c",
    "\u3000",
    "\u2028",
    '{"id": "v8", "duration_s": 1.0}{"id": "v9", "duration_s": 2.0}',
    '{"id": "v7",\n"duration_s": 1.0}',
    '{"id": "v6", "duration_s": 1' + "0" * 5000 + "}",
    '{"id": "v5", "duration_s": NaN}',
    '{"id": "v4", "duration_s": 1e999}',
    '\ufeff{"id": "v3", "duration_s": 1.0}',
    "[1, 2]",
    '"v1"',
    "{}",
    "{not json",
]
_PADDING = st.sampled_from(["", "", " ", "\t", "\x0c", "\xa0", "\u2028", "\x85", "  "])

# hashtag lists: any JSON element type, bad tags, and one tag in several cases,
# which lowercase to one tag
_TAG = (
    _TEXT
    | st.sampled_from(["A", "a", "Tag", "tAG", "#x", "a b", ""])
    | st.integers()
    | st.booleans()
    | st.none()
    | st.lists(_TEXT, max_size=1)
    | st.dictionaries(_TEXT, st.integers(), max_size=1)
)
_TAGS = st.lists(_TAG, max_size=3) | st.sampled_from([["A", "a"], ["Tag", "tag", "TAG"], "x"])
# values the number rule rejects: bools, an integer beyond the float range,
# and a number given as a string or as null
_BAD_NUMBER = st.booleans() | st.sampled_from([10**400, "5", None])
_CORPUS_NUMBER = _NUMBER | _BAD_NUMBER


def _dumps(draw, obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=draw(st.booleans()))


@st.composite
def _corpus_line(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(_SPECIAL_CORPUS_LINES))
    obj = draw(
        st.fixed_dictionaries(
            {"id": _TEXT, "duration_s": _CORPUS_NUMBER},
            optional={
                "hashtags": _TAGS,
                "frame_rate": _CORPUS_NUMBER,
                "source_uri": st.none() | _TEXT,
                "extra": st.integers(),
            },
        )
    )
    if draw(st.integers(0, 5)) == 0:
        obj.pop("duration_s")
    return draw(_PADDING) + _dumps(draw, obj) + draw(_PADDING)


@st.composite
def _row_line(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(_SPECIAL_CORPUS_LINES))
    obj = {
        "video_id": draw(_TEXT | st.integers()),
        "label": draw(_TEXT),
        "clip_start_s": draw(_NUMBER | st.just(0.0) | _BAD_NUMBER),
        "clip_len_s": draw(_NUMBER | _BAD_NUMBER),
    }
    if draw(st.integers(0, 5)) == 0:
        obj[draw(st.sampled_from(["extra", "video_id"]))] = draw(st.integers())
    return draw(_PADDING) + _dumps(draw, obj) + draw(_PADDING)


@st.composite
def _file(draw, line, first=None):
    """Lines joined by drawn line ends, sometimes behind a BOM or with bytes
    that are not UTF-8 in one line."""
    lines = draw(st.lists(line, max_size=8))
    if first is not None:
        lines.insert(0, draw(first))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    parts = [text.encode("utf-8", "surrogatepass") + end.encode() for text, end in zip(lines, ends)]
    if parts and draw(st.integers(0, 5)) == 0:
        i = draw(st.integers(0, len(parts) - 1))
        parts[i] = draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + parts[i]
    if draw(st.integers(0, 5)) == 0:
        parts.insert(0, b"\xef\xbb\xbf")
    return b"".join(parts)


def _outcome(load, path):
    try:
        return "loaded", load(path)
    except ValidationError as exc:
        return "error", str(exc)


_VALID = '{"id": "v1", "duration_s": 2.5, "hashtags": ["a", "B"]}'


@settings(max_examples=400, deadline=None)
@given(_file(_corpus_line()))
@example(f"{_VALID}\r\n\r\n{_VALID.replace('v1', 'v2')}\r".encode())
@example(f"{_VALID}\n{_VALID}\n".encode())  # a duplicate id
@example(b'{"id": "v1", "duration_s": 1.0, "hashtags": [["a"]]}\n')  # an unhashable tag
@example(b'{"id": "v1", "duration_s": 1' + b"0" * 400 + b'}\n')  # float() overflows
@example(b'{"id": "v1", "duration_s": 1.0, "frame_rate": true}\n')
@example(b'{"id": "v1", "duration_s": "5"}\n')  # a number as a string
@example(b'{"id": "v1", "duration_s": true}\n')
@example(b'{"id": "v1", "duration_s": null}\n')
@example(b'{"id": "v1", "duration_s": 1.0, "frame_rate": "16"}\n')
@example(b'{"id": "v1", "duration_s": 1.0, "hashtags": ["ok", "a b", "#c", "x y", "#d"]}\n')  # four bad tags
@example(b'{"id": "v1", "duration_s": 1.0, "hashtags": ["ok", "a b", "#c"]}\n')  # two bad tags
@example(f"{_VALID}\n{_VALID.replace('v1', 'v2').replace('B', 'b b')}\n".encode())  # a bad tag after a good load
def test_corpus_reader_equals_the_per_line_loop(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_bytes(data)
    assert _outcome(load_corpus, path) == _outcome(oracles.load_corpus_per_line, path)


_HEADER = '{"format":"corpusforge-manifest-v1","seed":3,"provenance":{"a":"b"}}'
_ROW = '{"video_id":"v1","label":"l","clip_start_s":0.000000,"clip_len_s":1.500000}'
_STRING_START = '"0.5"'


@settings(max_examples=400, deadline=None)
@given(_file(_row_line(), first=st.sampled_from([_HEADER, _HEADER, "", " " + _HEADER, "[1]"])))
@example(f"{_HEADER}\n{_ROW}\n  \n{_ROW.replace('v1', 'v2')}\n".encode())
@example(f"{_HEADER}\n{_ROW}\n{_ROW}\n[1]\n".encode())  # a bad row after a duplicate one
@example(f"{_HEADER}\n{_ROW.replace('0.000000', _STRING_START)}\n".encode())  # a number as a string
@example(f"{_HEADER}\n{_ROW.replace('1.500000', 'true')}\n".encode())
@example(f"{_HEADER}\n{_ROW.replace('1.500000', 'null')}\n".encode())
@example(f"{_HEADER}\n{_ROW.replace('0.000000', 'null')}\n".encode())
def test_manifest_reader_equals_the_per_line_loop(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("manifest") / "m.jsonl"
    path.write_bytes(data)
    assert _outcome(load_manifest, path) == _outcome(oracles.load_manifest_per_line, path)
