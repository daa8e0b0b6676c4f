"""Input fuzzer for the commands that read a corpus: `labelspace build`,
`corpus stats`, `sample`, `select` and `manifest validate --corpus`.

Each run reads a small drawn corpus of valid lines and malformed ones, with a
`--min-count`, `--budget`, `--count` or `--minutes` drawn from valid numbers
and from 0, -1, 1.5, nan, inf and 2**64.  Every run exits 0 or 2; a non-zero
exit prints exactly one stderr line, and no run prints a traceback or a numpy
RuntimeWarning (warnings are errors here, so one would escape ``main`` and
fail the test).  A command that writes a file writes it exactly when it exits
0.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_probe_cli_fuzz import _check_contract, _run

_SEEDS = "jumping/v rope/n\nplaying/v guitar/n\n"
_SPACE = {
    "name": "s",
    "kind": "seed",
    "min_count": 1,
    "entries": {"jumping rope": ["jumpingrope", "ropejumping"], "playing guitar": ["guitarplaying"]},
}
_MANIFEST = (
    '{"format":"corpusforge-manifest-v1","seed":0,"provenance":{}}\n'
    '{"video_id":"v1","label":"jumping rope","clip_start_s":0.0,"clip_len_s":1.0}\n'
)

# lines the record check must reject or take as they come: an unhashable
# tag, an integer float() overflows on, a bool frame rate, two bad tags, and
# lines that are not records at all
_SPECIAL_LINES = [
    '{"id": "v1", "duration_s": 4.0, "hashtags": [["a"]]}',
    '{"id": "v1", "duration_s": 1' + "0" * 400 + ', "hashtags": ["ropejumping"]}',
    '{"id": "v1", "duration_s": 4.0, "frame_rate": true, "hashtags": ["guitarplaying"]}',
    '{"id": "v1", "duration_s": 4.0, "hashtags": ["ropejumping", "a b", "#c"]}',
    '{"id": "v2", "duration_s": NaN}',
    '{"id": "", "duration_s": 1.0}',
    '{"id": "v3"}',
    "[1]",
    "{not json",
    "",
]


def _rarely(draw, common: list, rare: list):
    """One of ``common``, or one in ten times one of ``rare``."""
    return draw(st.sampled_from(rare if draw(st.integers(0, 9)) == 0 else common))


@st.composite
def _corpus(draw) -> str:
    """Records of mostly good lines, with a bad value or a special line now and then."""
    lines = []
    for i in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(_SPECIAL_LINES)))
            continue
        obj = {
            "id": _rarely(draw, [f"v{i}"], ["v0", "", 7]),
            "duration_s": _rarely(draw, [0.5, 4.0, 12.0, 40.0, 5, 61], [0.0, -1.0, 10**400, True]),
            "hashtags": [
                _rarely(draw, ["RopeJumping", "ropejumping", "JUMPINGROPE", "guitarplaying", "other"],
                        ["a b", "", 7, None, True, ["a"]])
                for _ in range(draw(st.integers(0, 3)))
            ],
        }
        if draw(st.booleans()):
            obj["frame_rate"] = _rarely(draw, [16.0, 30], [True, 0.0])
        lines.append(json.dumps(obj))
    return "".join(line + "\n" for line in lines)


_VALID_CORPUS = "".join(
    json.dumps({"id": f"v{i}", "duration_s": 4.0 + i, "hashtags": [tag]}) + "\n"
    for i, tag in enumerate(["RopeJumping", "ropejumping", "guitarplaying", "JUMPINGROPE"])
)
_COMMANDS = ["labelspace", "stats", "sample", "select", "validate"]
# the --min-count, --budget, --count or --minutes: valid ones, then numbers
# argparse cannot read as an int or that a count or duration rule rejects
_NUMBERS = ["3", "1", "100", "0.1", "0", "-1", "1.5", "nan", "inf", str(2**64)]


def _argv(command: str, pick: int, number: str, root: Path, corpus: Path) -> tuple[list[str], Path | None]:
    """The command's arguments, each option chosen by ``pick`` and its count
    or duration ``number``, and the file it writes (None for none)."""
    def option(options):
        return options[pick % len(options)]

    out = root / "out.json"
    space = ["--labelspace", str(root / "space.json")]
    if command == "labelspace":
        return ["labelspace", "build", "--seeds", str(root / "seeds.txt"), "--kind", "seed",
                "--corpus", str(corpus), "--min-count", number, "-o", str(out)], out
    if command == "stats":
        return ["corpus", "stats", str(corpus), *space], None
    if command == "sample":
        strategy = option(["random", "sqrt", "tail"])
        return ["sample", "--strategy", strategy, "--budget", number, "--seed", "3",
                "--corpus", str(corpus), *space, "-o", str(out)], out
    if command == "select":
        length_class = option(["short", "long", "long-center"])
        budget = option([["--mode", "f1", "--count"], ["--mode", "f2", "--minutes"]])
        return ["select", "--class", length_class, *budget, number, "--seed", "3",
                "--corpus", str(corpus), *space, "-o", str(out)], out
    return ["manifest", "validate", str(root / "manifest.jsonl"), "--corpus", str(corpus)], None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_COMMANDS), _corpus(), st.integers(0, 59), st.sampled_from(_NUMBERS))
@example("sample", _VALID_CORPUS, 1, "1")
@example("labelspace", _VALID_CORPUS + _SPECIAL_LINES[0] + "\n", 1, "2")
@example("stats", _SPECIAL_LINES[1] + "\n", 0, "3")
@example("select", _SPECIAL_LINES[3] + "\n", 0, "1")
@example("validate", _VALID_CORPUS, 0, "3")
@example("select", _VALID_CORPUS, 0, "1")
@example("stats", _VALID_CORPUS, 0, "3")
@example("sample", _VALID_CORPUS, 1, "nan")
@example("select", _VALID_CORPUS, 1, "inf")
@example("labelspace", _VALID_CORPUS, 0, str(2**64))
def test_corpus_commands_exit_cleanly_on_any_drawn_corpus(command, corpus_text, pick, number):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus = root / "corpus.jsonl"
        corpus.write_text(corpus_text, encoding="utf-8")
        (root / "seeds.txt").write_text(_SEEDS, encoding="utf-8")
        (root / "space.json").write_text(json.dumps(_SPACE), encoding="utf-8")
        (root / "manifest.jsonl").write_text(_MANIFEST, encoding="utf-8")
        argv, written = _argv(command, pick, number, root, corpus)
        code, out, err = _run(argv)
        _check_contract(code, err)
        assert code in (0, 2)
        if written is not None:
            assert written.exists() == (code == 0)
        if command == "stats":
            assert (out == "") == (code != 0)
