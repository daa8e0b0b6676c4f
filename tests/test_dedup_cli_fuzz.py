"""Input fuzzer for `dedup`.

Each run draws ``--tau``, ``--threshold`` and ``--seed`` from edge values,
and ``--sources`` and ``--targets`` as a directory, a list file, an empty
directory or a missing path, holding tiny `.cfvd` videos: valid ones, one
small enough to take the resize path, and files with a bad magic, a cut
payload, zero width or a NaN frame rate.  Every run exits 0, 1 or 2; a
non-zero exit prints exactly one stderr line, and no run prints a traceback
or a numpy RuntimeWarning (warnings are errors here).  The report directory
exists exactly when the run exits 0.
"""
from __future__ import annotations

import math
import struct
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusforge.census import save_raw_frames
from corpusforge.synth import ramp_video, tile_video

from test_probe_cli_fuzz import _check_contract, _run

_HUGE = "1" + "0" * 400
_NUMBERS = ["0", "-1", "nan", "inf", "-inf", str(2**64), _HUGE, "0.9", "20", "3"]
# a CFVD header: magic, width, height, frame count, fps
_HEADER = struct.Struct("<4sIIIf")


def _write_videos(pool: Path) -> None:
    """Three valid 112-px videos (two share content), a 2-frame 20-px one,
    and four malformed files cut from a valid one."""
    save_raw_frames(ramp_video("ramp", [0, 1, 2]), pool / "ramp.cfvd")
    save_raw_frames(ramp_video("copy", [1, 2]), pool / "copy.cfvd")
    save_raw_frames(tile_video("tile", [5, 6]), pool / "tile.cfvd")
    save_raw_frames(ramp_video("small", [0, 1], side=20), pool / "small.cfvd")
    data = (pool / "copy.cfvd").read_bytes()
    _magic, w, h, n, fps = _HEADER.unpack(data[: _HEADER.size])
    payload = data[_HEADER.size :]
    (pool / "magic.cfvd").write_bytes(b"CFVX" + data[4:])
    (pool / "cut.cfvd").write_bytes(data[:-7])
    (pool / "narrow.cfvd").write_bytes(_HEADER.pack(b"CFVD", 0, h, n, fps))
    (pool / "nanfps.cfvd").write_bytes(_HEADER.pack(b"CFVD", w, h, n, math.nan) + payload)


_VALID = ["ramp", "copy", "tile", "small"]
_VIDEOS = _VALID + ["magic", "cut", "narrow", "nanfps"]
_KINDS = ["dir", "list", "empty", "missing"]
# half the draws are lists of valid videos, so that many runs write a report
_video_set = st.tuples(
    st.sampled_from(["dir", "list"]) | st.sampled_from(_KINDS),
    st.lists(st.sampled_from(_VALID), min_size=1, max_size=3, unique=True)
    | st.lists(st.sampled_from(_VIDEOS), min_size=1, max_size=3, unique=True),
)
_number = st.one_of(st.none(), st.sampled_from(_NUMBERS))


def _video_spec(root: Path, name: str, kind: str, videos: list[str]) -> str:
    """A --sources or --targets value of the drawn kind."""
    pool = root / "pool"
    path = root / name
    if kind == "dir":
        path.mkdir()
        for video in videos:
            (path / f"{video}.cfvd").write_bytes((pool / f"{video}.cfvd").read_bytes())
    elif kind == "list":
        path.write_text("".join(f"{pool / video}.cfvd\n" for video in videos), encoding="utf-8")
    elif kind == "empty":
        path.mkdir()
    return str(path)


@settings(max_examples=120, deadline=None)
@given(_video_set, _video_set, _number, _number, _number)
@example(("dir", ["ramp", "small"]), ("list", ["copy", "tile"]), None, None, None)
@example(("dir", ["small"]), ("dir", ["ramp"]), "-1", "0", "0")
@example(("list", ["ramp"]), ("dir", ["nanfps"]), None, None, None)
@example(("list", ["narrow"]), ("dir", ["ramp"]), None, None, None)
@example(("dir", ["ramp"]), ("list", ["cut", "magic"]), None, None, None)
@example(("dir", ["ramp"]), ("dir", ["ramp"]), "nan", None, None)
@example(("dir", ["ramp"]), ("dir", ["ramp"]), None, None, "nan")
@example(("missing", ["ramp"]), ("empty", ["ramp"]), None, None, None)
def test_dedup_exits_cleanly_on_any_drawn_arguments(sources, targets, tau, threshold, seed):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "pool").mkdir()
        _write_videos(root / "pool")
        report = root / "report"
        argv = ["dedup", "--sources", _video_spec(root, "sources", *sources),
                "--targets", _video_spec(root, "targets", *targets), "-o", str(report)]
        for option, value in (("--tau", tau), ("--threshold", threshold), ("--seed", seed)):
            if value is not None:
                argv.append(f"{option}={value}")  # "-inf" would read as an option
        code, _out, err = _run(argv)
        _check_contract(code, err)
        assert report.is_dir() == (code == 0)
