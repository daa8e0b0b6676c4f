from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge.census import (
    FrameVideo,
    bilinear_resize,
    census_signature,
    cosine,
    decode_frames,
    load_raw_frames,
    save_raw_frames,
    to_grayscale,
)
from corpusforge.records import ValidationError
from corpusforge.synth import ramp_frame, ramp_video

from oracles import census_codes_oracle, census_signature_oracle, cosine_oracle


def test_constant_frame_is_one_hot_at_zero():
    sig = census_signature(np.full((112, 112), 37.0))
    expected = np.zeros(64)
    expected[0] = 1.0
    assert np.array_equal(sig, expected)


def test_matches_pixel_loop_oracle_on_random_frames():
    rng = np.random.default_rng(2)
    for _ in range(3):
        frame = rng.uniform(0, 255, size=(112, 112))
        assert np.allclose(census_signature(frame), census_signature_oracle(frame), atol=1e-15)


def test_complement_frame_has_complement_codes():
    # distinct values everywhere, so strictly-greater flips exactly
    rng = np.random.default_rng(5)
    frame = rng.permutation(112 * 112).reshape(112, 112).astype(np.float64)
    codes = census_codes_oracle(frame)
    codes_c = census_codes_oracle(255.0 * 112 * 112 - frame)
    assert np.array_equal(codes_c, 255 - codes)
    assert np.allclose(
        census_signature(255.0 * 112 * 112 - frame),
        census_signature_oracle(255.0 * 112 * 112 - frame),
    )


def test_vertical_gradient_single_code():
    # brightness grows downward: exactly the 3 lower neighbors are greater,
    # which are bits 4, 5, 6 in clockwise-from-top-left order -> code 112
    frame = np.tile(np.arange(112, dtype=np.float64)[:, None], (1, 112))
    codes = census_codes_oracle(frame)
    assert np.all(codes == 112)
    sig = census_signature(frame)
    assert sig[112 // 4] == 1.0
    assert np.count_nonzero(sig) == 1


def test_signature_l1_normalized():
    rng = np.random.default_rng(3)
    for _ in range(5):
        sig = census_signature(rng.uniform(0, 255, size=(112, 112)))
        assert abs(sig.sum() - 1.0) <= 1e-9
        assert np.all(sig >= 0.0) and np.all(sig <= 1.0)


def test_brightness_shift_invariance_exact():
    rng = np.random.default_rng(4)
    frame = rng.uniform(0, 200, size=(112, 112))
    assert np.array_equal(census_signature(frame), census_signature(frame + 17.3))


def test_wrong_dimensions_rejected():
    with pytest.raises(ValidationError):
        census_signature(np.zeros((64, 64)))


def test_grayscale_luma_weights():
    frame = np.zeros((4, 4, 3))
    frame[..., 0] = 100.0
    frame[..., 1] = 50.0
    frame[..., 2] = 10.0
    gray = to_grayscale(frame)
    assert np.allclose(gray, 0.299 * 100 + 0.587 * 50 + 0.114 * 10)


def test_bilinear_resize_preserves_constant_and_linear():
    const = np.full((30, 40), 9.0)
    assert np.allclose(bilinear_resize(const, 17, 23), 9.0)
    ramp = np.tile(np.linspace(0, 100, 64)[None, :], (64, 1))
    small = bilinear_resize(ramp, 32, 32)
    diffs = np.diff(small, axis=1)
    assert np.allclose(diffs, diffs[0, 0], atol=1e-9)


# ---------------------------------------------------------------------------
# decode_frames


def test_decode_rate_match_counts():
    video = ramp_video("v", members=list(range(16)), side=112, fps=16.0)
    sig = decode_frames(video)
    assert len(sig) == 16


def test_decode_decimates_double_rate():
    frames = np.stack([ramp_frame(m, 112) for m in range(32)])
    video = FrameVideo("v32", fps=32.0, frames=frames)
    sig = decode_frames(video)
    assert len(sig) == 16
    direct = np.stack([census_signature(frames[2 * k]) for k in range(16)])
    assert np.allclose(sig.frames, direct)


def test_decode_frame_count_tracks_duration():
    rng = np.random.default_rng(8)
    for _ in range(4):
        fps = float(rng.uniform(5, 40))
        n = int(rng.integers(4, 60))
        frames = np.stack([ramp_frame(int(rng.integers(40)), 112) for _ in range(n)])
        sig = decode_frames(FrameVideo("v", fps=fps, frames=frames))
        expected = round(n / fps * 16.0)
        assert abs(len(sig) - expected) <= 1


def test_decode_scale_robustness():
    members = list(range(8))
    lo = decode_frames(ramp_video("lo", members, side=112))
    hi = decode_frames(ramp_video("hi", members, side=224))
    for k in range(len(lo)):
        assert cosine(lo.frames[k], hi.frames[k]) >= 0.95


def test_decode_rejects_empty():
    with pytest.raises(ValidationError):
        FrameVideo("v", fps=16.0, frames=np.zeros((0, 112, 112)))


def test_raw_frames_round_trip(tmp_path):
    video = ramp_video("v", members=[0, 1, 2], side=112, fps=16.0)
    path = tmp_path / "v.cfvd"
    save_raw_frames(video, path)
    loaded = load_raw_frames(path)
    assert loaded.fps == 16.0
    assert loaded.frames.shape == video.frames.shape
    assert np.max(np.abs(loaded.frames - np.rint(video.frames))) <= 0.5


def test_raw_frames_bad_magic(tmp_path):
    path = tmp_path / "bad.cfvd"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValidationError, match="magic"):
        load_raw_frames(path)


def test_raw_frames_non_square(tmp_path):
    rng = np.random.default_rng(9)
    video = FrameVideo("rect", fps=8.0, frames=rng.uniform(0, 255, size=(5, 20, 30)))
    path = tmp_path / "rect.cfvd"
    save_raw_frames(video, path)
    loaded = load_raw_frames(path)
    assert loaded.frames.shape == (5, 20, 30)
    sig = decode_frames(loaded)  # 5 frames / 8 fps -> 10 outputs at 16 fps
    assert len(sig) == 10


def test_decode_rgb_video_uses_luma():
    rng = np.random.default_rng(10)
    gray = rng.uniform(0, 255, size=(2, 112, 112))
    rgb = np.stack([gray, gray, gray], axis=-1)
    sig_rgb = decode_frames(FrameVideo("rgb", fps=16.0, frames=rgb))
    sig_gray = decode_frames(FrameVideo("gray", fps=16.0, frames=gray))
    assert np.allclose(sig_rgb.frames, sig_gray.frames)


@pytest.mark.parametrize("fps", [math.nan, math.inf, -math.inf, 0.0])
def test_video_rejects_non_finite_or_zero_fps(fps):
    with pytest.raises(ValidationError, match="fps must be finite"):
        FrameVideo("v", fps=fps, frames=np.zeros((2, 8, 8)))


@pytest.mark.parametrize("shape", [(2, 0, 8), (2, 8, 0), (2, 0, 0, 3)])
def test_video_rejects_zero_size_frames(shape):
    with pytest.raises(ValidationError, match="pixels"):
        FrameVideo("v", fps=16.0, frames=np.zeros(shape))


def _write_cfvd(path, width: int, height: int, count: int, fps: float) -> None:
    header = struct.pack("<4sIIIf", b"CFVD", width, height, count, fps)
    path.write_bytes(header + bytes(width * height * count))


@pytest.mark.parametrize(
    "width, height, fps, message",
    [
        (8, 8, math.nan, "fps"),
        (8, 8, math.inf, "fps"),
        (0, 8, 16.0, "0 pixels"),
        (8, 0, 16.0, "0x8 pixels"),
    ],
)
def test_raw_frames_that_cannot_decode_name_the_file(tmp_path, width, height, fps, message):
    path = tmp_path / "bad.cfvd"
    _write_cfvd(path, width, height, 3, fps)
    with pytest.raises(ValidationError, match=message) as info:
        load_raw_frames(path)
    assert str(info.value).startswith(f"{path}: ")


_coords = st.integers(-10**6, 10**6).map(lambda k: k / 1000.0)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 8), st.integers(0, 6))
def test_cosine_rows_equal_oracle(data, dim, n_rows):
    u = np.array(data.draw(st.lists(_coords, min_size=dim, max_size=dim)))
    rows = np.array(
        [data.draw(st.lists(_coords, min_size=dim, max_size=dim)) for _ in range(n_rows)]
    ).reshape(n_rows, dim)
    sims = cosine(u, rows)
    assert sims.shape == (n_rows,)
    for row, sim in zip(rows, sims):
        assert abs(sim - cosine_oracle(u, row)) <= 1e-12
        single = cosine(u, row)
        assert isinstance(single, float) and single == cosine(u, row[None, :])[0]


def test_cosine_zero_rows_and_zero_query_give_zero():
    rows = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [-3.0, 0.5, 1.0]])
    sims = cosine(np.array([2.0, 0.0, 1.0]), rows)
    assert sims[1] == 0.0 and sims[0] != 0.0
    assert np.array_equal(cosine(np.zeros(3), rows), np.zeros(3))
    assert cosine(np.zeros(3), rows[0]) == 0.0
