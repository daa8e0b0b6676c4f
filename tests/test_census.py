from __future__ import annotations

import math
import os
import struct
import subprocess
import sys
from itertools import islice, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge import census
from corpusforge.census import (
    MAX_DECODED_FRAMES,
    FrameVideo,
    bilinear_resize,
    census_signature,
    census_signatures,
    cosine,
    decode_frames,
    load_raw_frames,
    save_raw_frames,
    to_grayscale,
)
from corpusforge.records import ValidationError
from corpusforge.synth import ramp_frame, ramp_video, tile_frame

from oracles import CENSUS_OFFSETS, census_codes_oracle, census_signature_oracle, cosine_oracle


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


def _eight_comparison_signature(frame):
    # reference: all 8 neighbor bits, then the 4:1 fold
    h, w = frame.shape
    center = frame[1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.uint16)
    for bit, (dy, dx) in enumerate(CENSUS_OFFSETS):
        codes |= (frame[1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx] > center).astype(np.uint16) << bit
    hist = np.bincount((codes >> 2).ravel(), minlength=64).astype(np.float64)
    return hist / hist.sum()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 16, 256, 0]))
def test_signature_equals_eight_comparison_reference(seed, levels):
    # few levels give many ties, where strictly-greater matters; 0 is continuous
    rng = np.random.default_rng(seed)
    if levels:
        frame = rng.integers(0, levels, size=(112, 112)).astype(np.float64)
    else:
        frame = rng.uniform(0, 255, size=(112, 112))
    assert np.array_equal(census_signature(frame), _eight_comparison_signature(frame))


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


@pytest.mark.parametrize(
    "count, fps",
    [(4, 1e-30), (2, 5e-324), (100, 1e-4), (MAX_DECODED_FRAMES // 16 + 1, 1.0)],
)
def test_decode_rejects_videos_over_the_frame_limit_before_allocating(count, fps):
    # frames broadcast from one frame: the video itself costs no memory
    frames = np.broadcast_to(np.zeros((1, 8, 8)), (count, 8, 8))
    video = FrameVideo("long", fps=fps, frames=frames)
    with pytest.raises(ValidationError, match="'long'.*over the 262144 limit"):
        decode_frames(video)


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


# ---------------------------------------------------------------------------
# uint8 pixels: the census, the resize and decode_frames give the bits of
# their float64 copies, and of the per-frame code they replaced.


def _ix_resize(frame, out_h, out_w):
    # reference: bilinear_resize as it was, four np.ix_ gathers on float64
    frame = np.asarray(frame, dtype=np.float64)
    in_h, in_w = frame.shape
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    tl = frame[np.ix_(y0, x0)]
    tr = frame[np.ix_(y0, x1)]
    bl = frame[np.ix_(y1, x0)]
    br = frame[np.ix_(y1, x1)]
    return tl * (1 - wy) * (1 - wx) + tr * (1 - wy) * wx + bl * wy * (1 - wx) + br * wy * wx


def _frame_by_frame_decode(frames, fps):
    # reference: decode_frames as it was, one float64 frame at a time
    frames = np.asarray(frames, dtype=np.float64)
    n_out = max(1, int(round(len(frames) / fps * 16.0)))
    out = []
    for k in range(n_out):
        gray = frames[min(len(frames) - 1, int(round(k * (fps / 16.0))))]
        if gray.ndim == 3:
            gray = 0.299 * gray[..., 0] + 0.587 * gray[..., 1] + 0.114 * gray[..., 2]
        if gray.shape != (112, 112):
            gray = _ix_resize(gray, 112, 112)
        out.append(_eight_comparison_signature(gray))
    return np.stack(out)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.sampled_from([2, 3, 16, 256]))
def test_block_signatures_of_uint8_equal_float64_frames(seed, n, levels):
    # few levels give many tied pixels, where strictly-greater matters
    rng = np.random.default_rng(seed)
    block = rng.integers(0, levels, size=(n, 112, 112)).astype(np.uint8)
    block[:, rng.integers(112), :] = 255 - block[:, 0, :]  # a row of wrapped-around values
    sigs = census_signatures(block)
    assert sigs.shape == (n, 64) and sigs.dtype == np.float64
    assert np.array_equal(sigs, census_signatures(block.astype(np.float64)))
    for i in range(n):
        frame = block[i].astype(np.float64)
        assert np.array_equal(sigs[i], census_signature(frame))
        assert np.array_equal(sigs[i], _eight_comparison_signature(frame))
        assert np.array_equal(sigs[i], census_signature(block[i]))


def test_block_signatures_reject_other_shapes():
    for shape in [(112, 112), (2, 112, 111), (1, 1, 112, 112)]:
        with pytest.raises(ValidationError, match="112x112"):
            census_signatures(np.zeros(shape, dtype=np.uint8))


_sides = st.integers(1, 40)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), _sides, _sides, _sides, _sides, st.booleans())
def test_bilinear_resize_equals_the_ix_reference(seed, in_h, in_w, out_h, out_w, as_uint8):
    rng = np.random.default_rng(seed)
    frame = rng.integers(0, 256, size=(in_h, in_w)).astype(np.uint8)
    if not as_uint8:
        frame = frame + rng.uniform(-0.5, 0.5, size=frame.shape)
    got = bilinear_resize(frame, out_h, out_w)
    assert got.dtype == np.float64
    assert np.array_equal(got, _ix_resize(frame, out_h, out_w))
    assert np.array_equal(bilinear_resize(frame, out_h, out_w), got)  # from the cached plan


def test_resize_plan_and_bin_table_are_read_only():
    bilinear_resize(np.zeros((7, 5)), 3, 4)
    for array in census._resize_plan(7, 5, 3, 4):
        assert not array.flags.writeable
    table = census._bin_table()
    assert not table.flags.writeable and not table.base.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1


# ---------------------------------------------------------------------------
# The flat run: census_signatures compares each block as one contiguous run
# across frame and row ends, and its bin table discards every position that
# is not an interior pixel.


def _framed_block(rng, n, dtype, levels):
    # interior values in [0, levels); each frame's border rows and columns
    # hold values of their own, above the interior and distinct per frame, so
    # a counted border or row-wrap position changes a histogram
    block = rng.integers(0, levels, size=(n, 112, 112)).astype(dtype)
    for i in range(n):
        edge = rng.permutation(np.arange(100, 212)) + i
        block[i, 0, :], block[i, -1, :] = edge, edge[::-1]
        block[i, :, 0], block[i, :, -1] = edge[::-1], edge
    return block


@pytest.mark.parametrize("n", range(1, census.DECODE_BLOCK + 2))
@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_flat_run_counts_only_interior_pixels(n, dtype):
    rng = np.random.default_rng(100 * n + (dtype == np.uint8))
    block = _framed_block(rng, n, dtype, levels=4)
    sigs = census_signatures(block)
    assert sigs.shape == (n, 64)
    for i in range(n):
        assert np.array_equal(sigs[i], _eight_comparison_signature(block[i].astype(np.float64)))


@pytest.mark.parametrize("view", ["reversed", "strided", "cut", "transposed"])
@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_non_contiguous_blocks_equal_their_contiguous_copies(view, dtype):
    rng = np.random.default_rng(7)
    big = _framed_block(rng, 2 * census.DECODE_BLOCK + 1, dtype, levels=3)
    block = {
        "reversed": big[::-1],
        "strided": big[::2],
        "cut": np.pad(big, ((0, 0), (3, 2), (5, 1)))[:, 3:115, 5:117],
        "transposed": big.transpose(0, 2, 1),
    }[view]
    assert not block.flags.c_contiguous
    sigs = census_signatures(block)
    for i, frame in enumerate(block):
        assert np.array_equal(sigs[i], _eight_comparison_signature(frame.astype(np.float64)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2 * census.DECODE_BLOCK + 1), st.sampled_from([2, 3, 5]))
def test_float64_blocks_with_many_ties_equal_the_reference(seed, n, levels):
    # float levels with a fractional step: ties everywhere, compared as float64
    rng = np.random.default_rng(seed)
    block = rng.integers(0, levels, size=(n, 112, 112)) * 0.37 - 1.5
    sigs = census_signatures(block)
    for i in range(n):
        assert np.array_equal(sigs[i], _eight_comparison_signature(block[i]))


@pytest.mark.parametrize("rgb", [False, True])
def test_decode_of_non_contiguous_video_frames_equals_the_references(rgb):
    rng = np.random.default_rng(31)
    shape = (2 * census.DECODE_BLOCK + 3, 150, 130, 3) if rgb else (2 * census.DECODE_BLOCK + 3, 150, 130)
    frames = rng.integers(0, 5, size=shape).astype(np.uint8)
    view = frames[::-1, ::-1].swapaxes(1, 2)  # reversed in time and rows, then transposed
    got = decode_frames(FrameVideo("view", fps=12.5, frames=view))
    assert np.array_equal(got.frames, _frame_by_frame_decode(view, 12.5))
    for frame in view[:3]:
        gray = to_grayscale(frame) if rgb else frame
        assert np.array_equal(bilinear_resize(gray, 112, 112), _ix_resize(gray, 112, 112))


@pytest.mark.parametrize(
    "side, rgb, fps, count",
    [
        (112, False, 16.0, 40),  # three blocks, no resampling
        (224, False, 10.0, 30),  # upsampled in time: frames repeat
        (224, False, 25.0, 45),  # downsampled in time: frames skipped
        (224, True, 12.5, 20),
        (112, True, 40.0, 50),
        (160, False, 16.0, 1),
        (80, False, 7.0, 17),  # upscaled frames
    ],
)
def test_decode_uint8_video_equals_its_float64_copy(side, rgb, fps, count):
    rng = np.random.default_rng(side + count)
    shape = (count, side, side, 3) if rgb else (count, side, side)
    frames = rng.integers(0, 6, size=shape).astype(np.uint8)  # many ties
    frames[count // 2 :] = 250 - frames[count // 2 :]
    video = FrameVideo("u8", fps=fps, frames=frames)
    assert video.frames is frames
    got = decode_frames(video)
    copy = decode_frames(FrameVideo("f64", fps=fps, frames=frames.astype(np.float64)))
    assert np.array_equal(got.frames, copy.frames)
    assert np.array_equal(got.frames, _frame_by_frame_decode(frames, fps))


def test_decode_resizes_each_distinct_source_frame_once(monkeypatch):
    # the benchmark's tracer counts census.frames_resized from these calls
    calls = []
    resize = census.bilinear_resize
    monkeypatch.setattr(census, "bilinear_resize", lambda *a: calls.append(1) or resize(*a))
    frames = np.zeros((30, 224, 224), dtype=np.uint8)
    assert len(decode_frames(FrameVideo("v", fps=10.0, frames=frames))) == 48
    assert len(calls) == 30  # 48 outputs, each of the 30 frames resized once
    calls.clear()
    assert len(decode_frames(FrameVideo("v", fps=40.0, frames=frames))) == 12
    assert len(calls) == 12


def test_video_keeps_uint8_and_does_not_copy_float64():
    pixels = np.zeros((2, 8, 8), dtype=np.uint8)
    assert FrameVideo("u8", fps=16.0, frames=pixels).frames is pixels
    floats = np.zeros((2, 8, 8))
    assert FrameVideo("f64", fps=16.0, frames=floats).frames is floats
    for other in (pixels.astype(np.int64), pixels.astype(np.float32), pixels.tolist()):
        assert FrameVideo("x", fps=16.0, frames=other).frames.dtype == np.float64


def test_raw_frames_load_as_uint8(tmp_path):
    video = ramp_video("v", members=[0, 1, 2], side=112, fps=16.0)
    path = tmp_path / "v.cfvd"
    save_raw_frames(video, path)
    loaded = load_raw_frames(path)
    assert loaded.frames.dtype == np.uint8
    assert np.array_equal(loaded.frames, np.clip(np.rint(video.frames), 0, 255))


@pytest.mark.parametrize("tile_id", [0, 1, 362879, 362880])
def test_tile_frame_is_the_lexicographic_permutation(tile_id):
    perm = next(islice(permutations(range(9)), tile_id % math.factorial(9), None))
    tile = (10.0 + 30.0 * np.array(perm, dtype=np.float64)).reshape(3, 3)
    assert np.array_equal(tile_frame(tile_id, side=6), np.tile(tile, (2, 2)))


def test_importing_synth_holds_no_permutation_table():
    # numpy is imported first, so the figure is what synth itself holds; a
    # table of all 9! permutations held 42.7 MiB
    code = ("import numpy, tracemalloc; tracemalloc.start(); import corpusforge.synth; "
            "print(tracemalloc.get_traced_memory()[0])")
    src = os.path.dirname(os.path.dirname(census.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 8 * 2**20
