from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpusforge import inflate as inflate_module
from corpusforge import netops
from corpusforge.inflate import (
    _forward_time_slice,
    _time_margins,
    center_crop,
    center_crop_box,
    fcn_transform,
    inflate,
    inflate_net,
    inflation_equivalence,
    scale_shortest_edge,
)
from corpusforge.netops import (
    Conv2dLayer,
    Conv3dLayer,
    DenseLayer,
    GlobalAvgPoolLayer,
    NetSpec,
    ReluLayer,
    SoftmaxLayer,
)
from corpusforge.records import ValidationError


def random_2d_net(rng: np.random.Generator, depth: int, with_head: bool = True) -> NetSpec:
    layers: list = []
    channels = int(rng.integers(1, 4))
    for _ in range(depth):
        out_ch = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        layers.append(
            Conv2dLayer(
                weights=rng.standard_normal((out_ch, channels, k, k)),
                bias=rng.standard_normal(out_ch),
                stride=1,
                same_pad=bool(rng.integers(2)),
            )
        )
        layers.append(ReluLayer())
        channels = out_ch
    if with_head:
        layers.append(GlobalAvgPoolLayer())
        layers.append(DenseLayer(rng.standard_normal((3, channels)), rng.standard_normal(3)))
    return NetSpec(layers)


def random_3d_net(rng: np.random.Generator, depth: int, softmax: bool = False) -> NetSpec:
    layers: list = []
    channels = int(rng.integers(1, 4))
    for _ in range(depth):
        out_ch = int(rng.integers(1, 5))
        kt, k = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        layers.append(
            Conv3dLayer(
                weights=rng.standard_normal((out_ch, channels, kt, k, k)),
                bias=rng.standard_normal(out_ch),
                stride=1,
                same_pad=True,
                time_same_pad=True,
            )
        )
        layers.append(ReluLayer())
        channels = out_ch
    layers.append(GlobalAvgPoolLayer())
    layers.append(DenseLayer(rng.standard_normal((4, channels)), rng.standard_normal(4)))
    if softmax:
        layers.append(SoftmaxLayer())
    return NetSpec(layers)


def test_inflate_k1_identity():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((2, 3, 3, 3))
    out = inflate(w, 1)
    assert out.shape == (2, 3, 1, 3, 3)
    assert np.array_equal(out[:, :, 0], w)


def test_inflate_ones_normalized():
    out = inflate(np.ones((1, 1, 3, 3)), 3)
    assert out.shape == (1, 1, 3, 3, 3)
    assert np.allclose(out, 1.0 / 3.0)


def test_inflate_preserves_time_sum():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((3, 2, 3, 3))
    for k in (1, 2, 3, 5):
        out = inflate(w, k)
        assert np.max(np.abs(out.sum(axis=2) - w)) <= 1e-12


def test_inflate_rejects_bad_k():
    with pytest.raises(ValidationError):
        inflate(np.ones((1, 1, 3, 3)), 0)


@pytest.mark.parametrize("k", [2.5, 3.0, np.float64(2.0), True, "3", None, 0, np.int64(-1)])
def test_inflate_and_the_equivalence_check_reject_a_k_that_is_not_an_integer_of_at_least_one(k):
    message = f"temporal extent k must be an integer >= 1, got {k!r}"
    with pytest.raises(ValidationError) as info:
        inflate(np.ones((1, 1, 3, 3)), k)
    assert str(info.value) == message
    net = NetSpec([Conv2dLayer(np.ones((1, 1, 3, 3)))])
    with pytest.raises(ValidationError) as info:
        inflation_equivalence(net, k, np.ones((1, 5, 5)))
    assert str(info.value) == message


def test_inflate_accepts_a_numpy_integer_k():
    assert inflate(np.ones((1, 1, 3, 3)), np.int64(3)).shape == (1, 1, 3, 3, 3)
    assert inflation_equivalence(NetSpec([Conv2dLayer(np.ones((1, 1, 3, 3)))]), np.int32(2),
                                 np.ones((1, 5, 5))).ok


def test_inflate_net_structure_preserved():
    rng = np.random.default_rng(2)
    net = random_2d_net(rng, depth=2)
    net3d = inflate_net(net, 3)
    assert len(net3d.layers) == len(net.layers)
    kinds2d = [type(l).__name__ for l in net.layers]
    kinds3d = [type(l).__name__ for l in net3d.layers]
    assert kinds3d == [k.replace("Conv2d", "Conv3d") for k in kinds2d]


def test_inflate_net_rejects_a_3d_net():
    net3d = NetSpec([Conv3dLayer(np.ones((1, 1, 3, 3, 3))), ReluLayer()])
    with pytest.raises(ValidationError, match="^cannot inflate layer Conv3dLayer$"):
        inflate_net(net3d, 3)


def test_equivalence_k1_zero_deviation():
    rng = np.random.default_rng(3)
    net = random_2d_net(rng, depth=2)
    x = rng.standard_normal((net.conv_layers()[0].weights.shape[1], 8, 8))
    result = inflation_equivalence(net, 1, x, tol=1e-12)
    assert result.ok
    assert result.max_deviation <= 1e-12


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
def test_equivalence_rejects_a_tol_not_finite_and_non_negative(tol):
    rng = np.random.default_rng(3)
    net = random_2d_net(rng, depth=2)
    x = rng.standard_normal((net.conv_layers()[0].weights.shape[1], 8, 8))
    with pytest.raises(ValidationError, match=f"^tol must be finite and >= 0, got {tol}$"):
        inflation_equivalence(net, 1, x, tol=tol)
    assert inflation_equivalence(net, 1, x, tol=0.0).ok  # k=1 inflates exactly


def test_equivalence_random_nets():
    rng = np.random.default_rng(4)
    for _ in range(6):
        depth = int(rng.integers(1, 5))
        net = random_2d_net(rng, depth)
        x = rng.standard_normal((net.conv_layers()[0].weights.shape[1], 9, 9))
        for k in (1, 2, 3, 5):
            result = inflation_equivalence(net, k, x, tol=1e-5)
            assert result.ok, f"deviation {result.max_deviation} at k={k}"


def test_equivalence_conv_only_net():
    rng = np.random.default_rng(5)
    net = random_2d_net(rng, depth=2, with_head=False)
    x = rng.standard_normal((net.conv_layers()[0].weights.shape[1], 7, 7))
    assert inflation_equivalence(net, 3, x, tol=1e-5).ok


def test_negative_control_unnormalized_fails():
    rng = np.random.default_rng(6)
    net = random_2d_net(rng, depth=2)
    x = rng.standard_normal((net.conv_layers()[0].weights.shape[1], 8, 8))
    for k in (2, 3, 5):
        result = inflation_equivalence(net, k, x, tol=1e-5, normalize=False)
        assert not result.ok


def test_negative_control_deviation_scale():
    # single bias-free conv: unnormalized inflation multiplies the response
    # by k, so the deviation is exactly (k - 1) times the 2D output
    rng = np.random.default_rng(7)
    net = NetSpec([Conv2dLayer(rng.standard_normal((2, 1, 3, 3)), None, 1, False)])
    x = rng.standard_normal((1, 6, 6))
    out2d = net.forward(x)
    for k in (2, 3, 5):
        result = inflation_equivalence(net, k, x, tol=1e-5, normalize=False)
        want = (k - 1) * float(np.max(np.abs(out2d)))
        assert result.max_deviation == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# The check runs each conv time-VALID over one slice's receptive field.  The
# reference is the full-padding pass it replaced: every conv time-SAME over all
# left + right + 1 slices, then one slice read.


def _full_padding_time_slice(net3d: NetSpec, x3d: np.ndarray, t_index: int) -> np.ndarray:
    out = np.asarray(x3d, dtype=np.float64)
    sliced = False
    for layer in net3d.layers:
        if isinstance(layer, GlobalAvgPoolLayer) and not sliced:
            out = out[:, t_index].reshape(out.shape[0], -1).mean(axis=1)
            sliced = True
        else:
            out = layer.forward(out)
    if not sliced:
        out = out[:, t_index]
    return out


@st.composite
def _inflation_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = c_in = draw(st.integers(1, 3))
    layers: list = []
    for _ in range(draw(st.integers(1, 3))):
        out_ch, kernel = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        layers += [
            Conv2dLayer(
                weights=rng.standard_normal((out_ch, channels, kernel, kernel)),
                bias=rng.standard_normal(out_ch) if draw(st.booleans()) else None,
                stride=draw(st.integers(1, 2)),
                same_pad=draw(st.booleans()),
            ),
            ReluLayer(),
        ]
        channels = out_ch
    if draw(st.booleans()):
        layers += [GlobalAvgPoolLayer(), DenseLayer(rng.standard_normal((3, channels)))]
    k, normalize, replicated = draw(st.integers(1, 7)), draw(st.booleans()), draw(st.booleans())
    return NetSpec(layers), k, normalize, rng, c_in, draw(st.integers(1, 12)), replicated


@settings(max_examples=300, deadline=None)
@given(_inflation_cases())
def test_time_valid_pass_matches_the_full_padding_pass(case):
    net2d, k, normalize, rng, c_in, side, replicated = case
    x2d = rng.standard_normal((c_in, side, side))
    try:
        net2d.forward(x2d)
    except ValidationError:
        assume(False)  # the image is smaller than a kernel somewhere
    net3d = inflate_net(net2d, k, normalize=normalize)
    left, right = _time_margins(net3d)
    t_total = left + right + 1
    if replicated:
        x3d = np.repeat(x2d[:, None], t_total, axis=1)
    else:  # any input: the receptive field never reaches the zero time-padding
        x3d = rng.standard_normal((c_in, t_total, side, side))
    got = _forward_time_slice(net3d, x3d)
    want = _full_padding_time_slice(net3d, x3d, left)
    assert got.dtype == np.float64 and got.shape == want.shape
    if k == 1:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * float(np.max(np.abs(want), initial=0.0)))


def _three_conv_net(rng: np.random.Generator, widths: tuple[int, ...]) -> NetSpec:
    layers: list = []
    for c_in, c_out in zip(widths, widths[1:]):
        w = rng.standard_normal((c_out, c_in, 3, 3)) / math.sqrt(9 * c_in)
        layers += [Conv2dLayer(w, 0.1 * rng.standard_normal(c_out), 1, True), ReluLayer()]
    layers += [GlobalAvgPoolLayer(), DenseLayer(rng.standard_normal((10, widths[-1])), rng.standard_normal(10))]
    return NetSpec(layers)


def test_each_inflated_conv_computes_only_the_slices_the_next_one_reads(monkeypatch):
    rng = np.random.default_rng(12)
    net = _three_conv_net(rng, (3, 4, 4, 4))
    time_lengths = []
    conv3d = netops.conv3d_forward

    def counted(*args, **kwargs):
        out = conv3d(*args, **kwargs)
        time_lengths.append(out.shape[1])
        return out

    monkeypatch.setattr(netops, "conv3d_forward", counted)
    assert inflation_equivalence(net, 5, rng.standard_normal((3, 8, 8))).ok
    assert time_lengths == [9, 5, 1]


def test_equivalence_memory_peak_at_k5():
    # the full-padding pass peaked at ~180 MiB here: a (64, 13, 24, 24, 5, 3, 3) window copy
    rng = np.random.default_rng(13)
    net = _three_conv_net(rng, (3, 32, 64, 64))
    x = rng.standard_normal((3, 24, 24))
    tracemalloc.start()
    try:
        result = inflation_equivalence(net, 5, x)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok
    assert peak < 64 * 2**20


@pytest.mark.parametrize("shape", [(8, 8), (1, 1, 8, 8), (), (8,)])
def test_equivalence_rejects_an_image_that_is_not_3d_before_inflating(monkeypatch, shape):
    rng = np.random.default_rng(14)
    net = random_2d_net(rng, depth=1)

    def no_inflation(*args, **kwargs):
        raise AssertionError("inflated before the input was checked")

    monkeypatch.setattr(inflate_module, "inflate_net", no_inflation)
    with pytest.raises(ValidationError, match=r"^x2d must be a \(c, h, w\) image, got shape "):
        inflation_equivalence(net, 3, np.zeros(shape))


# ---------------------------------------------------------------------------
# fcn transform


def test_fcn_logit_exact_on_training_size():
    rng = np.random.default_rng(8)
    for _ in range(5):
        net = random_3d_net(rng, depth=int(rng.integers(1, 4)))
        fcn = fcn_transform(net)
        channels = net.conv_layers()[0].weights.shape[1]
        x = rng.standard_normal((channels, 4, 8, 8))
        assert np.max(np.abs(fcn.forward(x) - net.forward(x))) <= 1e-6


def test_fcn_trivial_on_unit_feature_map():
    rng = np.random.default_rng(9)
    net = NetSpec(
        [
            Conv3dLayer(rng.standard_normal((2, 1, 1, 3, 3)), None, 1, False, False),
            GlobalAvgPoolLayer(),
            DenseLayer(rng.standard_normal((3, 2)), rng.standard_normal(3)),
        ]
    )
    fcn = fcn_transform(net)
    x = rng.standard_normal((1, 1, 3, 3))  # valid conv -> 1x1x1 feature map
    assert np.allclose(fcn.forward(x), net.forward(x))


def test_fcn_accepts_larger_inputs():
    rng = np.random.default_rng(10)
    net = random_3d_net(rng, depth=2, softmax=True)
    fcn = fcn_transform(net)
    channels = net.conv_layers()[0].weights.shape[1]
    big = rng.standard_normal((channels, 6, 16, 20))
    out = fcn.forward(big)
    assert out.shape == (4,)
    assert np.all(np.isfinite(out))


def test_fcn_requires_dense_after_pool():
    with pytest.raises(ValidationError, match="dense"):
        fcn_transform(NetSpec([GlobalAvgPoolLayer()]))
    rng = np.random.default_rng(11)
    with pytest.raises(ValidationError, match="pooling"):
        fcn_transform(NetSpec([DenseLayer(rng.standard_normal((2, 2)))]))


# ---------------------------------------------------------------------------
# frame scaling helpers


@pytest.mark.parametrize(
    "dims,expected",
    [((128, 171), (128, 171)), ((256, 342), (128, 171)), ((200, 100), (256, 128))],
)
def test_scale_shortest_edge(dims, expected):
    assert scale_shortest_edge(dims) == expected


def test_center_crop():
    assert center_crop_box((128, 171)) == (0, 21, 128, 128)
    frame = np.arange(130 * 140, dtype=np.float64).reshape(130, 140)
    crop = center_crop(frame, 128)
    assert crop.shape == (128, 128)
    assert crop[0, 0] == frame[1, 6]
    with pytest.raises(ValidationError):
        center_crop_box((100, 100), 128)
