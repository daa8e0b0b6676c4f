from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge import netops
from corpusforge.inflate import _time_margins
from corpusforge.netops import (
    Conv2dLayer,
    Conv3dLayer,
    DenseLayer,
    GlobalAvgPoolLayer,
    NetSpec,
    ReluLayer,
    SoftmaxLayer,
    conv2d_forward,
    conv3d_forward,
    load_net,
    same_padding,
    save_net,
)
from corpusforge.records import ValidationError
from corpusforge.tensor import load_weights, save_weights

from oracles import conv2d_oracle, conv3d_oracle


def test_wtsr_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensor = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    p1, p2 = tmp_path / "a.wtsr", tmp_path / "b.wtsr"
    save_weights(tensor, p1)
    loaded = load_weights(p1)
    assert loaded.ndim == 4 and loaded.dtype == np.float32
    assert np.array_equal(loaded, tensor)
    save_weights(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_wtsr_any_rank_loads_and_errors(tmp_path):
    save_weights(np.zeros(5, dtype=np.float32), tmp_path / "v.wtsr")
    assert load_weights(tmp_path / "v.wtsr").ndim == 1
    (tmp_path / "bad.wtsr").write_bytes(b"XXXX\x01\x00\x00\x01")
    with pytest.raises(ValidationError, match="magic"):
        load_weights(tmp_path / "bad.wtsr")
    with pytest.raises(ValidationError, match="non-finite"):
        save_weights(np.array([np.nan]), tmp_path / "nan.wtsr")
    with pytest.raises(ValidationError, match="non-finite"), np.errstate(over="ignore"):
        save_weights(np.array([1e300]), tmp_path / "big.wtsr")  # finite in float64, inf in float32
    assert not (tmp_path / "big.wtsr").exists()


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 6, 6))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    assert np.allclose(conv2d_forward(x, w), x)


def test_conv2d_box_kernel_on_constant():
    x = np.ones((1, 5, 5))
    w = np.ones((1, 1, 3, 3))
    out = conv2d_forward(x, w)
    assert out.shape == (1, 3, 3)
    assert np.allclose(out, 9.0)


def test_conv2d_matches_oracle_random_cases():
    rng = np.random.default_rng(2)
    for _ in range(70):
        c, o = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w_ = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        kh, kw = int(rng.integers(1, min(3, h) + 1)), int(rng.integers(1, min(3, w_) + 1))
        stride = int(rng.integers(1, 3))
        same = bool(rng.integers(2))
        x = rng.standard_normal((c, h, w_))
        w = rng.standard_normal((o, c, kh, kw))
        b = rng.standard_normal(o)
        got = conv2d_forward(x, w, b, stride=stride, same_pad=same)
        want = conv2d_oracle(x, w, b, stride=stride, same_pad=same)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-6


def test_conv2d_named_example_against_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 4, 4))
    w = rng.standard_normal((3, 2, 3, 3))
    assert np.max(np.abs(conv2d_forward(x, w) - conv2d_oracle(x, w))) <= 1e-6


def test_conv3d_depth_one_equals_conv2d():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 5, 5))
    w2 = rng.standard_normal((3, 2, 3, 3))
    out2 = conv2d_forward(x, w2)
    out3 = conv3d_forward(x[:, None], w2[:, :, None], time_same_pad=False)
    assert np.allclose(out3[:, 0], out2)


def test_conv3d_constant_in_time_interior_is_constant():
    rng = np.random.default_rng(5)
    x2 = rng.standard_normal((1, 6, 6))
    x3 = np.repeat(x2[:, None], 7, axis=1)
    w = rng.standard_normal((2, 1, 3, 3, 3))
    out = conv3d_forward(x3, w, same_pad=True, time_same_pad=True)
    interior = out[:, 1:-1]
    assert np.allclose(interior, interior[:, :1])


def test_conv3d_matches_oracle_random_cases():
    rng = np.random.default_rng(6)
    for _ in range(30):
        c, o = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        t, h, w_ = int(rng.integers(2, 5)), int(rng.integers(3, 6)), int(rng.integers(3, 6))
        kt = int(rng.integers(1, t + 1))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        same = bool(rng.integers(2))
        x = rng.standard_normal((c, t, h, w_))
        w = rng.standard_normal((o, c, kt, kh, kw))
        got = conv3d_forward(x, w, same_pad=same)
        want = conv3d_oracle(x, w, same_pad=same)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-6


def test_conv_shape_mismatch_errors():
    with pytest.raises(ValidationError):
        conv2d_forward(np.zeros((2, 4, 4)), np.zeros((1, 3, 2, 2)))
    with pytest.raises(ValidationError):
        conv3d_forward(np.zeros((1, 2, 4, 4)), np.zeros((1, 1, 3, 2, 2)))


def test_netspec_dense_rules():
    dense = DenseLayer(np.zeros((2, 3)))
    with pytest.raises(ValidationError, match="at most one dense"):
        NetSpec([dense, DenseLayer(np.zeros((2, 2)))])
    with pytest.raises(ValidationError, match="terminal"):
        NetSpec([dense, ReluLayer()])
    NetSpec([GlobalAvgPoolLayer(), dense, SoftmaxLayer()])  # softmax may follow


def test_netspec_channel_chain_checked_up_front():
    with pytest.raises(ValidationError, match="input channels"):
        NetSpec(
            [
                Conv2dLayer(np.zeros((2, 1, 3, 3))),
                Conv2dLayer(np.zeros((4, 3, 3, 3))),  # expects 3, gets 2
            ]
        )
    with pytest.raises(ValidationError, match="features"):
        NetSpec(
            [
                Conv2dLayer(np.zeros((2, 1, 3, 3))),
                GlobalAvgPoolLayer(),
                DenseLayer(np.zeros((5, 3))),  # expects 3 features, gets 2
            ]
        )
    with pytest.raises(ValidationError, match="conv after global pooling"):
        NetSpec([GlobalAvgPoolLayer(), Conv2dLayer(np.zeros((1, 1, 1, 1)))])


def test_net_forward_and_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    net = NetSpec(
        [
            Conv2dLayer(rng.standard_normal((3, 1, 3, 3)), rng.standard_normal(3), 1, True),
            ReluLayer(),
            GlobalAvgPoolLayer(),
            DenseLayer(rng.standard_normal((4, 3)), rng.standard_normal(4)),
        ]
    )
    x = rng.standard_normal((1, 8, 8))
    want = net.forward(x)
    assert want.shape == (4,)
    path = tmp_path / "net.json"
    save_net(net, path)
    loaded = load_net(path)
    assert np.allclose(loaded.forward(x), want)


def test_bare_wtsr_loads_as_single_conv_net(tmp_path):
    rng = np.random.default_rng(8)
    w = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
    save_weights(w, tmp_path / "w.wtsr")
    net = load_net(tmp_path / "w.wtsr")
    assert net.is_2d()
    x = rng.standard_normal((1, 6, 6))
    assert np.allclose(net.forward(x), conv2d_forward(x, w.astype(np.float64), same_pad=True))


def test_softmax_layer_normalizes():
    out = SoftmaxLayer().forward(np.array([1.0, 2.0, 3.0]))
    assert abs(out.sum() - 1.0) < 1e-12
    assert np.argmax(out) == 2


# ---------------------------------------------------------------------------
# One kernel behind both ranks: the two einsum kernels it replaced are the
# bit-for-bit reference.


def _old_pad_amounts(kernel):
    left = (kernel - 1) // 2
    return left, kernel - 1 - left


def _old_conv2d(x, w, bias, stride, same_pad):
    _o, _c, kh, kw = w.shape
    if same_pad:
        (pt, pb), (pl, pr) = _old_pad_amounts(kh), _old_pad_amounts(kw)
        x = np.pad(x, ((0, 0), (pt, pb), (pl, pr)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    out = np.einsum("cijhw,ochw->oij", windows, w, optimize=True)
    if bias is not None:
        out = out + bias[:, None, None]
    return out


def _old_conv3d(x, w, bias, stride, same_pad, time_same_pad):
    _o, _c, kt, kh, kw = w.shape
    if time_same_pad is None:
        time_same_pad = same_pad
    pads = [(0, 0)]
    pads.append(_old_pad_amounts(kt) if time_same_pad else (0, 0))
    pads.append(_old_pad_amounts(kh) if same_pad else (0, 0))
    pads.append(_old_pad_amounts(kw) if same_pad else (0, 0))
    x = np.pad(x, pads)
    windows = np.lib.stride_tricks.sliding_window_view(x, (kt, kh, kw), axis=(1, 2, 3))
    windows = windows[:, :, ::stride, ::stride]
    out = np.einsum("ctijkhw,ockhw->otij", windows, w, optimize=True)
    if bias is not None:
        out = out + bias[:, None, None, None]
    return out


@st.composite
def _conv_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sides = draw(st.lists(st.integers(1, 7), min_size=2, max_size=3))
    kernel = [draw(st.integers(1, side)) for side in sides]
    c, o = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    x = rng.standard_normal((c, *sides))
    if draw(st.booleans()):
        x[x < 0] = 0.0  # zero products, where a -0.0 would show
    w = rng.standard_normal((o, c, *kernel))
    bias = rng.standard_normal(o) if draw(st.booleans()) else None
    flags = dict(stride=draw(st.integers(1, 3)), same_pad=draw(st.booleans()))
    if len(sides) == 3:
        flags["time_same_pad"] = draw(st.sampled_from([None, False, True]))
    return x, w, bias, flags


@settings(max_examples=300, deadline=None)
@given(_conv_cases())
def test_conv_equals_the_old_einsum_kernels_bit_for_bit(case):
    x, w, bias, flags = case
    if x.ndim == 3:
        got = conv2d_forward(x, w, bias, **flags)
        want = _old_conv2d(x, w, bias, **flags)
        # conv3d over a unit time axis runs the same contraction
        unit_time = conv3d_forward(x[:, None], w[:, :, None], bias, **flags)[:, 0]
        assert unit_time.tobytes() == want.tobytes()
    else:
        got = conv3d_forward(x, w, bias, **flags)
        want = _old_conv3d(x, w, bias, **flags)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 9) | st.none(), max_size=5))
def test_time_margins_sum_the_same_padding_of_each_time_kernel(kernels):
    layers = [
        ReluLayer() if kt is None else Conv3dLayer(np.zeros((1, 1, kt, 1, 1)))
        for kt in kernels
    ]
    want_left = sum((kt - 1) // 2 for kt in kernels if kt is not None)
    want_right = sum(kt - 1 - (kt - 1) // 2 for kt in kernels if kt is not None)
    assert _time_margins(NetSpec(layers)) == (want_left, want_right)
    assert [same_padding(kt) for kt in (1, 2, 3, 4, 5)] == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]


def test_each_public_conv_runs_the_kernel_once(monkeypatch):
    calls = []
    kernel = netops._conv

    def counted(*args):
        calls.append(args[0])
        return kernel(*args)

    def no_3d(*args, **kwargs):
        raise AssertionError("conv2d_forward called conv3d_forward")

    monkeypatch.setattr(netops, "_conv", counted)
    with monkeypatch.context() as patched:
        patched.setattr(netops, "conv3d_forward", no_3d)
        conv2d_forward(np.ones((1, 4, 4)), np.ones((2, 1, 3, 3)), same_pad=True)
        Conv2dLayer(np.ones((2, 1, 3, 3))).forward(np.ones((1, 4, 4)))
    assert calls == ["conv2d", "conv2d"]
    conv3d_forward(np.ones((1, 3, 4, 4)), np.ones((2, 1, 3, 3, 3)))
    Conv3dLayer(np.ones((2, 1, 3, 3, 3))).forward(np.ones((1, 3, 4, 4)))
    assert calls == ["conv2d", "conv2d", "conv3d", "conv3d"]


@pytest.mark.parametrize("stride", [0, -1])
def test_conv_rejects_a_stride_below_one(stride):
    with pytest.raises(ValidationError, match=f"^conv2d stride must be an integer >= 1, got {stride}$"):
        conv2d_forward(np.ones((1, 4, 4)), np.ones((1, 1, 2, 2)), stride=stride)
    with pytest.raises(ValidationError, match=f"^conv3d stride must be an integer >= 1, got {stride}$"):
        conv3d_forward(np.ones((1, 2, 4, 4)), np.ones((1, 1, 2, 2, 2)), stride=stride)


# ---------------------------------------------------------------------------
# Net flags are typed: JSON true/false pads and an integer stride.

_BAD_FLAGS = [
    ("conv2d", "same_pad", "false", "same_pad must be bool, got 'false'"),
    ("conv2d", "same_pad", None, "same_pad must be bool, got None"),
    ("conv2d", "same_pad", 1, "same_pad must be bool, got 1"),
    ("conv3d", "time_same_pad", "true", "time_same_pad must be bool, got 'true'"),
    ("conv3d", "time_same_pad", 0, "time_same_pad must be bool, got 0"),
    ("conv2d", "stride", 2.5, "stride must be int, got 2.5"),
    ("conv2d", "stride", 2.0, "stride must be int, got 2.0"),
    ("conv2d", "stride", "2", "stride must be int, got '2'"),
    ("conv3d", "stride", True, "stride must be int, got True"),
    ("conv3d", "stride", None, "stride must be int, got None"),
]


@pytest.mark.parametrize("kind, flag, value, message", _BAD_FLAGS)
def test_load_net_rejects_an_untyped_flag_naming_file_and_layer(tmp_path, kind, flag, value, message):
    conv = Conv2dLayer(np.ones((1, 1, 3, 3))) if kind == "conv2d" else Conv3dLayer(np.ones((1, 1, 3, 3, 3)))
    path = tmp_path / "net.json"
    save_net(NetSpec([ReluLayer(), conv]), path)
    doc = json.loads(path.read_text())
    doc["layers"][1][flag] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as info:
        load_net(path)
    assert str(info.value) == f"{path}: layer 1: {message}"


@pytest.mark.parametrize("kind, flag, value, message", _BAD_FLAGS)
def test_netspec_rejects_an_untyped_flag(kind, flag, value, message):
    conv = Conv2dLayer(np.ones((1, 1, 3, 3))) if kind == "conv2d" else Conv3dLayer(np.ones((1, 1, 3, 3, 3)))
    setattr(conv, flag, value)
    with pytest.raises(ValidationError) as info:
        NetSpec([conv])
    assert str(info.value) == f"layer 0: {message}"

