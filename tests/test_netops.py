from __future__ import annotations

import json

import numpy as np
import pytest

from corpusforge.netops import (
    Conv2dLayer,
    Conv3dLayer,
    DenseLayer,
    GlobalAvgPoolLayer,
    NetSpec,
    ReluLayer,
    conv2d_forward,
    conv3d_forward,
    load_net,
    save_net,
)
from corpusforge.records import ValidationError

_CASES = {
    "conv2d": (conv2d_forward, np.ones((1, 4, 4)), np.ones((2, 1, 3, 3))),
    "conv3d": (conv3d_forward, np.ones((1, 3, 4, 4)), np.ones((2, 1, 1, 3, 3))),
}


@pytest.mark.parametrize("name", sorted(_CASES))
@pytest.mark.parametrize("bias", [np.ones(3), np.ones(1), np.ones((2, 1)), np.float64(1.0)])
def test_conv_rejects_a_bias_that_is_not_one_per_output_channel(name, bias):
    conv, x, w = _CASES[name]
    with pytest.raises(ValidationError) as info:
        conv(x, w, bias)
    assert str(info.value) == f"{name} bias shape {np.shape(bias)}, expected (2,)"
    assert conv(x, w, np.ones(2)).shape[0] == 2


@pytest.mark.parametrize("name", sorted(_CASES))
@pytest.mark.parametrize("stride", [1.5, 2.0, "2", None])
def test_conv_rejects_a_stride_that_is_not_an_integer(name, stride):
    conv, x, w = _CASES[name]
    with pytest.raises(ValidationError) as info:
        conv(x, w, stride=stride)
    assert str(info.value) == f"{name} stride must be an integer, got {stride!r}"
    assert conv(x, w, stride=np.int64(2)).shape == conv(x, w, stride=2).shape


@pytest.mark.parametrize("name", sorted(_CASES))
def test_conv_keeps_the_message_for_a_stride_below_one(name):
    conv, x, w = _CASES[name]
    with pytest.raises(ValidationError, match=f"^{name} stride must be >= 1, got 0$"):
        conv(x, w, stride=0)


@pytest.mark.parametrize(
    "layer,ndim,shape",
    [
        (Conv2dLayer(np.ones((2, 1, 3))), 4, (2, 1, 3)),
        (Conv2dLayer(np.ones((2, 1, 1, 3, 3))), 4, (2, 1, 1, 3, 3)),
        (Conv3dLayer(np.ones((2, 1, 3, 3))), 5, (2, 1, 3, 3)),
        (DenseLayer(np.ones(3)), 2, (3,)),
        (DenseLayer(np.ones((3, 2, 1))), 2, (3, 2, 1)),
    ],
)
def test_netspec_rejects_weights_of_the_wrong_rank(layer, ndim, shape):
    with pytest.raises(ValidationError) as info:
        NetSpec([ReluLayer(), layer])
    assert str(info.value) == f"layer 1: weights must be {ndim}-D, got shape {shape}"


def test_netspec_accepts_weights_of_each_layer_rank(tmp_path):
    # a net's convs are all 2D or all 3D, so each conv rank gets its own net
    for ndim, convs in [
        (4, [Conv2dLayer(np.ones((2, 1, 3, 3))), Conv2dLayer(np.ones((2, 2, 1, 1)))]),
        (5, [Conv3dLayer(np.ones((2, 1, 1, 3, 3))), Conv3dLayer(np.ones((2, 2, 1, 1, 1)))]),
    ]:
        save_net(NetSpec([*convs, GlobalAvgPoolLayer(), DenseLayer(np.ones((3, 2)))]), tmp_path / "net.json")
        loaded = load_net(tmp_path / "net.json")
        assert [np.ndim(l.weights) for l in loaded.conv_layers()] == [ndim, ndim]
        assert np.ndim(loaded.layers[-1].weights) == 2


_MIXED = [
    ([Conv2dLayer(np.ones((2, 1, 3, 3))), Conv3dLayer(np.ones((2, 2, 1, 1, 1)))],
     "layer 1: Conv3dLayer after a Conv2dLayer; a net's convs are all 2D or all 3D"),
    ([Conv3dLayer(np.ones((2, 1, 1, 3, 3))), ReluLayer(), Conv2dLayer(np.ones((2, 2, 1, 1)))],
     "layer 2: Conv2dLayer after a Conv3dLayer; a net's convs are all 2D or all 3D"),
]


@pytest.mark.parametrize("layers,message", _MIXED, ids=["2d-then-3d", "3d-then-2d"])
def test_netspec_rejects_a_net_that_mixes_2d_and_3d_convs(layers, message):
    with pytest.raises(ValidationError) as info:
        NetSpec(layers)
    assert str(info.value) == message


@pytest.mark.parametrize("layers,message", _MIXED, ids=["2d-then-3d", "3d-then-2d"])
def test_load_net_names_the_file_and_the_layer_of_a_mixed_net(tmp_path, layers, message):
    # each net is valid up to the offending conv; save it whole, then splice the conv in
    path = tmp_path / "net.json"
    save_net(NetSpec(layers[:-1]), path)
    save_net(NetSpec(layers[-1:]), tmp_path / "last.json")
    descriptor = json.loads(path.read_text())
    descriptor["layers"] += json.loads((tmp_path / "last.json").read_text())["layers"]
    path.write_text(json.dumps(descriptor))
    with pytest.raises(ValidationError) as info:
        load_net(path)
    assert str(info.value) == f"{path}: {message}"
