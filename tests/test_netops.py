from __future__ import annotations

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
    net = NetSpec([
        Conv2dLayer(np.ones((2, 1, 3, 3))),
        Conv3dLayer(np.ones((2, 2, 1, 1, 1))),
        GlobalAvgPoolLayer(),
        DenseLayer(np.ones((3, 2))),
    ])
    save_net(net, tmp_path / "net.json")
    assert [np.ndim(l.weights) for l in load_net(tmp_path / "net.json").conv_layers()] == [4, 5]
