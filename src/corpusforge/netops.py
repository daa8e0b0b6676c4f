"""Minimal forward-only network: convolutions, ReLU, pooling, dense head.

Convolution uses the cross-correlation convention (no kernel flip) with
zero padding in "same" mode.  Everything computes in float64 with a fixed
summation order, so results are reproducible bit-for-bit.

A net is an ordered list of layers; at most one dense layer, which must be
terminal (an optional softmax may follow it).  Net descriptions can be saved
as a JSON file referencing one WTSR weight file per parameter tensor.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .records import ValidationError
from .tensor import Layout, WeightTensor, load_weights, save_weights


def softmax(z: np.ndarray, axis: int | None) -> np.ndarray:
    """Max-shifted softmax along ``axis`` (None: over the whole array)."""
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _pad_amounts(kernel: int) -> tuple[int, int]:
    # SAME padding for stride 1: total k-1, split (left, right)
    left = (kernel - 1) // 2
    return left, kernel - 1 - left


def conv2d_forward(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    same_pad: bool = False,
) -> np.ndarray:
    """(c,h,w) x (o,c,kh,kw) -> (o,h',w') direct convolution."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.ndim != 3 or w.ndim != 4:
        raise ValidationError(f"conv2d shapes: x {x.shape}, w {w.shape}")
    if x.shape[0] != w.shape[1]:
        raise ValidationError(
            f"conv2d channel mismatch: input {x.shape[0]}, kernel {w.shape[1]}"
        )
    _o, _c, kh, kw = w.shape
    if same_pad:
        (pt, pb), (pl, pr) = _pad_amounts(kh), _pad_amounts(kw)
        x = np.pad(x, ((0, 0), (pt, pb), (pl, pr)))
    if x.shape[1] < kh or x.shape[2] < kw:
        raise ValidationError(f"input {x.shape} smaller than kernel {(kh, kw)}")
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]  # (c, h', w', kh, kw)
    out = np.einsum("cijhw,ochw->oij", windows, w, optimize=True)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)[:, None, None]
    return out


def conv3d_forward(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    same_pad: bool = False,
    time_same_pad: bool | None = None,
) -> np.ndarray:
    """(c,t,h,w) x (o,c,kt,kh,kw) -> (o,t',h',w').

    Spatial and temporal padding are controlled independently; the temporal
    flag defaults to the spatial one and temporal stride is always 1.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.ndim != 4 or w.ndim != 5:
        raise ValidationError(f"conv3d shapes: x {x.shape}, w {w.shape}")
    if x.shape[0] != w.shape[1]:
        raise ValidationError(
            f"conv3d channel mismatch: input {x.shape[0]}, kernel {w.shape[1]}"
        )
    _o, _c, kt, kh, kw = w.shape
    if time_same_pad is None:
        time_same_pad = same_pad
    pads = [(0, 0)]
    pads.append(_pad_amounts(kt) if time_same_pad else (0, 0))
    pads.append(_pad_amounts(kh) if same_pad else (0, 0))
    pads.append(_pad_amounts(kw) if same_pad else (0, 0))
    x = np.pad(x, pads)
    if x.shape[1] < kt or x.shape[2] < kh or x.shape[3] < kw:
        raise ValidationError(f"input {x.shape} smaller than kernel {(kt, kh, kw)}")
    windows = np.lib.stride_tricks.sliding_window_view(x, (kt, kh, kw), axis=(1, 2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (c, t', h', w', kt, kh, kw)
    out = np.einsum("ctijkhw,ockhw->otij", windows, w, optimize=True)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)[:, None, None, None]
    return out


# ---------------------------------------------------------------------------
# Layers and NetSpec.


@dataclass
class Conv2dLayer:
    weights: np.ndarray  # (out, in, kh, kw)
    bias: np.ndarray | None = None
    stride: int = 1
    same_pad: bool = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        return conv2d_forward(x, self.weights, self.bias, self.stride, self.same_pad)


@dataclass
class Conv3dLayer:
    weights: np.ndarray  # (out, in, kt, kh, kw)
    bias: np.ndarray | None = None
    stride: int = 1
    same_pad: bool = True
    time_same_pad: bool = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        return conv3d_forward(
            x, self.weights, self.bias, self.stride, self.same_pad, self.time_same_pad
        )


@dataclass
class ReluLayer:
    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


@dataclass
class GlobalAvgPoolLayer:
    """Average over all non-channel axes: (c, ...) -> (c,)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1).mean(axis=1)


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.weights, dtype=np.float64) @ x
        if self.bias is not None:
            out = out + np.asarray(self.bias, dtype=np.float64)
        return out


@dataclass
class SoftmaxLayer:
    def forward(self, x: np.ndarray) -> np.ndarray:
        return softmax(x, axis=0)


Layer = Union[Conv2dLayer, Conv3dLayer, ReluLayer, GlobalAvgPoolLayer, DenseLayer, SoftmaxLayer]


@dataclass
class NetSpec:
    layers: list[Layer] = field(default_factory=list)

    def __post_init__(self) -> None:
        dense_positions = [
            i for i, l in enumerate(self.layers) if isinstance(l, DenseLayer)
        ]
        if len(dense_positions) > 1:
            raise ValidationError("at most one dense layer allowed")
        if dense_positions:
            after = self.layers[dense_positions[0] + 1 :]
            if any(not isinstance(l, SoftmaxLayer) for l in after):
                raise ValidationError("dense layer must be terminal (softmax may follow)")
        self._validate_channel_chain()

    def _validate_channel_chain(self) -> None:
        channels: int | None = None
        pooled = False
        for i, layer in enumerate(self.layers):
            if isinstance(layer, (Conv2dLayer, Conv3dLayer)):
                if pooled:
                    raise ValidationError(f"layer {i}: conv after global pooling")
                out_ch, in_ch = layer.weights.shape[0], layer.weights.shape[1]
                if channels is not None and in_ch != channels:
                    raise ValidationError(
                        f"layer {i}: expects {in_ch} input channels, gets {channels}"
                    )
                if layer.bias is not None and np.asarray(layer.bias).shape != (out_ch,):
                    raise ValidationError(f"layer {i}: bias shape mismatch")
                channels = out_ch
            elif isinstance(layer, GlobalAvgPoolLayer):
                pooled = True
            elif isinstance(layer, DenseLayer):
                out_dim, in_dim = np.asarray(layer.weights).shape
                if channels is not None and in_dim != channels:
                    raise ValidationError(
                        f"layer {i}: dense expects {in_dim} features, gets {channels}"
                    )
                if layer.bias is not None and np.asarray(layer.bias).shape != (out_dim,):
                    raise ValidationError(f"layer {i}: bias shape mismatch")
                channels = out_dim

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def conv_layers(self) -> list[Conv2dLayer | Conv3dLayer]:
        return [l for l in self.layers if isinstance(l, (Conv2dLayer, Conv3dLayer))]

    def is_2d(self) -> bool:
        convs = self.conv_layers()
        return bool(convs) and all(isinstance(l, Conv2dLayer) for l in convs)


# ---------------------------------------------------------------------------
# Net persistence: JSON descriptor + one WTSR file per parameter tensor.

NET_FORMAT_TAG = "corpusforge-net-v1"


def save_net(net: NetSpec, path: str | Path) -> None:
    path = Path(path)
    stem, parent = path.stem, path.parent
    parent.mkdir(parents=True, exist_ok=True)
    described = []
    for i, layer in enumerate(net.layers):
        if isinstance(layer, (Conv2dLayer, Conv3dLayer)):
            kind = "conv2d" if isinstance(layer, Conv2dLayer) else "conv3d"
            layout = Layout.CONV2D if kind == "conv2d" else Layout.CONV3D
            wfile = f"{stem}_l{i}_w.wtsr"
            save_weights(WeightTensor(layer.weights, layout), parent / wfile)
            entry: dict[str, object] = {
                "kind": kind,
                "weights": wfile,
                "stride": layer.stride,
                "same_pad": layer.same_pad,
            }
            if isinstance(layer, Conv3dLayer):
                entry["time_same_pad"] = layer.time_same_pad
            if layer.bias is not None:
                bfile = f"{stem}_l{i}_b.wtsr"
                save_weights(WeightTensor(np.asarray(layer.bias), Layout.VECTOR), parent / bfile)
                entry["bias"] = bfile
            described.append(entry)
        elif isinstance(layer, DenseLayer):
            wfile = f"{stem}_l{i}_w.wtsr"
            save_weights(WeightTensor(layer.weights, Layout.DENSE), parent / wfile)
            entry = {"kind": "dense", "weights": wfile}
            if layer.bias is not None:
                bfile = f"{stem}_l{i}_b.wtsr"
                save_weights(WeightTensor(np.asarray(layer.bias), Layout.VECTOR), parent / bfile)
                entry["bias"] = bfile
            described.append(entry)
        elif isinstance(layer, ReluLayer):
            described.append({"kind": "relu"})
        elif isinstance(layer, GlobalAvgPoolLayer):
            described.append({"kind": "global_avg_pool"})
        elif isinstance(layer, SoftmaxLayer):
            described.append({"kind": "softmax"})
        else:
            raise ValidationError(f"cannot serialize layer {layer!r}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": NET_FORMAT_TAG, "layers": described}, fh, indent=1)
        fh.write("\n")


def load_net(path: str | Path) -> NetSpec:
    path = Path(path)
    if path.suffix == ".wtsr":
        # a bare 4-dim tensor is accepted as a single-conv net
        tensor = load_weights(path)
        if tensor.layout is Layout.CONV2D:
            return NetSpec([Conv2dLayer(weights=tensor.data.astype(np.float64))])
        if tensor.layout is Layout.CONV3D:
            return NetSpec([Conv3dLayer(weights=tensor.data.astype(np.float64))])
        raise ValidationError(f"{path}: bare tensor must be a conv kernel")
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("format") != NET_FORMAT_TAG:
        raise ValidationError(f"{path}: unsupported format {obj.get('format')!r}")
    layers: list[Layer] = []
    for entry in obj["layers"]:
        kind = entry["kind"]
        if kind in ("conv2d", "conv3d"):
            weights = load_weights(path.parent / entry["weights"]).data.astype(np.float64)
            bias = None
            if "bias" in entry:
                bias = load_weights(path.parent / entry["bias"]).data.astype(np.float64)
            if kind == "conv2d":
                layers.append(
                    Conv2dLayer(weights, bias, int(entry.get("stride", 1)), bool(entry.get("same_pad", True)))
                )
            else:
                layers.append(
                    Conv3dLayer(
                        weights,
                        bias,
                        int(entry.get("stride", 1)),
                        bool(entry.get("same_pad", True)),
                        bool(entry.get("time_same_pad", True)),
                    )
                )
        elif kind == "dense":
            weights = load_weights(path.parent / entry["weights"]).data.astype(np.float64)
            bias = None
            if "bias" in entry:
                bias = load_weights(path.parent / entry["bias"]).data.astype(np.float64)
            layers.append(DenseLayer(weights, bias))
        elif kind == "relu":
            layers.append(ReluLayer())
        elif kind == "global_avg_pool":
            layers.append(GlobalAvgPoolLayer())
        elif kind == "softmax":
            layers.append(SoftmaxLayer())
        else:
            raise ValidationError(f"{path}: unknown layer kind {kind!r}")
    return NetSpec(layers)
