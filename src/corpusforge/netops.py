"""Minimal forward-only network: convolutions, ReLU, pooling, dense head.

Convolution uses the cross-correlation convention (no kernel flip) with
zero padding in "same" mode.  One kernel serves both ranks: ``conv2d_forward``
and ``conv3d_forward`` differ only in their per-axis padding flags.  Everything
computes in float64 with a fixed summation order, so results are reproducible
bit-for-bit.

A net is an ordered list of layers; at most one dense layer, which must be
terminal (an optional softmax may follow it).  Net descriptions can be saved
as a JSON file referencing one WTSR weight file per parameter tensor.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Union

from ._lazy import np
from .records import ValidationError, read_json, write_file
from .tensor import Layout, WeightTensor, load_weights, save_weights


def softmax(z: np.ndarray, axis: int | None) -> np.ndarray:
    """Max-shifted softmax along ``axis`` (None: over the whole array)."""
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def same_padding(kernel: int) -> tuple[int, int]:
    """SAME padding of one axis at stride 1: total k-1, split (left, right)."""
    left = (kernel - 1) // 2
    return left, kernel - 1 - left


def _conv(name: str, x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None, stride: int,
          same: tuple[bool, ...]) -> np.ndarray:
    """(c,*spatial) x (o,c,*kernel) -> (o,*spatial'): one SAME flag per spatial axis,
    ``stride`` on the last two.  ``np.tensordot`` in place of this einsum sums in
    another order and changes the last bits."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    rank = len(same)
    if x.ndim != rank + 1 or w.ndim != rank + 2:
        raise ValidationError(f"{name} shapes: x {x.shape}, w {w.shape}")
    if x.shape[0] != w.shape[1]:
        raise ValidationError(f"{name} channel mismatch: input {x.shape[0]}, kernel {w.shape[1]}")
    if not isinstance(stride, (int, np.integer)):
        raise ValidationError(f"{name} stride must be an integer, got {stride!r}")
    if stride < 1:
        raise ValidationError(f"{name} stride must be >= 1, got {stride}")
    if bias is not None and np.shape(bias) != w.shape[:1]:
        raise ValidationError(f"{name} bias shape {np.shape(bias)}, expected ({w.shape[0]},)")
    kernel = w.shape[2:]
    if any(same):
        x = np.pad(x, [(0, 0)] + [same_padding(k) if s else (0, 0) for k, s in zip(kernel, same)])
    if any(side < k for side, k in zip(x.shape[1:], kernel)):
        raise ValidationError(f"input {x.shape} smaller than kernel {kernel}")
    windows = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=tuple(range(1, rank + 1)))
    windows = windows[(slice(None),) * (rank - 1) + (slice(None, None, stride),) * 2]
    at, taps = "tij"[-rank:], "khw"[-rank:]  # output positions, kernel taps
    out = np.einsum(f"c{at}{taps},oc{taps}->o{at}", windows, w, optimize=True)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)[(slice(None),) + (None,) * rank]
    return out


def conv2d_forward(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    same_pad: bool = False,
) -> np.ndarray:
    """(c,h,w) x (o,c,kh,kw) -> (o,h',w') direct convolution."""
    return _conv("conv2d", x, weights, bias, stride, (same_pad, same_pad))


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
    if time_same_pad is None:
        time_same_pad = same_pad
    return _conv("conv3d", x, weights, bias, stride, (time_same_pad, same_pad, same_pad))


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
        conv_type: type | None = None
        pooled = False
        for i, layer in enumerate(self.layers):
            pooled = pooled or isinstance(layer, GlobalAvgPoolLayer)
            if not fields(layer):
                continue
            conv = not isinstance(layer, DenseLayer)
            if conv and pooled:
                raise ValidationError(f"layer {i}: conv after global pooling")
            if conv:
                if conv_type not in (None, type(layer)):
                    raise ValidationError(
                        f"layer {i}: {type(layer).__name__} after a {conv_type.__name__}; "
                        "a net's convs are all 2D or all 3D")
                conv_type = type(layer)
            for flag in fields(layer)[2:]:
                value = getattr(layer, flag.name)
                if type(value) is not type(flag.default):
                    kind = type(flag.default).__name__
                    raise ValidationError(f"layer {i}: {flag.name} must be {kind}, got {value!r}")
            if conv and layer.stride < 1:
                raise ValidationError(f"layer {i}: stride must be >= 1")
            ndim = {Conv2dLayer: 4, Conv3dLayer: 5, DenseLayer: 2}[type(layer)]
            if np.ndim(layer.weights) != ndim:
                raise ValidationError(
                    f"layer {i}: weights must be {ndim}-D, got shape {np.shape(layer.weights)}")
            out_ch, in_ch = np.shape(layer.weights)[:2]
            if channels is not None and in_ch != channels:
                unit = "input channels" if conv else "features"
                raise ValidationError(f"layer {i}: expects {in_ch} {unit}, gets {channels}")
            if layer.bias is not None and np.shape(layer.bias) != (out_ch,):
                raise ValidationError(f"layer {i}: bias shape mismatch")
            channels = out_ch

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

# A layer with parameters has the fields weights, bias, then the flags stored between
# "weights" and "bias" in its descriptor; its kind names the Layout of its weights.
_LAYER_KINDS: dict[str, type] = {
    "conv2d": Conv2dLayer,
    "conv3d": Conv3dLayer,
    "dense": DenseLayer,
    "relu": ReluLayer,
    "global_avg_pool": GlobalAvgPoolLayer,
    "softmax": SoftmaxLayer,
}
_KIND_OF = {cls: kind for kind, cls in _LAYER_KINDS.items()}


def save_net(net: NetSpec, path: str | Path) -> None:
    path = Path(path)
    stem, parent = path.stem, path.parent
    parent.mkdir(parents=True, exist_ok=True)
    described = []
    for i, layer in enumerate(net.layers):
        kind = _KIND_OF.get(type(layer))
        if kind is None:
            raise ValidationError(f"cannot serialize layer {layer!r}")
        entry: dict[str, object] = {"kind": kind}
        if fields(layer):
            entry["weights"] = wfile = f"{stem}_l{i}_w.wtsr"
            save_weights(WeightTensor(layer.weights, Layout(kind)), parent / wfile)
            entry.update((f.name, getattr(layer, f.name)) for f in fields(layer)[2:])
            if layer.bias is not None:
                entry["bias"] = bfile = f"{stem}_l{i}_b.wtsr"
                save_weights(WeightTensor(np.asarray(layer.bias), Layout.VECTOR), parent / bfile)
        described.append(entry)
    text = json.dumps({"format": NET_FORMAT_TAG, "layers": described}, indent=1) + "\n"
    write_file(path, text.encode("utf-8"))


def _load_layer(path: Path, i: int, entry: object) -> Layer:
    if not isinstance(entry, dict):
        raise ValidationError(f"{path}: layer {i}: expected a JSON object")
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in _LAYER_KINDS:
        raise ValidationError(f"{path}: layer {i}: unknown layer kind {kind!r}")
    cls = _LAYER_KINDS[kind]
    tensors = (("weights", Layout(kind)), ("bias", Layout.VECTOR)) if fields(cls) else ()
    try:
        params = {
            name: load_weights(path.parent / entry[name], layout).data.astype(np.float64)
            for name, layout in tensors
            if name in entry
        }
        # flags keep their JSON types; NetSpec rejects any but bool pads and an int stride
        params.update((f.name, entry[f.name]) for f in fields(cls)[2:] if f.name in entry)
        return cls(**params)
    # e.g. no "weights", or a tensor file that is missing or a directory
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise ValidationError(f"{path}: layer {i}: {exc}") from exc


def load_net(path: str | Path) -> NetSpec:
    path = Path(path)
    if path.suffix == ".wtsr":
        # a bare conv kernel is accepted as a single-conv net
        tensor = load_weights(path)
        if tensor.layout not in (Layout.CONV2D, Layout.CONV3D):
            raise ValidationError(f"{path}: bare tensor must be a conv kernel")
        return NetSpec([_LAYER_KINDS[tensor.layout.value](tensor.data.astype(np.float64))])
    obj = read_json(path)
    if not isinstance(obj, dict) or obj.get("format") != NET_FORMAT_TAG:
        raise ValidationError(f"{path}: expected a {NET_FORMAT_TAG} JSON object")
    if not isinstance(obj.get("layers"), list):
        raise ValidationError(f"{path}: layers must be a list")
    layers = [_load_layer(path, i, entry) for i, entry in enumerate(obj["layers"])]
    try:
        return NetSpec(layers)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
