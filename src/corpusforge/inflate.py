"""2D -> 3D filter inflation and the fully-convolutional head transform.

Inflation lifts a pretrained (out, in, h, w) kernel to (out, in, k, h, w) by
repeating the weights k times along time, divided by k.  The division is
what makes the 3D net reproduce the 2D net exactly on inputs that are
constant in time: each temporal slice contributes w/k of an identical
response.  :func:`inflation_equivalence` verifies that identity numerically
at one temporal position: it feeds exactly that position's receptive field
in time and runs each conv time-VALID over it, so no zero time-padding is
built and every layer computes only the slices the next one reads.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from ._lazy import np
from .netops import (
    Conv2dLayer,
    Conv3dLayer,
    DenseLayer,
    GlobalAvgPoolLayer,
    NetSpec,
    check_elements,
    same_padding,
)
from .records import ValidationError, _shown, check_count, check_real


def inflate(weights2d: np.ndarray, k: int, normalize: bool = True) -> np.ndarray:
    """Repeat (out,in,h,w) weights k times along a new time axis, / k."""
    w = np.asarray(weights2d, dtype=np.float64)
    if w.ndim != 4:
        raise ValidationError(f"expected (out,in,h,w) weights, got {w.shape}")
    k = check_count(k, "temporal extent k")
    check_elements(w.size * k, "inflated weights")
    out = np.repeat(w[:, :, None, :, :], k, axis=2)
    if normalize:
        out = out / k
    return out


def inflate_net(net2d: NetSpec, k: int, normalize: bool = True) -> NetSpec:
    """Inflate every 2D conv; every other layer is reused as is.

    Inflated convs use same-padding in time so the layer count and the
    temporal length are both preserved.
    """
    k = check_count(k, "temporal extent k")  # also for a net without convs, where inflate() never runs
    check_elements(sum(np.size(l.weights) for l in net2d.conv_layers()) * k, "inflated weights")
    layers = []
    for layer in net2d.layers:
        if isinstance(layer, Conv3dLayer):
            raise ValidationError(f"cannot inflate layer {type(layer).__name__}")
        if isinstance(layer, Conv2dLayer):
            layer = Conv3dLayer(inflate(layer.weights, k, normalize), layer.bias, layer.stride,
                                layer.same_pad, time_same_pad=True)
        layers.append(layer)
    return NetSpec(layers)


def _time_margins(net3d: NetSpec) -> tuple[int, int]:
    """Slices before/after one output position in its receptive field in time."""
    left = right = 0
    for layer in net3d.layers:
        if isinstance(layer, Conv3dLayer):
            l, r = same_padding(layer.weights.shape[2])
            left, right = left + l, right + r
    return left, right


def _forward_time_slice(net3d: NetSpec, x3d: np.ndarray) -> np.ndarray:
    """Forward pass with every conv time-VALID, down to the one time slice left.

    Each conv shortens the time axis by its kernel's k - 1, so an input of
    ``left + right + 1`` slices (:func:`_time_margins`) leaves a single slice
    after the last conv; global pooling, or the returned output, reads it.
    """
    valid = NetSpec([replace(l, time_same_pad=False) if isinstance(l, Conv3dLayer) else l
                     for l in net3d.layers])
    out = valid.forward(x3d)
    pooled = any(isinstance(l, GlobalAvgPoolLayer) for l in net3d.layers)
    return out if pooled else out[:, 0]


@dataclass
class EquivalenceResult:
    ok: bool
    max_deviation: float
    tol: float


def inflation_equivalence(
    net2d: NetSpec,
    k: int,
    x2d: np.ndarray,
    tol: float = 1e-5,
    normalize: bool = True,
) -> EquivalenceResult:
    """Check inflated(replicated input) == 2D net output within tol.

    The (c, h, w) input image is replicated along time over the receptive
    field of one temporal position of the inflated net, ``left + right + 1``
    slices.  Each conv runs time-VALID over it, so the last conv outputs
    that position alone, with no zero time-padding anywhere; outputs are
    compared there (global pooling, when present, averages only over it).
    """
    check_real(tol, "tol", 0.0)
    x2d = np.asarray(x2d, dtype=np.float64)
    if x2d.ndim != 3:
        raise ValidationError(f"x2d must be a (c, h, w) image, got shape {x2d.shape}")
    if not net2d.is_2d():
        raise ValidationError("inflation_equivalence expects a 2D conv net")
    net3d = inflate_net(net2d, k, normalize=normalize)
    left, right = _time_margins(net3d)
    check_elements(x2d.size * (left + right + 1), "time slices of the input")
    x3d = np.repeat(x2d[:, None, :, :], left + right + 1, axis=1)
    got = _forward_time_slice(net3d, x3d)
    want = net2d.forward(x2d)
    deviation = float(np.max(np.abs(got - want))) if got.size else 0.0
    return EquivalenceResult(ok=deviation <= tol, max_deviation=deviation, tol=tol)


def fcn_transform(net: NetSpec) -> NetSpec:
    """Turn the dense head into a 1x1x1 conv so any input size is accepted.

    The terminal dense layer (which must follow global average pooling)
    becomes a (classes, features, 1, 1, 1) convolution with the same values;
    pooling moves after it, averaging logits over positions.  Because
    averaging and a linear map commute, training-size inputs produce
    identical logits.
    """
    layers = list(net.layers)
    dense_idx = next(
        (i for i, l in enumerate(layers) if isinstance(l, DenseLayer)), None
    )
    if dense_idx is None:
        raise ValidationError("fcn_transform needs a terminal dense layer")
    if dense_idx == 0 or not isinstance(layers[dense_idx - 1], GlobalAvgPoolLayer):
        raise ValidationError("dense layer must be preceded by global average pooling")
    dense = layers[dense_idx]
    assert isinstance(dense, DenseLayer)
    out_dim, in_dim = np.asarray(dense.weights).shape
    conv = Conv3dLayer(
        weights=np.asarray(dense.weights, dtype=np.float64).reshape(out_dim, in_dim, 1, 1, 1),
        bias=None if dense.bias is None else np.asarray(dense.bias, dtype=np.float64),
        stride=1,
        same_pad=False,
        time_same_pad=False,
    )
    new_layers = (
        layers[: dense_idx - 1] + [conv, GlobalAvgPoolLayer()] + layers[dense_idx + 1 :]
    )
    return NetSpec(new_layers)


def scale_shortest_edge(dims: tuple[int, int], target: int = 128) -> tuple[int, int]:
    """Scale (h, w) so the shortest edge hits the target, keeping aspect."""
    target = check_count(target, "target")
    h, w = dims
    if h < 1 or w < 1:
        raise ValidationError(f"bad frame dims {dims}")
    try:
        if h <= w:
            return target, int(round(w * target / h))
        return int(round(h * target / w)), target
    except OverflowError:
        raise ValidationError(f"target {_shown(target)} scales {dims} past the float range") from None


def center_crop_box(dims: tuple[int, int], size: int = 128) -> tuple[int, int, int, int]:
    """(top, left, height, width) of the centered size x size window."""
    size = check_count(size, "size")
    h, w = dims
    if h < size or w < size:
        raise ValidationError(f"cannot crop a square of side {_shown(size)} from {dims}")
    return (h - size) // 2, (w - size) // 2, size, size


def center_crop(frame: np.ndarray, size: int = 128) -> np.ndarray:
    top, left, ch, cw = center_crop_box(frame.shape[:2], size)
    return frame[top : top + ch, left : left + cw]
