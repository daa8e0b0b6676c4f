"""Linear probes over frozen features.

A probe is an L2-regularized logistic model trained with deterministic
full-batch gradient descent from zero init: softmax + cross-entropy for
multi-class targets, independent per-label sigmoids + logistic loss for
multi-label targets.  The regularizer applies to the weights only.

Feature files ("CFFT", little-endian):
  magic "CFFT", u32 n, u32 d, n*d f32 row-major features, then labels --
  n u32 class ids (multiclass) or an n x L u8 matrix (multilabel).
"""
from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .netops import softmax
from .records import ValidationError

_CFFT_MAGIC = b"CFFT"
_CFFT_HEADER = struct.Struct("<4sII")


class ProbeMode(enum.Enum):
    SOFTMAX_MULTICLASS = "softmax"
    SIGMOID_MULTILABEL = "sigmoid"


@dataclass
class ProbeModel:
    weights: np.ndarray  # (classes, dim)
    bias: np.ndarray  # (classes,)
    mode: ProbeMode
    l2_lambda: float
    final_loss: float

    def logits(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) @ self.weights.T + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(features), axis=1)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    y = np.zeros((labels.shape[0], classes))
    y[np.arange(labels.shape[0]), labels] = 1.0
    return y


def probe_loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    features: np.ndarray,
    targets: np.ndarray,
    mode: ProbeMode,
    l2_lambda: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus analytic gradients w.r.t. weights and bias.

    targets: class ids (multiclass) or an (n, classes) 0/1 matrix
    (multilabel).  Multilabel loss sums over labels, both average over
    samples.
    """
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    z = x @ weights.T + bias
    if mode is ProbeMode.SOFTMAX_MULTICLASS:
        y = _one_hot(np.asarray(targets, dtype=np.int64), weights.shape[0])
        zmax = z.max(axis=1, keepdims=True)
        log_norm = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
        loss = float(np.mean(log_norm - (z * y).sum(axis=1)))
        delta = (softmax(z, axis=1) - y) / n
    else:
        y = np.asarray(targets, dtype=np.float64)
        # stable log(1 + exp(z)) - z*y
        loss = float(np.sum(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))) / n)
        delta = (_sigmoid(z) - y) / n
    loss += l2_lambda * float(np.sum(weights * weights))
    grad_w = delta.T @ x + 2.0 * l2_lambda * weights
    grad_b = delta.sum(axis=0)
    return loss, grad_w, grad_b


def train_probe(
    features: np.ndarray,
    targets: np.ndarray,
    mode: ProbeMode = ProbeMode.SOFTMAX_MULTICLASS,
    l2_lambda: float = 1e-4,
    iters: int = 1000,
    step: float = 1.0,
) -> ProbeModel:
    """Full-batch gradient descent from zero init; fully deterministic."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError(f"features must be (n, d), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("features contain non-finite values")
    if mode is ProbeMode.SOFTMAX_MULTICLASS:
        t = np.asarray(targets, dtype=np.int64)
        if t.ndim != 1 or t.shape[0] != x.shape[0]:
            raise ValidationError("multiclass targets must be (n,) class ids")
        classes = int(t.max()) + 1
    else:
        t = np.asarray(targets, dtype=np.float64)
        if t.ndim != 2 or t.shape[0] != x.shape[0]:
            raise ValidationError("multilabel targets must be (n, classes)")
        classes = t.shape[1]
    if x.shape[0] < classes:
        raise ValidationError(f"need >= {classes} samples, got {x.shape[0]}")
    weights = np.zeros((classes, x.shape[1]))
    bias = np.zeros(classes)
    loss = float("nan")
    for it in range(iters):
        loss, grad_w, grad_b = probe_loss_and_grad(weights, bias, x, t, mode, l2_lambda)
        if not np.isfinite(loss):
            raise ValidationError(f"non-finite loss at iteration {it}")
        weights -= step * grad_w
        bias -= step * grad_b
    loss, _gw, _gb = probe_loss_and_grad(weights, bias, x, t, mode, l2_lambda)
    return ProbeModel(
        weights=weights, bias=bias, mode=mode, l2_lambda=l2_lambda, final_loss=loss
    )


# ---------------------------------------------------------------------------
# Feature file I/O.


def save_features(
    features: np.ndarray, targets: np.ndarray, mode: ProbeMode, path: str | Path
) -> None:
    x = np.ascontiguousarray(features, dtype=np.float32)
    n, d = x.shape
    with open(path, "wb") as fh:
        fh.write(_CFFT_HEADER.pack(_CFFT_MAGIC, n, d))
        fh.write(x.tobytes())
        if mode is ProbeMode.SOFTMAX_MULTICLASS:
            fh.write(np.ascontiguousarray(targets, dtype="<u4").tobytes())
        else:
            fh.write(np.ascontiguousarray(targets, dtype=np.uint8).tobytes())


def load_features(path: str | Path, mode: ProbeMode) -> tuple[np.ndarray, np.ndarray]:
    """Read features and labels; the label block layout depends on mode."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(_CFFT_HEADER.size)
        if len(header) != _CFFT_HEADER.size:
            raise ValidationError(f"{path}: truncated header")
        magic, n, d = _CFFT_HEADER.unpack(header)
        if magic != _CFFT_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}")
        feat = fh.read(4 * n * d)
        rest = fh.read()
    if len(feat) != 4 * n * d:
        raise ValidationError(f"{path}: truncated features")
    features = np.frombuffer(feat, dtype="<f4").reshape(n, d).astype(np.float64)
    if mode is ProbeMode.SOFTMAX_MULTICLASS:
        if len(rest) != 4 * n:
            raise ValidationError(f"{path}: expected {4*n} label bytes, got {len(rest)}")
        targets = np.frombuffer(rest, dtype="<u4").astype(np.int64)
    else:
        if n == 0 or len(rest) % n != 0:
            raise ValidationError(f"{path}: multilabel block not divisible by n={n}")
        targets = np.frombuffer(rest, dtype=np.uint8).reshape(n, -1).astype(np.float64)
    return features, targets
