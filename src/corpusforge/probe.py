"""Linear probes over frozen features.

A probe is an L2-regularized logistic model trained with full-batch gradient
descent from zero init: softmax + cross-entropy for multi-class targets,
independent per-label sigmoids + logistic loss for multi-label targets.  The
regularizer applies to the weights only.  Training is deterministic for a
given numpy/BLAS build and thread count.

Feature files ("CFFT", little-endian):
  magic "CFFT", u32 n, u32 d, n*d f32 row-major features, then labels --
  n u32 class ids (multiclass) or an n x L u8 matrix of 0/1 (multilabel).

Probe models are ``.npz`` archives of weights, bias, mode and l2_lambda.
"""
from __future__ import annotations

import enum
import io
import math
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .records import ValidationError, read_exact, write_file

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
        rows, labels = np.arange(n), np.asarray(targets, dtype=np.int64)
        zmax = z.max(axis=1, keepdims=True)
        e = np.exp(z - zmax)
        norm = e.sum(axis=1, keepdims=True)
        loss = float(np.mean(zmax[:, 0] + np.log(norm[:, 0]) - z[rows, labels]))
        finite = np.isfinite(z)
        finite[rows, labels] = True
        if not finite.all():  # an inf or nan logit off the label makes the loss nan
            loss = math.nan
        delta = e / norm
        delta[rows, labels] -= 1.0
        delta /= n
    else:
        y = np.asarray(targets, dtype=np.float64)
        # stable log(1 + exp(z)) - z*y; sigmoid(z) from the same exp(-|z|)
        e = np.exp(-np.abs(z))
        loss = float(np.sum(np.maximum(z, 0.0) - z * y + np.log1p(e)) / n)
        delta = (np.where(z >= 0, 1.0, e) / (1.0 + e) - y) / n
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
    """Full-batch gradient descent from zero init; deterministic for a given
    numpy/BLAS build and thread count."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError(f"features must be (n, d) with n >= 1, got {x.shape}")
    if iters < 0:
        raise ValidationError(f"iters must be >= 0, got {iters}")
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
    # overflow shows up as a non-finite loss, which is checked every iteration
    with np.errstate(over="ignore", invalid="ignore"):
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
# Feature and model file I/O.


def save_features(
    features: np.ndarray, targets: np.ndarray, mode: ProbeMode, path: str | Path
) -> None:
    x = np.ascontiguousarray(features, dtype=np.float32)
    n, d = x.shape
    if mode is ProbeMode.SOFTMAX_MULTICLASS:
        labels = np.ascontiguousarray(targets, dtype="<u4")
    elif np.isin(targets, (0, 1)).all():
        labels = np.ascontiguousarray(targets, dtype=np.uint8)
    else:
        raise ValidationError(f"{path}: multilabel targets must be 0 or 1")
    write_file(path, b"".join((_CFFT_HEADER.pack(_CFFT_MAGIC, n, d), x, labels)))


def load_features(path: str | Path, mode: ProbeMode) -> tuple[np.ndarray, np.ndarray]:
    """Read features and labels; the label block layout depends on mode."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic, n, d = _CFFT_HEADER.unpack(read_exact(fh, _CFFT_HEADER.size, path, "header"))
        if magic != _CFFT_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}")
        feat = read_exact(fh, 4 * n * d, path, "features")
        rest = fh.read()
    if n == 0:
        raise ValidationError(f"{path}: no samples (n=0)")
    features = np.frombuffer(feat, dtype="<f4").reshape(n, d).astype(np.float64)
    if mode is ProbeMode.SOFTMAX_MULTICLASS:
        if len(rest) != 4 * n:
            raise ValidationError(f"{path}: expected {4*n} label bytes, got {len(rest)}")
        targets = np.frombuffer(rest, dtype="<u4").astype(np.int64)
    else:
        if len(rest) % n != 0:
            raise ValidationError(f"{path}: multilabel block not divisible by n={n}")
        labels = np.frombuffer(rest, dtype=np.uint8)
        if (labels > 1).any():
            raise ValidationError(f"{path}: multilabel label bytes must be 0 or 1")
        targets = labels.reshape(n, -1).astype(np.float64)
    return features, targets


def save_probe(model: ProbeModel, path: str | Path) -> None:
    """Write the model to exactly ``path`` (``np.savez`` alone appends ``.npz``)."""
    fh = io.BytesIO()
    np.savez(
        fh, weights=model.weights, bias=model.bias, mode=model.mode.value, l2_lambda=model.l2_lambda
    )
    write_file(path, fh.getvalue())


def load_probe(path: str | Path) -> ProbeModel:
    """Read a model written by :func:`save_probe`; ``final_loss`` is not stored."""
    try:
        with np.load(path, allow_pickle=False) as blob:  # an .npy array has no ``with``
            weights, bias = blob["weights"].astype(np.float64), blob["bias"].astype(np.float64)
            mode, l2_lambda = ProbeMode(str(blob["mode"])), float(blob["l2_lambda"])
    except (KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"{path}: not a probe model: {exc}") from exc
    if weights.ndim != 2 or bias.shape != weights.shape[:1]:
        raise ValidationError(f"{path}: weights {weights.shape} and bias {bias.shape} mismatch")
    return ProbeModel(weights, bias, mode, l2_lambda, final_loss=math.nan)
