"""Linear probes over frozen features.

A probe is an L2-regularized logistic model trained with full-batch gradient
descent from zero init: softmax + cross-entropy for multi-class targets,
independent per-label sigmoids + logistic loss for multi-label targets.  The
regularizer applies to the weights only.  Training is deterministic for a
given numpy/BLAS build and thread count.  It computes every gradient step in
work arrays allocated once per training run (:class:`ProbeWork`), so no step
allocates fresh ``(n, classes)`` temporaries.

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

from ._lazy import np
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


class ProbeWork:
    """Work arrays for :func:`probe_loss_and_grad` on ``n`` samples of ``dim``
    features and ``classes`` outputs.

    A call given ``work=`` computes every ``(n, classes)`` intermediate inside
    these arrays and returns gradients that are views of them, valid until
    the next call that shares them.
    """

    def __init__(self, n: int, classes: int, dim: int) -> None:
        self.z, self.e, self.delta, self.tmp = (np.empty((n, classes)) for _ in range(4))
        self.mask = np.empty((n, classes), dtype=bool)
        self.zmax, self.norm = np.empty((n, 1)), np.empty((n, 1))
        self.grad_w, self.w_tmp = np.empty((classes, dim)), np.empty((classes, dim))
        self.grad_b = np.empty(classes)


def probe_loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    features: np.ndarray,
    targets: np.ndarray,
    mode: ProbeMode,
    l2_lambda: float,
    *,
    work: ProbeWork | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus analytic gradients w.r.t. weights and bias.

    targets: class ids (multiclass) or an (n, classes) 0/1 matrix
    (multilabel).  Multilabel loss sums over labels, both average over
    samples.  With ``work`` the gradients are views of its arrays (see
    :class:`ProbeWork`); without it they are fresh arrays.
    """
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    if work is None:
        work = ProbeWork(n, weights.shape[0], x.shape[1])
    z, e, delta, tmp, mask = work.z, work.e, work.delta, work.tmp, work.mask
    np.matmul(x, weights.T, out=z)
    np.add(z, bias, out=z)
    if mode is ProbeMode.SOFTMAX_MULTICLASS:
        rows, labels = np.arange(n), np.asarray(targets, dtype=np.int64)
        zmax, norm = work.zmax, work.norm
        np.max(z, axis=1, keepdims=True, out=zmax)
        np.subtract(z, zmax, out=delta)
        np.exp(delta, out=delta)
        np.sum(delta, axis=1, keepdims=True, out=norm)
        loss = float(np.mean(zmax[:, 0] + np.log(norm[:, 0]) - z[rows, labels]))
        np.isfinite(z, out=mask)
        mask[rows, labels] = True
        if not mask.all():  # an inf or nan logit off the label makes the loss nan
            loss = math.nan
        np.divide(delta, norm, out=delta)
        delta[rows, labels] -= 1.0
    else:
        y = np.asarray(targets, dtype=np.float64)
        # stable log(1 + exp(z)) - z*y; sigmoid(z) from the same exp(-|z|)
        np.abs(z, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        # per-element loss max(z, 0) - z*y + log1p(e), summed in delta
        np.maximum(z, 0.0, out=delta)
        np.multiply(z, y, out=tmp)
        np.subtract(delta, tmp, out=delta)
        np.log1p(e, out=tmp)
        np.add(delta, tmp, out=delta)
        loss = float(np.sum(delta) / n)
        # where(z >= 0, 1, e) / (1 + e) - y
        np.greater_equal(z, 0, out=mask)
        np.copyto(delta, e)
        np.copyto(delta, 1.0, where=mask)
        np.add(e, 1.0, out=tmp)
        np.divide(delta, tmp, out=delta)
        np.subtract(delta, y, out=delta)
    np.divide(delta, n, out=delta)
    grad_w, w_tmp, grad_b = work.grad_w, work.w_tmp, work.grad_b
    np.multiply(weights, weights, out=w_tmp)
    loss += l2_lambda * float(np.sum(w_tmp))
    np.matmul(delta.T, x, out=grad_w)
    np.multiply(weights, 2.0 * l2_lambda, out=w_tmp)
    np.add(grad_w, w_tmp, out=grad_w)
    np.sum(delta, axis=0, out=grad_b)
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
    numpy/BLAS build and thread count.  Every iteration computes in one
    :class:`ProbeWork` allocated here."""
    if not step > 0:
        raise ValidationError(f"step must be > 0, got {step}")
    if not l2_lambda >= 0:
        raise ValidationError(f"l2_lambda must be >= 0, got {l2_lambda}")
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
    work = ProbeWork(x.shape[0], classes, x.shape[1])
    # overflow shows up as a non-finite loss, which is checked every iteration
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(iters):
            loss, grad_w, grad_b = probe_loss_and_grad(
                weights, bias, x, t, mode, l2_lambda, work=work
            )
            if not np.isfinite(loss):
                raise ValidationError(f"non-finite loss at iteration {it}")
            # the gradients are work views: scale them in place before the next call
            weights -= np.multiply(grad_w, step, out=grad_w)
            bias -= np.multiply(grad_b, step, out=grad_b)
        loss, _gw, _gb = probe_loss_and_grad(weights, bias, x, t, mode, l2_lambda, work=work)
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
