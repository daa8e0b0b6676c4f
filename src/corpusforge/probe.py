"""Linear probes over frozen features.

A probe is an L2-regularized logistic model: softmax + cross-entropy for
multi-class targets, independent per-label sigmoids + logistic loss for
multi-label targets.  The regularizer applies to the weights only.  For
``l2_lambda > 0`` the loss is strongly convex in the weights, so training
reports where it bottoms out, not where a step count ends: limited-memory
BFGS (Nocedal 1980; Liu & Nocedal 1989) from zero init over the last HISTORY
curvature pairs, with a backtracking Armijo line search from the unit step.
Where no curvature pair can be used the step is ``step`` times the negative
gradient, 1/L by default for a bound L on the gradient's Lipschitz constant,
so the first iterate is the 1/L gradient step.  Training stops once the
gradient norm has fallen by GRAD_TOL; ``iters`` only caps the gradients
taken.  Training is deterministic for a given numpy/BLAS build and thread
count; the CLI runs it on one BLAS thread (see ``cli.main``), so a model's
bytes do not depend on the core count of the machine that trained it.  Every
step computes in plain numpy expressions on fresh arrays; no work array is
kept between steps.

Feature files ("CFFT", little-endian):
  magic "CFFT", u32 n, u32 d, n*d finite f32 row-major features, then labels
  -- n u32 class ids (multiclass) or an n x L u8 matrix of 0/1 (multilabel).

Probe models are ``.npz`` archives of finite weights and bias, mode and an
l2_lambda in [0, L2_LIMIT).
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
from .evalmetrics import check_class_ids
from .records import ValidationError, check_count, check_real, read_exact, write_file
from .tensor import check_finite

_CFFT_MAGIC = b"CFFT"
_CFFT_HEADER = struct.Struct("<4sII")
GRAD_TOL = 1e-4  # training stops once the gradient norm is this fraction of its value at zero
HISTORY = 10  # curvature pairs the L-BFGS direction is built from
ARMIJO_C1 = 1e-4  # fraction of the slope a line-search step must realise
L2_LIMIT = 2.0**1023  # from here up, the gradient's 2 * l2_lambda overflows


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
        zmax = np.max(z, axis=1, keepdims=True)
        e = np.exp(z - zmax)
        norm = np.sum(e, axis=1, keepdims=True)
        loss = float(np.mean(zmax[:, 0] + np.log(norm[:, 0]) - z[rows, labels]))
        finite = np.isfinite(z)
        finite[rows, labels] = True
        if not finite.all():  # an inf or nan logit off the label makes the loss nan
            loss = math.nan
        delta = e / norm
        delta[rows, labels] -= 1.0
    else:
        y = np.asarray(targets, dtype=np.float64)
        # stable log(1 + exp(z)) - z*y; sigmoid(z) from the same exp(-|z|)
        e = np.exp(-np.abs(z))
        loss = float(np.sum(np.maximum(z, 0.0) - z * y + np.log1p(e)) / n)
        delta = np.where(z >= 0, 1.0, e) / (e + 1.0) - y
    delta /= n
    loss += l2_lambda * float(np.sum(weights * weights))
    grad_w = delta.T @ x + weights * (2.0 * l2_lambda)
    return loss, grad_w, np.sum(delta, axis=0)


def _check_l2(l2_lambda: float) -> None:
    """The l2 rule of training and of a stored model: finite, >= 0 and below L2_LIMIT."""
    check_real(l2_lambda, "l2_lambda", 0.0)
    if l2_lambda >= L2_LIMIT:
        raise ValidationError(f"l2_lambda must be < 2**1023, got {l2_lambda}")


def _lipschitz_step(x: np.ndarray, mode: ProbeMode, l2_lambda: float) -> float:
    """1/L for L = lambda_max([x, 1]^T [x, 1] / n) * c + 2 * l2_lambda, which
    bounds the gradient's Lipschitz constant: the loss Hessian w.r.t. one
    sample's logits is at most c = 1/2 (softmax) or 1/4 (sigmoid) times I."""
    n, d = x.shape
    gram = np.empty((d + 1, d + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        gram[:d, :d] = x.T @ x
        gram[:d, d] = gram[d, :d] = np.sum(x, axis=0)
    gram[d, d] = n
    if not np.all(np.isfinite(gram)):
        raise ValidationError("features too large: their Gram matrix overflows float64")
    curvature = 0.5 if mode is ProbeMode.SOFTMAX_MULTICLASS else 0.25
    return 1.0 / (float(np.linalg.eigvalsh(gram / n)[-1]) * curvature + 2.0 * l2_lambda)


def _lbfgs_direction(grad: np.ndarray, pairs: list) -> np.ndarray | None:
    """The L-BFGS direction ``-H grad`` by the two-loop recursion over
    ``pairs`` of (s, y, s'y, y'y), oldest first, with the initial Hessian
    guess scaled by s'y / y'y of the newest pair; None when no pair is stored."""
    if not pairs:
        return None
    direction = -grad
    alphas = []
    for s, y, sy, _yy in reversed(pairs):
        alpha = float(np.dot(s, direction)) / sy
        direction -= alpha * y
        alphas.append(alpha)
    _s, _y, sy, yy = pairs[-1]
    direction *= sy / yy
    for (s, y, sy, _yy), alpha in zip(pairs, reversed(alphas)):
        direction += (alpha - float(np.dot(y, direction)) / sy) * s
    return direction


def train_probe(
    features: np.ndarray,
    targets: np.ndarray,
    mode: ProbeMode = ProbeMode.SOFTMAX_MULTICLASS,
    l2_lambda: float = 1e-4,
    iters: int = 1000,
    step: float | None = None,
) -> ProbeModel:
    """Limited-memory BFGS from zero init, with a backtracking line search.

    Each direction comes from the last HISTORY curvature pairs (see
    :func:`_lbfgs_direction`).  With no pair stored yet, or when that
    direction does not descend, it is ``-step * gradient``, where ``step`` is
    the given one or 1/L when it is None (see :func:`_lipschitz_step`); so
    the first iterate is ``-gradient / L``.  The line search tries the unit
    step along the direction and halves it until the loss falls by at least
    ARMIJO_C1 times the slope (Armijo's rule).  Training stops at the first
    accepted point whose gradient norm over (weights, bias) is at most
    GRAD_TOL times the norm at zero init, or once ``iters`` gradients past
    the one at zero are taken, line-search trials included, and returns the
    model and loss of the last accepted point.  Every gradient is one call
    of :func:`probe_loss_and_grad`, so there are at most ``iters + 1``
    calls.  A non-finite loss or gradient norm at any point raises.
    Deterministic for a given numpy/BLAS build and thread count.
    """
    if step is not None:
        check_real(step, "step", 0.0, open_ends=True)
    _check_l2(l2_lambda)
    check_count(iters, "iters", 0)
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError(f"features must be (n, d) with n >= 1, got {x.shape}")
    check_finite(x, "features")
    if mode is ProbeMode.SOFTMAX_MULTICLASS:
        t = np.asarray(targets, dtype=np.int64)
        if t.ndim != 1 or t.shape[0] != x.shape[0]:
            raise ValidationError("multiclass targets must be (n,) class ids")
        classes = int(t.max()) + 1
        check_class_ids(t, classes, "targets")
    else:
        t = np.asarray(targets, dtype=np.float64)
        if t.ndim != 2 or t.shape[0] != x.shape[0]:
            raise ValidationError("multilabel targets must be (n, classes)")
        classes = t.shape[1]
    if x.shape[0] < classes:
        raise ValidationError(f"need >= {classes} samples, got {x.shape[0]}")
    if step is None:
        step = _lipschitz_step(x, mode, l2_lambda)
    dim = x.shape[1]
    cut = classes * dim

    def evaluate(point: np.ndarray, it: int) -> tuple[float, np.ndarray, float]:
        """Loss, gradient and gradient norm at ``point``, which is (weights,
        bias) flattened, as the gradient is."""
        loss, grad_w, grad_b = probe_loss_and_grad(
            point[:cut].reshape(classes, dim), point[cut:], x, t, mode, l2_lambda
        )
        grad = np.concatenate((grad_w.ravel(), grad_b))
        norm = math.sqrt(float(np.dot(grad, grad)))
        if not (math.isfinite(loss) and math.isfinite(norm)):
            raise ValidationError(f"non-finite loss at iteration {it}")
        return loss, grad, norm

    pairs: list = []  # the newest HISTORY (s, y, s'y, y'y), oldest first
    # overflow shows up as a non-finite loss or gradient, checked at every point
    with np.errstate(over="ignore", invalid="ignore"):
        it = 0
        at = np.zeros(classes * (dim + 1))  # the last accepted point
        loss, grad, norm = evaluate(at, it)
        tol = GRAD_TOL * norm
        while norm > tol and it < iters:
            direction = _lbfgs_direction(grad, pairs)
            if direction is None or not (slope := float(np.dot(grad, direction))) < 0:
                # no curvature to use: a gradient step
                direction, slope = grad * -step, -step * norm * norm
            scale = 1.0
            while it < iters:
                point = direction * scale + at
                it += 1
                trial_loss, trial_grad, trial_norm = evaluate(point, it)
                if trial_loss <= loss + ARMIJO_C1 * scale * slope:
                    break
                scale *= 0.5
            else:  # the gradients ran out before a trial was accepted
                break
            s, y = point - at, trial_grad - grad
            sy, yy = float(np.dot(s, y)), float(np.dot(y, y))
            if 0 < sy < math.inf and 0 < yy < math.inf:
                pairs.append((s, y, sy, yy))
                del pairs[:-HISTORY]
            at, grad, loss, norm = point, trial_grad, trial_loss, trial_norm
    return ProbeModel(weights=at[:cut].reshape(classes, dim), bias=at[cut:], mode=mode,
                      l2_lambda=l2_lambda, final_loss=loss)


# ---------------------------------------------------------------------------
# Feature and model file I/O.


def save_features(
    features: np.ndarray, targets: np.ndarray, mode: ProbeMode, path: str | Path
) -> None:
    with np.errstate(over="ignore"):  # a value past the float32 range is rejected below
        x = np.ascontiguousarray(features, dtype=np.float32)
    check_finite(x, f"{path}: float32 features")
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
    check_finite(features, f"{path}: features")
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
    check_finite(weights, f"{path}: weights")
    check_finite(bias, f"{path}: bias terms")
    try:
        _check_l2(l2_lambda)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return ProbeModel(weights, bias, mode, l2_lambda, final_loss=math.nan)
