from __future__ import annotations

import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from corpusforge.evalmetrics import (
    accuracy_topk,
    assign_single_label,
    average_precision,
    mean_average_precision,
    uniform_clip_starts,
    video_prediction,
)
from corpusforge import probe
from corpusforge.netops import softmax
from corpusforge.probe import (
    GRAD_TOL,
    ProbeMode,
    load_features,
    probe_loss_and_grad,
    save_features,
    train_probe,
)
from corpusforge.records import LabelKind, LabelSpace, ValidationError, VideoRecord
from corpusforge.schedule import lr_schedule

from oracles import fd_gradient, map_oracle, topk_accuracy_oracle


# ---------------------------------------------------------------------------
# lr schedule


def test_schedule_final_plateau_value_exact():
    sched = lr_schedule(base_lr=0.192, warmup_iters=0, total_iters=2800, num_reductions=13)
    assert sched.values[-1] == 2.34375e-5
    assert sched.values[-1] == 0.192 / 2**13


def test_schedule_plateau_structure():
    sched = lr_schedule(base_lr=0.192, warmup_iters=10, total_iters=150, num_reductions=13)
    lengths = sched.plateau_lengths()
    assert lengths == [10] * 14
    plateau_values = sorted(set(sched.values[10:]), reverse=True)
    assert plateau_values == [0.192 * 0.5**i for i in range(14)]


def test_schedule_zero_reductions_constant():
    sched = lr_schedule(base_lr=0.1, warmup_iters=5, total_iters=20, num_reductions=0)
    assert set(sched.values[5:]) == {0.1}


def test_schedule_warmup_is_linear_ramp():
    sched = lr_schedule(base_lr=0.8, warmup_iters=4, total_iters=12, num_reductions=1)
    assert sched.values[:4] == pytest.approx([0.2, 0.4, 0.6, 0.8])
    assert all(b <= a + 1e-15 for a, b in zip(sched.values[4:], sched.values[5:]))


def test_schedule_uneven_split_differs_by_at_most_one():
    sched = lr_schedule(base_lr=1.0, warmup_iters=0, total_iters=100, num_reductions=13)
    lengths = sched.plateau_lengths()
    assert len(lengths) == 14
    assert sum(lengths) == 100
    assert max(lengths) - min(lengths) <= 1


def test_schedule_exact_reduction_count():
    sched = lr_schedule(base_lr=1.0, warmup_iters=3, total_iters=59, num_reductions=7)
    post = sched.values[3:]
    drops = sum(1 for a, b in zip(post, post[1:]) if b < a)
    assert drops == 7


def test_schedule_infeasible_errors():
    with pytest.raises(ValidationError):
        lr_schedule(base_lr=0.1, warmup_iters=5, total_iters=5, num_reductions=0)
    with pytest.raises(ValidationError):
        lr_schedule(base_lr=0.1, warmup_iters=0, total_iters=10, num_reductions=13)
    with pytest.raises(ValidationError):
        lr_schedule(base_lr=0.1, warmup_iters=0, total_iters=10, num_reductions=2, factor=1.0)


@pytest.mark.parametrize("base_lr", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_schedule_rejects_base_lr_not_finite_and_positive(base_lr):
    with pytest.raises(ValidationError, match=f"^base_lr must be finite and > 0, got {base_lr}$"):
        lr_schedule(base_lr=base_lr, warmup_iters=0, total_iters=20, num_reductions=1)


# ---------------------------------------------------------------------------
# single-label assignment


def _space_ab() -> LabelSpace:
    return LabelSpace(
        name="s",
        kind=LabelKind.SEED,
        entries={"A": frozenset({"a"}), "B": frozenset({"b"})},
        min_count=1,
    )


def test_assign_single_match():
    space = _space_ab()
    video = VideoRecord(id="v", duration_s=2.0, hashtags=frozenset({"a"}))
    assert assign_single_label(video, space, seed=0) == "A"


def test_assign_uniform_over_matches():
    space = _space_ab()
    video = VideoRecord(id="v", duration_s=2.0, hashtags=frozenset({"a", "b"}))
    n = 10_000
    picks = sum(assign_single_label(video, space, seed=s) == "A" for s in range(n))
    sigma = math.sqrt(0.25 / n)
    assert abs(picks / n - 0.5) <= 3 * sigma


def test_assign_deterministic_and_errors():
    space = _space_ab()
    video = VideoRecord(id="v", duration_s=2.0, hashtags=frozenset({"a", "b"}))
    assert assign_single_label(video, space, 7) == assign_single_label(video, space, 7)
    stranger = VideoRecord(id="x", duration_s=2.0, hashtags=frozenset({"zzz"}))
    with pytest.raises(ValidationError):
        assign_single_label(stranger, space, 0)


# ---------------------------------------------------------------------------
# clip starts and prediction averaging


def test_clip_starts_hand_derived_list():
    assert uniform_clip_starts(100, 8, 10) == [0, 10, 20, 31, 41, 51, 61, 72, 82, 92]


def test_clip_starts_degenerate_cases():
    assert uniform_clip_starts(8, 8, 10) == [0] * 10
    assert uniform_clip_starts(100, 8, 1) == [46]


def test_clip_starts_bounds_and_monotone():
    rng = np.random.default_rng(1)
    for _ in range(200):
        frames = int(rng.integers(2, 500))
        clip = int(rng.integers(1, frames + 1))
        n = int(rng.integers(1, 15))
        starts = uniform_clip_starts(frames, clip, n)
        assert all(0 <= s <= frames - clip for s in starts)
        assert starts == sorted(starts)
        if n > 1 and frames > clip:
            assert starts[0] == 0 and starts[-1] == frames - clip


def test_clip_starts_segment_center_placement():
    centers = uniform_clip_starts(100, 8, 10, placement="centers")
    assert centers == [
        int(np.floor((i + 0.5) * 92 / 10 + 0.5)) for i in range(10)
    ]
    assert all(0 <= s <= 92 for s in centers)
    assert centers == sorted(centers)
    assert uniform_clip_starts(100, 8, 1, placement="centers") == [46]


def _exact_clip_starts(num_frames: int, clip_len: int, n_clips: int, placement: str) -> list[int]:
    """The documented starts, rounded half-up in exact rational arithmetic."""
    span, half = Fraction(num_frames - clip_len), Fraction(1, 2)
    if n_clips == 1:
        return [math.floor(span / 2 + half)]
    if placement == "centers":
        return [math.floor((i + half) * span / n_clips + half) for i in range(n_clips)]
    return [math.floor(i * span / (n_clips - 1) + half) for i in range(n_clips)]


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 2**64), st.integers(1, 2**64), st.integers(1, 12), st.sampled_from(["endpoints", "centers"]))
@example(1152921504606846979, 1, 3, "endpoints")  # float arithmetic gave ...976 for the last start, not ...978
@example(1098080243127315, 646733589556283, 23, "centers")  # and ...616 for start 20, not ...615
def test_clip_starts_equal_the_exact_rational_starts(num_frames, clip_len, n_clips, placement):
    clip_len = 1 + (clip_len - 1) % num_frames  # any clip length in 1..num_frames
    got = uniform_clip_starts(num_frames, clip_len, n_clips, placement)
    assert got == _exact_clip_starts(num_frames, clip_len, n_clips, placement)
    assert all(type(start) is int for start in got)


def test_clip_starts_errors():
    with pytest.raises(ValidationError):
        uniform_clip_starts(4, 8, 10)
    with pytest.raises(ValidationError):
        uniform_clip_starts(100, 8, 10, placement="bogus")


def test_video_prediction_mean():
    assert np.allclose(video_prediction([np.array([1.0, 0.0]), np.array([0.0, 1.0])]), [0.5, 0.5])
    same = [np.array([0.3, 0.7])] * 4
    assert np.allclose(video_prediction(same), [0.3, 0.7])


def test_video_prediction_argmax_matches_recompute():
    rng = np.random.default_rng(2)
    clips = [rng.standard_normal(6) for _ in range(10)]
    mean = np.zeros(6)
    for c in clips:
        mean += c
    mean /= 10
    assert np.argmax(video_prediction(clips)) == int(np.argmax(mean))


def test_video_prediction_scale_invariant_argmax():
    rng = np.random.default_rng(3)
    clips = [rng.standard_normal(5) for _ in range(4)]
    a = np.argmax(video_prediction(clips))
    b = np.argmax(video_prediction([7.5 * c for c in clips]))
    assert a == b


def test_video_prediction_probability_averaging():
    clips = [np.array([2.0, 0.0]), np.array([0.0, 2.0])]
    probs = video_prediction([softmax(c) for c in clips])
    assert np.allclose(probs, [0.5, 0.5])
    assert abs(probs.sum() - 1.0) < 1e-12


def test_video_prediction_ragged_errors():
    with pytest.raises(ValidationError):
        video_prediction([np.zeros(3), np.zeros(4)])


# ---------------------------------------------------------------------------
# probe


def _separable_toy(n: int = 40) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(5)
    x0 = rng.normal(loc=(-2.0, 0.0), scale=0.4, size=(n // 2, 2))
    x1 = rng.normal(loc=(2.0, 0.0), scale=0.4, size=(n // 2, 2))
    x = np.vstack([x0, x1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return x, y


def test_probe_separable_toy_perfect_accuracy():
    x, y = _separable_toy()
    model = train_probe(x, y, ProbeMode.SOFTMAX_MULTICLASS, l2_lambda=1e-6, iters=5000, step=0.5)
    assert np.mean(model.predict(x) == y) == 1.0


def test_probe_strong_regularization_shrinks_weights():
    x, y = _separable_toy()
    model = train_probe(
        x, y, ProbeMode.SOFTMAX_MULTICLASS, l2_lambda=1e3, iters=3000, step=1e-4
    )
    assert float(np.linalg.norm(model.weights)) < 1e-2


def test_probe_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    for mode in ProbeMode:
        for _ in range(5):
            n, d, classes = 7, 3, 4
            x = rng.standard_normal((n, d))
            if mode is ProbeMode.SOFTMAX_MULTICLASS:
                t = rng.integers(0, classes, size=n)
            else:
                t = (rng.uniform(size=(n, classes)) > 0.5).astype(float)
            weights = rng.standard_normal((classes, d))
            bias = rng.standard_normal(classes)
            lam = 1e-3

            def loss_of(flat: np.ndarray) -> float:
                w = flat[: classes * d].reshape(classes, d)
                b = flat[classes * d :]
                return probe_loss_and_grad(w, b, x, t, mode, lam)[0]

            _, grad_w, grad_b = probe_loss_and_grad(weights, bias, x, t, mode, lam)
            analytic = np.concatenate([grad_w.ravel(), grad_b])
            numeric = fd_gradient(loss_of, np.concatenate([weights.ravel(), bias]), eps=1e-5)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel <= 1e-4


def test_probe_loss_non_increasing_for_small_step():
    x, y = _separable_toy()
    weights = np.zeros((2, 2))
    bias = np.zeros(2)
    losses = []
    for _ in range(200):
        loss, gw, gb = probe_loss_and_grad(weights, bias, x, y, ProbeMode.SOFTMAX_MULTICLASS, 1e-4)
        losses.append(loss)
        weights -= 0.1 * gw
        bias -= 0.1 * gb
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_probe_nonfinite_loss_reports_iteration():
    x = np.array([[1e300, 1e300], [-1e300, -1e300]])
    y = np.array([0, 1])
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="iteration"):
        train_probe(x, y, ProbeMode.SOFTMAX_MULTICLASS, iters=5, step=1e6)


def test_probe_needs_enough_samples():
    with pytest.raises(ValidationError, match="samples"):
        train_probe(np.zeros((2, 3)), np.array([0, 4]), ProbeMode.SOFTMAX_MULTICLASS)


@pytest.mark.parametrize("mode, targets", [("softmax", np.zeros(0)), ("sigmoid", np.zeros((0, 2)))])
def test_probe_on_zero_samples_is_a_validation_error(mode, targets):
    with pytest.raises(ValidationError, match="n >= 1"):
        train_probe(np.zeros((0, 3)), targets, ProbeMode(mode))


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 3)).astype(np.float32)
    y = rng.integers(0, 4, size=6)
    path = tmp_path / "f.cfft"
    save_features(x, y, ProbeMode.SOFTMAX_MULTICLASS, path)
    x2, y2 = load_features(path, ProbeMode.SOFTMAX_MULTICLASS)
    assert np.allclose(x2, x) and np.array_equal(y2, y)

    ml = (rng.uniform(size=(6, 5)) > 0.5).astype(np.uint8)
    path2 = tmp_path / "ml.cfft"
    save_features(x, ml, ProbeMode.SIGMOID_MULTILABEL, path2)
    x3, y3 = load_features(path2, ProbeMode.SIGMOID_MULTILABEL)
    assert np.allclose(x3, x) and np.array_equal(y3, ml)


def test_multilabel_features_hold_only_0_or_1(tmp_path):
    x = np.eye(3, dtype=np.float32)
    path = tmp_path / "f.cfft"
    for labels in (np.array([[0, 2], [1, 0], [0, 0]]), np.full((3, 1), 0.5)):
        with pytest.raises(ValidationError, match="must be 0 or 1"):
            save_features(x, labels, ProbeMode.SIGMOID_MULTILABEL, path)
    assert not path.exists()
    # a multiclass file read as multilabel: its u32 class ids are bytes 0..2
    save_features(x, np.array([0, 1, 2]), ProbeMode.SOFTMAX_MULTICLASS, path)
    with pytest.raises(ValidationError, match=f"^{path}: multilabel label bytes must be 0 or 1"):
        load_features(path, ProbeMode.SIGMOID_MULTILABEL)


def test_probe_rejects_negative_iters():
    x, y = np.eye(2), np.array([0, 1])
    with pytest.raises(ValidationError, match="^iters must be an integer >= 0, got -5$"):
        train_probe(x, y, ProbeMode.SOFTMAX_MULTICLASS, iters=-5)
    assert train_probe(x, y, ProbeMode.SOFTMAX_MULTICLASS, iters=0).final_loss == math.log(2)


@pytest.mark.parametrize("mode", list(ProbeMode))
def test_probe_overflow_raises_without_warnings(mode):
    # the loss check reports overflow; numpy's warnings would add stderr lines
    x = np.array([[1.0, 2.0], [-1.0, 0.5], [0.3, -2.0]])
    y = np.array([0, 1, 0]) if mode is ProbeMode.SOFTMAX_MULTICLASS else np.eye(3)[:, :2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite loss at iteration 1"):
            train_probe(x, y, mode, iters=5, step=1e308)


# The loss and training loop as they were before the gather/scatter rewrite:
# a one-hot matrix, a second exp inside softmax, a masked sigmoid.  The
# rewrite promises the same bits, including where each result is nan.


def _old_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _old_one_hot(labels, classes):
    y = np.zeros((labels.shape[0], classes))
    y[np.arange(labels.shape[0]), labels] = 1.0
    return y


def _old_softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _old_loss_and_grad(weights, bias, features, targets, mode, l2_lambda):
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    z = x @ weights.T + bias
    if mode is ProbeMode.SOFTMAX_MULTICLASS:
        y = _old_one_hot(np.asarray(targets, dtype=np.int64), weights.shape[0])
        zmax = z.max(axis=1, keepdims=True)
        log_norm = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
        loss = float(np.mean(log_norm - (z * y).sum(axis=1)))
        delta = (_old_softmax(z) - y) / n
    else:
        y = np.asarray(targets, dtype=np.float64)
        loss = float(np.sum(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))) / n)
        delta = (_old_sigmoid(z) - y) / n
    loss += l2_lambda * float(np.sum(weights * weights))
    grad_w = delta.T @ x + 2.0 * l2_lambda * weights
    grad_b = delta.sum(axis=0)
    return loss, grad_w, grad_b


def _old_train(x, t, mode, l2_lambda, iters, step, classes):
    weights = np.zeros((classes, x.shape[1]))
    bias = np.zeros(classes)
    for it in range(iters):
        loss, grad_w, grad_b = _old_loss_and_grad(weights, bias, x, t, mode, l2_lambda)
        if not np.isfinite(loss):
            return f"non-finite loss at iteration {it}"
        weights -= step * grad_w
        bias -= step * grad_b
    loss, _gw, _gb = _old_loss_and_grad(weights, bias, x, t, mode, l2_lambda)
    return weights, bias, loss


def _same_bits(a, b) -> bool:
    """Equal shapes, nan in the same places, and every other value bit for bit."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    keep = ~np.isnan(a)
    return np.array_equal(a[keep].view(np.uint64), b[keep].view(np.uint64))


@st.composite
def _probe_problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(list(ProbeMode)))
    n, d, classes = draw(st.integers(1, 9)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    x = rng.standard_normal((n, d)) * draw(st.sampled_from([1.0, 1e3]))
    if mode is ProbeMode.SOFTMAX_MULTICLASS:
        t = rng.integers(0, classes, size=n)
    else:
        t = (rng.uniform(size=(n, classes)) > 0.5).astype(np.float64)
    # per-class scales up to 1e306, so some logits overflow to +-inf (or nan,
    # from inf - inf) while others in the same row stay finite
    def per_class(values):
        return np.array(draw(st.lists(st.sampled_from(values), min_size=classes, max_size=classes)))

    weights = rng.standard_normal((classes, d)) * per_class([0.0, 1.0, 1e100, 1e306])[:, None]
    bias = rng.standard_normal(classes) * per_class([1.0, 1e300])
    l2_lambda = draw(st.sampled_from([0.0, 1e-4, 0.5]))
    return weights, bias, x, t, mode, l2_lambda


@settings(max_examples=400, deadline=None)
@given(_probe_problems())
def test_probe_loss_and_grad_equals_the_one_hot_oracle_bit_for_bit(problem):
    with np.errstate(all="ignore"):
        got = probe_loss_and_grad(*problem)
        want = _old_loss_and_grad(*problem)
    for g, w in zip(got, want):
        assert _same_bits(g, w)


def test_probe_loss_is_nan_for_minus_inf_logit_off_the_label():
    # z = [0, -inf]: the exp makes the -inf vanish, only the label term can
    # carry it, so the loss is nan exactly as with a one-hot product
    weights, bias = np.array([[0.0], [-1e308]]), np.array([0.0, -1e308])
    x, t = np.array([[1.0]]), np.array([0])
    with np.errstate(all="ignore"):
        loss = probe_loss_and_grad(weights, bias, x, t, ProbeMode.SOFTMAX_MULTICLASS, 0.0)[0]
        assert math.isnan(loss)
        assert math.isnan(_old_loss_and_grad(weights, bias, x, t, ProbeMode.SOFTMAX_MULTICLASS, 0.0)[0])


def _lbfgs_minimum(x, t, mode, l2_lambda, classes) -> float:
    """The minimum of the one-hot reference loss by scipy's L-BFGS-B, from zero init."""
    d = x.shape[1]

    def loss_and_grad(flat):
        weights, bias = flat[: classes * d].reshape(classes, d), flat[classes * d :]
        loss, grad_w, grad_b = _old_loss_and_grad(weights, bias, x, t, mode, l2_lambda)
        return loss, np.concatenate([grad_w.ravel(), grad_b])

    result = minimize(loss_and_grad, np.zeros(classes * (d + 1)), jac=True, method="L-BFGS-B",
                      options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 100_000})
    return float(result.fun)


def _grad_norm(weights, bias, x, t, mode, l2_lambda) -> float:
    _loss, grad_w, grad_b = probe_loss_and_grad(weights, bias, x, t, mode, l2_lambda)
    return math.sqrt(float(np.sum(grad_w * grad_w) + np.sum(grad_b * grad_b)))


# With random labels and at least 10 (d + 1) samples a class is almost never
# separable, so the minimum is well conditioned: over 2,000 such problems
# (n in 40-64) a gradient norm of GRAD_TOL times the initial one left loss
# gaps of at most 4e-7.  With few samples a class can be separable and the
# loss nearly flat near its minimum, where the gradient norm bounds the loss
# gap only loosely: see the flat-problem test below.
_LBFGS_EPS = 1e-5


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(ProbeMode)),
    st.integers(50, 64),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([1e-4, 1e-2, 0.5]),
    st.sampled_from([0.1, 1.0, 10.0]),
)
def test_train_probe_stops_at_the_tolerance_near_the_lbfgs_minimum(seed, mode, n, d, classes, lam, scale):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * scale
    if mode is ProbeMode.SOFTMAX_MULTICLASS:
        t = rng.permutation(np.arange(n) % classes)  # every class present
    else:
        t = (rng.uniform(size=(n, classes)) > 0.5).astype(np.float64)
    with mock.patch.object(probe, "probe_loss_and_grad", wraps=probe.probe_loss_and_grad) as spy:
        model = train_probe(x, t, mode, lam)
    assert spy.call_count <= 1000  # stopped before the cap of 1000 steps
    zero_w, zero_b = np.zeros((classes, d)), np.zeros(classes)
    assert _grad_norm(model.weights, model.bias, x, t, mode, lam) <= GRAD_TOL * _grad_norm(
        zero_w, zero_b, x, t, mode, lam)
    # the returned loss is the loss at the returned model, the last point evaluated
    assert _same_bits(model.final_loss, probe_loss_and_grad(model.weights, model.bias, x, t, mode, lam)[0])
    want = _lbfgs_minimum(x, t, mode, lam, classes)
    assert abs(model.final_loss - want) <= _LBFGS_EPS * max(1.0, want)


def _benchmark_shaped_problem(mode):
    """1500 x 96 features of 32 classes, drawn like the benchmark's probe inputs."""
    rng = np.random.default_rng(3)
    n, d, classes = 1500, 96, 32
    means = rng.standard_normal((classes, d)) / math.sqrt(d)
    if mode is ProbeMode.SOFTMAX_MULTICLASS:
        y = rng.permutation(np.arange(n) % classes)
        return means[y] + 0.6 * rng.standard_normal((n, d)) / math.sqrt(d), y
    multi = np.zeros((n, classes))
    multi[np.arange(n), rng.integers(classes, size=n)] = 1.0
    multi[np.arange(n), rng.integers(classes, size=n)] = 1.0
    return multi @ means + 0.6 * rng.standard_normal((n, d)) / math.sqrt(d), multi


@pytest.mark.parametrize("mode", list(ProbeMode))
def test_train_probe_ends_below_the_loss_of_1000_fixed_steps(mode):
    x, t = _benchmark_shaped_problem(mode)
    fixed_loss = _old_train(x, t, mode, 1e-4, 1000, 1.0, 32)[2]
    assert train_probe(x, t, mode).final_loss <= fixed_loss


# twice the gradients each mode needed to reach GRAD_TOL (28 and 23)
_GRADIENT_BUDGET = {ProbeMode.SOFTMAX_MULTICLASS: 56, ProbeMode.SIGMOID_MULTILABEL: 46}


@pytest.mark.parametrize("mode", list(ProbeMode))
def test_train_probe_reaches_the_tolerance_within_the_gradient_budget(mode):
    x, t = _benchmark_shaped_problem(mode)
    with mock.patch.object(probe, "probe_loss_and_grad", wraps=probe.probe_loss_and_grad) as spy:
        model = train_probe(x, t, mode)
    assert spy.call_count <= _GRADIENT_BUDGET[mode]
    zero_w, zero_b = np.zeros_like(model.weights), np.zeros_like(model.bias)
    assert _grad_norm(model.weights, model.bias, x, t, mode, 1e-4) <= GRAD_TOL * _grad_norm(
        zero_w, zero_b, x, t, mode, 1e-4)


def test_train_probe_on_flat_problems_stops_before_the_cap_near_the_lbfgs_minimum():
    # 16 samples of 4 classes in 4 dims, scaled up: often near-separable, so
    # the loss is flat around its minimum and a gradient step makes little
    # progress there.  The gradient-norm stop still bounds the gap only loosely.
    counts, gaps = [], []
    for seed in range(150):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((16, 4)) * 10.0
        t = rng.permutation(np.arange(16) % 4)
        with mock.patch.object(probe, "probe_loss_and_grad", wraps=probe.probe_loss_and_grad) as spy:
            model = train_probe(x, t, ProbeMode.SOFTMAX_MULTICLASS, 1e-4)
        want = _lbfgs_minimum(x, t, ProbeMode.SOFTMAX_MULTICLASS, 1e-4, 4)
        counts.append(spy.call_count)
        gaps.append(abs(model.final_loss - want) / max(1.0, want))
    assert max(counts) <= 1000, f"seed {counts.index(max(counts))} stopped at the cap of 1000 steps"
    assert max(gaps) <= 1e-2, f"seed {gaps.index(max(gaps))}: loss {max(gaps):.3g} above the minimum"


@pytest.mark.parametrize("mode", list(ProbeMode))
def test_train_probe_first_step_is_1_over_l_or_the_given_step(mode):
    rng = np.random.default_rng(13)
    x, labels = rng.standard_normal((30, 5)) * 3.0 + 1.0, np.arange(30) % 4
    t = labels if mode is ProbeMode.SOFTMAX_MULTICLASS else np.eye(4)[labels]
    _loss, grad_w, grad_b = probe_loss_and_grad(np.zeros((4, 5)), np.zeros(4), x, t, mode, 0.01)
    augmented = np.hstack([x, np.ones((30, 1))])
    curvature = 0.5 if mode is ProbeMode.SOFTMAX_MULTICLASS else 0.25
    step = 1.0 / (np.linalg.eigvalsh(augmented.T @ augmented / 30)[-1] * curvature + 2 * 0.01)
    model = train_probe(x, t, mode, 0.01, iters=1)
    np.testing.assert_allclose(model.weights, -step * grad_w, rtol=1e-12)
    np.testing.assert_allclose(model.bias, -step * grad_b, rtol=1e-12)
    given = train_probe(x, t, mode, 0.01, iters=1, step=0.3)
    assert np.array_equal(given.weights, -0.3 * grad_w) and np.array_equal(given.bias, -0.3 * grad_b)


@pytest.mark.parametrize("mode", list(ProbeMode))
def test_train_probe_returns_the_last_accepted_point_when_the_gradients_run_out(mode):
    # steps of 1e3, 500 and 250 gradients all overshoot, so the three trials
    # iters=3 allows are rejected and training ends at zero init
    x, y = _separable_toy(12)
    t = y if mode is ProbeMode.SOFTMAX_MULTICLASS else np.eye(2)[y]
    loss, grad_w, grad_b = probe_loss_and_grad(np.zeros((2, 2)), np.zeros(2), x, t, mode, 1e-4)
    for step in (1e3, 500.0, 250.0):
        assert probe_loss_and_grad(-step * grad_w, -step * grad_b, x, t, mode, 1e-4)[0] > loss
    with mock.patch.object(probe, "probe_loss_and_grad", wraps=probe.probe_loss_and_grad) as spy:
        model = train_probe(x, t, mode, iters=3, step=1e3)
    assert spy.call_count == 4  # line-search trials count against iters
    assert not model.weights.any() and not model.bias.any()
    assert model.final_loss == loss


def _huge_problem(mode):
    x = np.array([[1e200, 1.0], [-1e200, 2.0], [3.0, 1e200]])
    return x, (np.array([0, 1, 0]) if mode is ProbeMode.SOFTMAX_MULTICLASS else np.eye(3)[:, :2])


@pytest.mark.parametrize("mode", list(ProbeMode))
def test_train_probe_overflowing_gram_is_a_validation_error_without_warnings(mode):
    x, t = _huge_problem(mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^features too large: their Gram matrix overflows float64$"):
            train_probe(x, t, mode)


@pytest.mark.parametrize("mode", list(ProbeMode))
def test_train_probe_reports_a_non_finite_gradient_norm_as_a_non_finite_loss(mode):
    # a given step skips the Gram matrix; the first gradient is finite, its norm is not
    x, t = _huge_problem(mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^non-finite loss at iteration 0$"):
            train_probe(x, t, mode, step=1.0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"step": -1.0}, "step must be finite and > 0, got -1.0"),
        ({"step": 0.0}, "step must be finite and > 0, got 0.0"),
        ({"step": math.nan}, "step must be finite and > 0, got nan"),
        ({"step": math.inf}, "step must be finite and > 0, got inf"),
        ({"l2_lambda": -1.0}, "l2_lambda must be finite and >= 0, got -1.0"),
        ({"l2_lambda": math.nan}, "l2_lambda must be finite and >= 0, got nan"),
        ({"l2_lambda": math.inf}, "l2_lambda must be finite and >= 0, got inf"),
        ({"l2_lambda": 1e308}, "l2_lambda must be < 2\\*\\*1023, got 1e\\+308"),
        ({"l2_lambda": 2.0**1023}, "l2_lambda must be < 2\\*\\*1023, got 8.98846567431158e\\+307"),
    ],
)
def test_train_probe_rejects_bad_step_and_l2_before_computing(monkeypatch, kwargs, message):
    def no_work(*args):
        raise AssertionError("computed before the arguments were checked")

    monkeypatch.setattr(probe, "_lipschitz_step", no_work)
    monkeypatch.setattr(probe, "probe_loss_and_grad", no_work)
    x, y = _separable_toy()
    with pytest.raises(ValidationError, match=f"^{message}$"):
        train_probe(x, y, ProbeMode.SOFTMAX_MULTICLASS, **kwargs)


def test_train_probe_rejects_a_negative_class_id_before_computing(monkeypatch):
    def no_work(*args):
        raise AssertionError("computed before the class ids were checked")

    monkeypatch.setattr(probe, "_lipschitz_step", no_work)
    monkeypatch.setattr(probe, "probe_loss_and_grad", no_work)
    x, y = _separable_toy()
    y[3] = -1
    with pytest.raises(ValidationError, match=r"^targets: class id -1 is outside 0\.\.1$"):
        train_probe(x, y, ProbeMode.SOFTMAX_MULTICLASS)


def test_fresh_probe_loss_and_grad_returns_arrays_the_caller_owns():
    rng = np.random.default_rng(12)
    x, t = rng.standard_normal((6, 3)), np.arange(6) % 4
    for mode, targets in [(ProbeMode.SOFTMAX_MULTICLASS, t), (ProbeMode.SIGMOID_MULTILABEL, np.eye(4)[t])]:
        first = probe_loss_and_grad(rng.standard_normal((4, 3)), rng.standard_normal(4), x, targets, mode, 0.1)
        kept = [a.copy() for a in first[1:]]
        second = probe_loss_and_grad(rng.standard_normal((4, 3)), rng.standard_normal(4), x, targets, mode, 0.1)
        assert not any(np.shares_memory(a, b) for a in first[1:] for b in second[1:])
        for a, b in zip(first[1:], kept):
            assert _same_bits(a, b)


@pytest.mark.parametrize("iters", [0, 1, 7])
@pytest.mark.parametrize("mode", list(ProbeMode))
def test_train_probe_calls_the_public_loss_once_per_step(monkeypatch, mode, iters):
    calls = []
    real = probe.probe_loss_and_grad

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(probe, "probe_loss_and_grad", counted)
    x, y = _separable_toy(12)
    targets = y if mode is ProbeMode.SOFTMAX_MULTICLASS else np.eye(2)[y]
    train_probe(x, targets, mode, iters=iters, step=0.5)
    assert len(calls) == iters + 1


# ---------------------------------------------------------------------------
# metrics


def test_topk_perfect_and_full():
    scores = np.eye(4)
    labels = np.arange(4)
    assert accuracy_topk(scores, labels, 1) == 1.0
    assert accuracy_topk(np.zeros((4, 4)), labels, 4) == 1.0


def test_topk_uniform_scores_tie_break_by_index():
    scores = np.zeros((3, 3))
    labels = np.array([0, 1, 2])
    # ties resolve to the lowest class index, so top-1 is always class 0
    assert accuracy_topk(scores, labels, 1) == pytest.approx(1 / 3)
    assert accuracy_topk(scores, labels, 2) == pytest.approx(2 / 3)


def test_topk_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n, c = int(rng.integers(1, 30)), int(rng.integers(2, 8))
        scores = np.round(rng.standard_normal((n, c)), 1)  # induce ties
        labels = rng.integers(0, c, size=n)
        for k in (1, min(5, c), c):
            assert accuracy_topk(scores, labels, k) == pytest.approx(
                topk_accuracy_oracle(scores, labels, k)
            )


_TIE_PRONE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_stable_argsort_ranks_like_the_lexsort_reference(n, classes, data):
    # the lexsort form (primary key -score, secondary key index) is the reference
    scores = np.array(data.draw(st.lists(_TIE_PRONE, min_size=n * classes, max_size=n * classes)),
                      dtype=np.float64).reshape(n, classes)
    labels = np.array(data.draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n)))
    order = np.lexsort((np.tile(np.arange(classes), (n, 1)), -scores), axis=1)
    for k in range(1, classes + 1):
        assert accuracy_topk(scores, labels, k) == float((order[:, :k] == labels[:, None]).any(axis=1).mean())
    for column in scores.T:
        positives = (labels == labels[0])[np.lexsort((np.arange(n), -column))]
        ranks = np.arange(1, n + 1)
        want = float(np.sum(np.cumsum(positives)[positives] / ranks[positives]) / positives.sum())
        assert average_precision(column, labels == labels[0]) == want


def test_topk_k_out_of_range():
    with pytest.raises(ValidationError):
        accuracy_topk(np.zeros((2, 3)), np.zeros(2, dtype=int), 4)


@pytest.mark.parametrize("bad", [3, 9, -1])
def test_topk_label_without_a_score_column_is_an_error(bad):
    labels = np.array([0, 1, bad, 2, bad])
    with pytest.raises(ValidationError, match=f"^labels: class id {bad} is outside 0\\.\\.2$"):
        accuracy_topk(np.eye(5, 3), labels, 1)


def test_ap_hand_case():
    # one positive ranked second of three -> precision@2 = 1/2
    scores = np.array([3.0, 2.0, 1.0])
    truth = np.array([0, 1, 0])
    assert average_precision(scores, truth) == pytest.approx(0.5)


def test_map_perfect_ranking():
    scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]])
    truth = np.array([[1, 0], [1, 0], [0, 1]])
    value, skipped = mean_average_precision(scores, truth)
    assert value == 1.0 and skipped == []


def test_map_skips_empty_labels_and_reports():
    scores = np.array([[0.9, 0.5], [0.1, 0.4]])
    truth = np.array([[1, 0], [0, 0]])
    value, skipped = mean_average_precision(scores, truth)
    assert skipped == [1]
    assert value == 1.0


def test_map_all_skipped_errors():
    with pytest.raises(ValidationError):
        mean_average_precision(np.zeros((2, 2)), np.zeros((2, 2)))


def test_map_matches_oracle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n, labels = int(rng.integers(2, 40)), int(rng.integers(1, 8))
        scores = np.round(rng.standard_normal((n, labels)), 1)
        truth = (rng.uniform(size=(n, labels)) > 0.6).astype(int)
        if not truth.any():
            truth[0, 0] = 1
        value, _ = mean_average_precision(scores, truth)
        assert value == pytest.approx(map_oracle(scores, truth))
