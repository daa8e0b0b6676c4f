"""The two argument rules, at every library entry point that takes a count or
a real number.

A count is an integer of at least its low bound (``records.check_count``), a
real a finite number in an interval (``records.check_real``).  Each bad value
below must raise a ``ValidationError`` whose message starts with the
argument's name: no ``TypeError``, no other ``ValueError``, and no quiet
return.  numpy scalars of valid values still pass.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge.census import SignatureSequence, bilinear_resize
from corpusforge.dedup import LshIndex, dedup_report, overlap
from corpusforge.evalmetrics import accuracy_topk, uniform_clip_starts
from corpusforge.inflate import (
    center_crop,
    center_crop_box,
    inflate,
    inflate_net,
    inflation_equivalence,
    scale_shortest_edge,
)
from corpusforge.netops import Conv2dLayer, NetSpec, conv2d_forward, conv3d_forward
from corpusforge.manifest import ManifestRow
from corpusforge.probe import train_probe
from corpusforge.records import (
    LabelKind,
    LabelSpace,
    ValidationError,
    VideoRecord,
    _shown,
    check_count,
    check_real,
    load_label_space,
    save_label_space,
)
from corpusforge.rng import check_seed
from corpusforge.sampling import SamplingPlan, Strategy, subset_labels
from corpusforge.schedule import lr_schedule, save_schedule
from corpusforge.temporal import BudgetMode, BudgetPlan, LengthClass, jitter_clip

_NOT_A_NUMBER = [math.nan, math.inf, -math.inf, True, "3"]
_HUGE = 10**5000  # beyond the float range, and too long for repr()
_BAD_COUNT = [1.5, *_NOT_A_NUMBER, -_HUGE]
_BAD_REAL = [*_NOT_A_NUMBER, 10**400, _HUGE, -_HUGE]  # 10**400 is beyond the float range


def _space(min_count=1) -> LabelSpace:
    return LabelSpace("s", LabelKind.SEED, {f"l{i}": [f"t{i}"] for i in range(3)}, min_count=min_count)


def _net() -> NetSpec:
    return NetSpec([Conv2dLayer(np.ones((1, 1, 3, 3)))])


def _sig() -> SignatureSequence:
    return SignatureSequence("v", np.full((2, 64), 1 / 64))


def _index() -> LshIndex:
    index = LshIndex()
    index.insert(_sig())
    return index


_PROBE = (np.eye(3), np.arange(3))

# entry point -> (call taking the argument values, {argument: (kind, valid value, extra bad values)});
# the extra bad values are those outside the argument's range, by its rule or by a bound it shares
_ENTRIES = {
    "SamplingPlan": (
        lambda budget: SamplingPlan(Strategy.RANDOM, budget, 0),
        {"budget": ("count", 3, [0, -1])},
    ),
    "subset_labels": (
        lambda k: subset_labels(_space(), k, 0),
        {"k": ("count", 2, [0, -1, 2**64])},
    ),
    "BudgetPlan f1": (
        lambda count: BudgetPlan(BudgetMode.FIXED_COUNT, LengthClass.SHORT, count=count),
        {"count": ("count", 3, [0, -1])},
    ),
    "BudgetPlan f2": (
        lambda minutes: BudgetPlan(BudgetMode.FIXED_DURATION, LengthClass.SHORT, total_minutes=minutes),
        {"total_minutes": ("real", 0.5, [0, -1])},
    ),
    "jitter_clip": (
        lambda duration_s, clip_len_s, start, end: jitter_clip(duration_s, clip_len_s, 0, (start, end)),
        {
            "duration_s": ("real", 4.0, [0, -1]),
            "clip_len_s": ("real", 1.0, [0, -1]),
            "window start": ("real", 0.5, [-1]),
            "window end": ("real", 3.5, [-1]),
        },
    ),
    "LabelSpace": (lambda min_count: _space(min_count), {"min_count": ("count", 3, [0, -1])}),
    "inflate": (
        lambda k: inflate(np.ones((1, 1, 3, 3)), k),
        {"temporal extent k": ("count", 3, [0, -1])},
    ),
    "inflate_net": (lambda k: inflate_net(_net(), k), {"temporal extent k": ("count", 3, [0, -1])}),
    "inflation_equivalence": (
        lambda k, tol: inflation_equivalence(_net(), k, np.ones((1, 5, 5)), tol=tol),
        {"temporal extent k": ("count", 3, [0, -1]), "tol": ("real", 1e-5, [-1])},
    ),
    "scale_shortest_edge": (
        lambda target: scale_shortest_edge((10, 20), target),
        {"target": ("count", 8, [0, -1])},
    ),
    "center_crop_box": (lambda size: center_crop_box((10, 20), size), {"size": ("count", 4, [0, -1])}),
    "center_crop": (lambda size: center_crop(np.ones((10, 20)), size), {"size": ("count", 4, [0, -1])}),
    "bilinear_resize": (
        lambda out_h, out_w: bilinear_resize(np.ones((6, 8)), out_h, out_w),
        {"out_h": ("count", 3, [0, -1]), "out_w": ("count", 4, [0, -1])},
    ),
    "LshIndex.match": (
        lambda tau: _index().match(_sig().frames[0], tau),
        {"tau": ("real", 0.9, [-2, 2**64])},
    ),
    "overlap": (lambda tau: overlap(_sig(), _index(), tau), {"tau": ("real", 0.9, [-2, 2**64])}),
    "dedup_report": (
        lambda tau, threshold_pct: dedup_report([_sig()], [_sig()], tau, threshold_pct),
        {"tau": ("real", 0.9, [-2, 2**64]), "threshold_pct": ("real", 20.0, [-1, 101, 2**64])},
    ),
    "uniform_clip_starts": (
        uniform_clip_starts,
        {
            "num_frames": ("count", 100, [0, -1]),
            "clip_len": ("count", 8, [0, -1, 2**64]),
            "n_clips": ("count", 10, [0, -1]),
        },
    ),
    "accuracy_topk": (
        lambda k: accuracy_topk(np.eye(3), np.arange(3), k),
        {"k": ("count", 2, [0, -1, 2**64])},
    ),
    "conv2d_forward": (
        lambda stride: conv2d_forward(np.ones((1, 4, 4)), np.ones((1, 1, 2, 2)), stride=stride),
        {"conv2d stride": ("count", 2, [0, -1])},
    ),
    "conv3d_forward": (
        lambda stride: conv3d_forward(np.ones((1, 2, 4, 4)), np.ones((1, 1, 2, 2, 2)), stride=stride),
        {"conv3d stride": ("count", 2, [0, -1])},
    ),
    "train_probe": (
        lambda iters, step, l2_lambda: train_probe(*_PROBE, iters=iters, step=step, l2_lambda=l2_lambda),
        {"iters": ("count", 3, [-1]), "step": ("real", 0.5, [0, -1]), "l2_lambda": ("real", 1e-4, [-1])},
    ),
    "lr_schedule": (
        lr_schedule,
        {
            "base_lr": ("real", 0.1, [0, -1]),
            "warmup_iters": ("count", 2, [-1]),
            "total_iters": ("count", 20, [0, -1]),
            "num_reductions": ("count", 3, [-1]),
            "factor": ("real", 0.5, [0, 1, -1, 2**64]),
        },
    ),
}

_BAD_CASES = [
    pytest.param(entry, name, value, id=f"{entry}-{name}-{_shown(value)}"[:60])
    for entry, (_call, args) in _ENTRIES.items()
    for name, (kind, _valid, out_of_range) in args.items()
    for value in (_BAD_COUNT if kind == "count" else _BAD_REAL) + out_of_range
]


def _call(entry: str, **override):
    call, args = _ENTRIES[entry]
    values = [override.get(name, valid) for name, (_kind, valid, _bad) in args.items()]
    return call(*values)


@pytest.mark.parametrize("entry, name, value", _BAD_CASES)
def test_each_bad_count_or_real_is_a_validation_error_naming_the_argument(entry, name, value):
    with pytest.raises(ValidationError) as info:
        _call(entry, **{name: value})
    assert str(info.value).startswith((f"{name} ", f"{name}="))
    assert "\n" not in str(info.value)


_COUNT_ARGS = [
    pytest.param(entry, name, id=f"{entry}-{name}")
    for entry, (_call, args) in _ENTRIES.items()
    for name, (kind, _valid, _bad) in args.items()
    if kind == "count"
]


@pytest.mark.parametrize("entry, name", _COUNT_ARGS)
def test_a_huge_count_passes_or_is_a_validation_error(entry, name):
    # 10**5000 is a count by the rule; a bound after it may reject it, but
    # naming it must not fail (repr of an int over 4300 digits raises)
    try:
        _call(entry, **{name: _HUGE})
    except ValidationError as exc:
        assert "\n" not in str(exc)


@pytest.mark.parametrize("value", [_HUGE, -_HUGE], ids=["huge", "-huge"])
def test_records_and_rows_reject_a_huge_number(value):
    for make, field in [
        (lambda: VideoRecord("a", value, []), "duration_s"),
        (lambda: VideoRecord("a", 2.0, [], frame_rate=value), "frame_rate"),
        (lambda: ManifestRow("v", "l", value, 1.0), "clip_start_s"),
        (lambda: ManifestRow("v", "l", 0.0, value), "clip_len_s"),
        (lambda: ManifestRow(value, "l", 0.0, 1.0), "video_id"),
        (lambda: check_seed(value), "seed"),
    ]:
        with pytest.raises(ValidationError, match="5001 digits") as info:
            make()
        assert field in str(info.value) and "\n" not in str(info.value)


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_numpy_scalars_of_valid_values_pass(entry):
    _call(entry)
    _call(entry, **{
        name: np.int64(valid) if kind == "count" else np.float64(valid)
        for name, (kind, valid, _bad) in _ENTRIES[entry][1].items()
    })


def test_a_schedule_and_a_label_space_from_numpy_scalars_save_the_same_bytes(tmp_path):
    for name, value in [("python", 3), ("numpy", np.int64(3))]:
        save_schedule(lr_schedule(np.float64(0.1) if name == "numpy" else 0.1, value, 20, value), tmp_path / name)
        save_label_space(_space(value), tmp_path / f"{name}.json")
    assert (tmp_path / "numpy").read_bytes() == (tmp_path / "python").read_bytes()
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()


def test_a_cached_resize_plan_does_not_let_an_equal_bool_or_float_through():
    frame = np.ones((6, 8))
    assert bilinear_resize(frame, 1, 4).shape == (1, 4)
    for out_h in [True, 1.0]:
        with pytest.raises(ValidationError, match=r"^out_h must be an integer >= 1, got "):
            bilinear_resize(frame, out_h, 4)


def test_net_stride_keeps_its_json_type_and_takes_the_count_rule():
    for stride, message in [(1.5, "must be int, got 1.5"), (True, "must be int, got True"),
                            (0, "must be an integer >= 1, got 0"), (-1, "must be an integer >= 1, got -1")]:
        with pytest.raises(ValidationError) as info:
            NetSpec([Conv2dLayer(np.ones((1, 1, 3, 3)), stride=stride)])
        assert str(info.value) == f"layer 0: stride {message}"


def test_the_rules_word_their_messages_by_the_interval():
    cases = [
        (lambda: check_count(0, "n"), "n must be an integer >= 1, got 0"),
        (lambda: check_count(-1, "n", 0), "n must be an integer >= 0, got -1"),
        (lambda: check_real(0, "x", 0.0, open_ends=True), "x must be finite and > 0, got 0"),
        (lambda: check_real(-1.0, "x", 0.0), "x must be finite and >= 0, got -1.0"),
        (lambda: check_real(math.nan, "x", -1.0, 1.0), "x must be finite and in [-1, 1], got nan"),
        (lambda: check_real(1.0, "x", 0.0, 1.0, open_ends=True), "x must be finite and in (0, 1), got 1.0"),
        (lambda: check_count(-_HUGE, "n"), "n must be an integer >= 1, got a negative int of 5001 digits"),
        (lambda: check_real(_HUGE, "x", 0.0), "x must be finite and >= 0, got an int of 5001 digits"),
        (lambda: check_real(10**4300 - 1, "x", 0.0), f"x must be finite and >= 0, got {10**4300 - 1}"),
        (lambda: check_real(-(10**4300), "x", 0.0), "x must be finite and >= 0, got a negative int of 4301 digits"),
    ]
    for call, message in cases:
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message
    assert type(check_count(np.int64(3), "n")) is int and type(check_real(np.float32(0.5), "x", 0.0)) is float


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 2**70) | st.integers(1, 2**63 - 1).map(np.int64) | st.floats() | st.booleans())
def test_label_space_min_count_saves_and_loads_or_is_rejected(tmp_path_factory, min_count):
    try:
        space = _space(min_count)
    except ValidationError as exc:
        assert str(exc) == f"min_count must be an integer >= 1, got {min_count!r}"
        return
    path = tmp_path_factory.mktemp("space") / "space.json"
    save_label_space(space, path)
    loaded = load_label_space(path)
    assert loaded == space and type(loaded.min_count) is int and loaded.min_count == min_count
