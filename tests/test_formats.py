"""Every file format round-trips exactly or fails naming its file.

Round trips: for any label space, net, WTSR tensor, CFFT feature file and
probe model, save -> load gives the same value and saving that again gives
the same bytes.  Malformed input (arbitrary bytes, and for the JSON formats
arbitrary JSON in every field) either loads or raises a ``ValidationError``
that starts with the path of the file.
"""
from __future__ import annotations

import json
import os
import struct
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from corpusforge.census import load_raw_frames
from corpusforge.netops import (
    Conv2dLayer,
    Conv3dLayer,
    DenseLayer,
    GlobalAvgPoolLayer,
    NetSpec,
    ReluLayer,
    SoftmaxLayer,
    load_net,
    save_net,
)
from corpusforge.probe import (
    ProbeMode,
    ProbeModel,
    load_features,
    load_probe,
    save_features,
    save_probe,
)
from corpusforge.records import (
    LabelKind,
    LabelSpace,
    ValidationError,
    load_label_space,
    read_lines,
    save_label_space,
    write_file,
)
from corpusforge.tensor import load_weights, save_weights

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _loads_or_names(path, load):
    """The loaded value, or None after checking the error names the file."""
    try:
        return load(path)
    except ValidationError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)
        return None


def _files(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# ---------------------------------------------------------------------------
# The file layer itself.


def test_read_lines_breaks_only_at_newlines(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes("a b\u0085c\r\nd\re\nf".encode("utf-8"))
    assert list(read_lines(path)) == [(1, "a b\u0085c\n"), (2, "d\n"), (3, "e\n"), (4, "f")]


def test_write_file_failed_replace_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_bytes(b"old")

    def fail(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="no space"):
        write_file(target, b"new")
    assert target.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_write_file_replaces_a_symlink_not_its_target(tmp_path):
    real = tmp_path / "real.json"
    real.write_bytes(b"keep")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    write_file(link, b"new")
    assert real.read_bytes() == b"keep"
    assert not link.is_symlink() and link.read_bytes() == b"new"


@pytest.mark.parametrize(
    "load, header, message",
    [
        (load_raw_frames, struct.pack("<4sIIIf", b"CFVD", 2**32 - 1, 2**32 - 1, 2**32 - 1, 16.0), "truncated"),
        (load_raw_frames, struct.pack("<4sIIIf", b"CFVD", 2**32 - 1, 2**32 - 1, 0, 16.0), "too big"),
        (load_weights, struct.pack("<4sHBB2Q", b"WTSR", 1, 0, 2, 2**63, 2**63), "truncated"),
        (load_weights, struct.pack("<4sHBB2Q", b"WTSR", 1, 0, 2, 0, 2**63), "dimension"),
    ],
)
def test_header_claiming_huge_dims_fails_naming_the_file(tmp_path, load, header, message):
    # each would otherwise try to allocate, or shape, more than memory holds
    path = tmp_path / "huge.bin"
    path.write_bytes(header)
    with pytest.raises(ValidationError, match=message) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# Label spaces.

_tags = st.text(alphabet="abcz09_é", min_size=1, max_size=6)
_spaces = st.builds(
    LabelSpace,
    name=st.text(max_size=8),
    kind=st.sampled_from(LabelKind),
    entries=st.dictionaries(st.text(max_size=8), st.frozensets(_tags, min_size=1, max_size=4), max_size=4),
    min_count=st.integers(1, 10**6),
)


@settings(max_examples=100, deadline=None)
@given(_spaces)
def test_label_space_round_trips_with_stable_bytes(tmp_path_factory, space):
    path = tmp_path_factory.mktemp("space") / "space.json"
    save_label_space(space, path)
    loaded = load_label_space(path)
    assert loaded == space
    again = path.with_name("again.json")
    save_label_space(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_label_space_tags_follow_the_video_hashtag_rule():
    space = LabelSpace("s", LabelKind.SEED, {"a": ["RopeJumping"]})
    assert space.entries == {"a": frozenset({"ropejumping"})}
    for tags, message in [("abc", "list of strings"), ([1], "must be strings"), (["a b"], "bad hashtag")]:
        with pytest.raises(ValidationError, match=message):
            LabelSpace("s", LabelKind.SEED, {"a": tags})


_space_fields = {
    "name": st.text(max_size=4) | _json,
    "kind": st.sampled_from([k.value for k in LabelKind]) | _json,
    "min_count": st.integers(-2, 100) | _json,
    "entries": st.dictionaries(st.text(max_size=4), st.lists(_tags) | _json, max_size=3) | _json,
}
_space_docs = (
    st.fixed_dictionaries(_space_fields) | st.fixed_dictionaries({}, optional=_space_fields) | _json
).map(json.dumps)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=60) | _space_docs.map(lambda t: t.encode("utf-8")))
def test_label_space_bytes_load_and_round_trip_or_name_the_file(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("space") / "space.json"
    path.write_bytes(data)
    space = _loads_or_names(path, load_label_space)
    if space is not None:
        assert isinstance(space.name, str) and type(space.min_count) is int
        save_label_space(space, path.with_name("again.json"))
        assert load_label_space(path.with_name("again.json")) == space


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"name": [1]}, "name must be a string"),
        ({"name": 7}, "name must be a string"),
        ({"name": None}, "name must be a string"),
        ({"min_count": 1.9}, "min_count must be an integer"),
        ({"min_count": 50.0}, "min_count must be an integer"),
        ({"min_count": True}, "min_count must be an integer"),
        ({"min_count": "50"}, "min_count must be an integer"),
    ],
)
def test_label_space_field_of_the_wrong_type_names_the_file(tmp_path, fields, message):
    doc = {"entries": {"a": ["a"]}, "kind": "seed", "min_count": 1, "name": "s"} | fields
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=message) as info:
        load_label_space(path)
    assert str(info.value).startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# Nets and WTSR tensors.


@st.composite
def _nets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def params(*shape):
        return rng.standard_normal(shape).astype(np.float32).astype(np.float64)

    three_d = draw(st.booleans())
    channels = draw(st.integers(1, 3))
    layers = []
    for _ in range(draw(st.integers(0, 2))):
        out = draw(st.integers(1, 3))
        kernel = draw(st.lists(st.integers(1, 3), min_size=2 + three_d, max_size=2 + three_d))
        bias = params(out) if draw(st.booleans()) else None
        flags = dict(stride=draw(st.integers(1, 3)), same_pad=draw(st.booleans()))
        if three_d:
            layers.append(Conv3dLayer(params(out, channels, *kernel), bias, time_same_pad=draw(st.booleans()), **flags))
        else:
            layers.append(Conv2dLayer(params(out, channels, *kernel), bias, **flags))
        channels = out
        if draw(st.booleans()):
            layers.append(ReluLayer())
    if draw(st.booleans()):
        classes = draw(st.integers(1, 3))
        bias = params(classes) if draw(st.booleans()) else None
        layers += [GlobalAvgPoolLayer(), DenseLayer(params(classes, channels), bias)]
        if draw(st.booleans()):
            layers.append(SoftmaxLayer())
    return NetSpec(layers)


def _same_layers(a: NetSpec, b: NetSpec) -> bool:
    def flat(net):
        return [(type(l), [np.asarray(getattr(l, f.name)).tolist() for f in fields(l)]) for l in net.layers]

    return flat(a) == flat(b)


@settings(max_examples=60, deadline=None)
@given(_nets())
def test_net_round_trips_with_stable_bytes(tmp_path_factory, net):
    first, second = tmp_path_factory.mktemp("a"), tmp_path_factory.mktemp("b")
    save_net(net, first / "net.json")
    loaded = load_net(first / "net.json")
    assert _same_layers(loaded, net)
    save_net(loaded, second / "net.json")
    assert _files(second) == _files(first)


_layer_entries = st.fixed_dictionaries(
    {"kind": st.sampled_from(["conv2d", "conv3d", "dense", "relu", "global_avg_pool", "softmax"])},
    optional={
        "weights": st.sampled_from(["w2.wtsr", "w3.wtsr", "dense.wtsr", "b.wtsr", "bad.wtsr", "net.json"]) | _json,
        "bias": st.sampled_from(["b.wtsr", "w2.wtsr", "bad.wtsr"]) | _json,
        "stride": st.integers(-1, 3) | _json,
        "same_pad": _json,
        "time_same_pad": _json,
    },
) | st.fixed_dictionaries({}, optional={"kind": _json}) | _json
_net_docs = (
    st.fixed_dictionaries({"format": st.just("corpusforge-net-v1"), "layers": st.lists(_layer_entries, max_size=4)})
    | _json
).map(json.dumps)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=60) | _net_docs.map(lambda t: t.encode("utf-8")))
@example(b'{"format": "corpusforge-net-v1", "layers": [{"kind": "conv2d", "weights": "0"}]}')
@example(b'{"format": "corpusforge-net-v1", "layers": [{"kind": "conv2d", "weights": ""}]}')
def test_net_descriptor_loads_or_names_the_file(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("net")
    rng = np.random.default_rng(0)
    save_weights(rng.standard_normal((2, 2, 3, 3)), folder / "w2.wtsr")
    save_weights(rng.standard_normal((2, 2, 1, 3, 3)), folder / "w3.wtsr")
    save_weights(rng.standard_normal((2, 2)), folder / "dense.wtsr")
    save_weights(rng.standard_normal(2), folder / "b.wtsr")
    (folder / "bad.wtsr").write_bytes(b"WTSR\x01\x00\x00\x02")
    path = folder / "net.json"
    path.write_bytes(data)
    _loads_or_names(path, load_net)


_finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_shapes = hnp.array_shapes(min_dims=1, max_dims=5, min_side=1, max_side=3)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float32, _shapes, elements=_finite32))
def test_wtsr_round_trips_bit_exactly_with_stable_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("wtsr") / "t.wtsr"
    save_weights(data, path)
    loaded = load_weights(path)
    assert loaded.shape == data.shape
    assert loaded.dtype == np.float32 and loaded.tobytes() == data.tobytes()
    save_weights(loaded, path.with_name("again.wtsr"))
    assert path.with_name("again.wtsr").read_bytes() == path.read_bytes()


_wtsr_headers = st.builds(
    lambda ndim, dims, payload: struct.pack(f"<4sHBB{ndim}Q", b"WTSR", 1, 0, ndim, *dims[:ndim]) + payload,
    st.integers(0, 6),
    st.lists(st.integers(0, 4) | st.integers(0, 2**64 - 1), min_size=6, max_size=6),
    st.binary(max_size=64),
)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=60) | _wtsr_headers)
def test_wtsr_bytes_load_or_name_the_file(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("wtsr") / "t.wtsr"
    path.write_bytes(data)
    _loads_or_names(path, load_weights)


# ---------------------------------------------------------------------------
# CFFT features, probe models and CFVD raw frames.


@st.composite
def _feature_files(draw):
    n, d = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    features = draw(hnp.arrays(np.float32, (n, d), elements=_finite32))
    if draw(st.booleans()):
        return ProbeMode.SOFTMAX_MULTICLASS, features, draw(hnp.arrays(np.uint32, n))
    labels = draw(hnp.arrays(np.uint8, (n, draw(st.integers(0, 3))), elements=st.integers(0, 1)))
    return ProbeMode.SIGMOID_MULTILABEL, features, labels


@settings(max_examples=100, deadline=None)
@given(_feature_files())
def test_cfft_round_trips_with_stable_bytes(tmp_path_factory, case):
    mode, features, labels = case
    path = tmp_path_factory.mktemp("cfft") / "f.cfft"
    save_features(features, labels, mode, path)
    x, y = load_features(path, mode)
    assert x.astype(np.float32).tobytes() == features.tobytes()
    assert np.array_equal(y, labels)
    save_features(x, y, mode, path.with_name("again.cfft"))
    assert path.with_name("again.cfft").read_bytes() == path.read_bytes()


_cfft_headers = st.builds(
    lambda n, d, payload: struct.pack("<4sII", b"CFFT", n, d) + payload,
    st.integers(0, 4) | st.integers(0, 2**32 - 1),
    st.integers(0, 4) | st.integers(0, 2**32 - 1),
    st.binary(max_size=80),
)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=60) | _cfft_headers, st.sampled_from(ProbeMode))
def test_cfft_bytes_load_or_name_the_file(tmp_path_factory, data, mode):
    path = tmp_path_factory.mktemp("cfft") / "f.cfft"
    path.write_bytes(data)
    _loads_or_names(path, lambda p: load_features(p, mode))


_cfvd_headers = st.builds(
    lambda w, h, n, fps, payload: struct.pack("<4sIIIf", b"CFVD", w, h, n, fps) + payload,
    st.integers(0, 3) | st.integers(0, 2**32 - 1),
    st.integers(0, 3) | st.integers(0, 2**32 - 1),
    st.integers(0, 3) | st.integers(0, 2**32 - 1),
    st.floats(width=32),
    st.binary(max_size=40),
)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=60) | _cfvd_headers)
def test_cfvd_bytes_load_or_name_the_file(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("cfvd") / "v.cfvd"
    path.write_bytes(data)
    _loads_or_names(path, load_raw_frames)


def test_probe_model_round_trips_to_exactly_its_path(tmp_path):
    rng = np.random.default_rng(3)
    model = ProbeModel(rng.standard_normal((3, 4)), rng.standard_normal(3), ProbeMode.SIGMOID_MULTILABEL, 1e-4, 0.5)
    path = tmp_path / "probe.model"
    save_probe(model, path)
    assert [p.name for p in tmp_path.iterdir()] == ["probe.model"]
    loaded = load_probe(path)
    assert np.array_equal(loaded.weights, model.weights) and np.array_equal(loaded.bias, model.bias)
    assert (loaded.mode, loaded.l2_lambda) == (model.mode, model.l2_lambda)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=60) | st.sampled_from([b"PK\x03\x04", b"\x93NUMPY"]).map(lambda m: m + bytes(30)))
def test_probe_model_bytes_load_or_name_the_file(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("probe") / "probe.npz"
    path.write_bytes(data)
    _loads_or_names(path, load_probe)


@pytest.mark.parametrize("mode", list(ProbeMode))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cfft_with_a_non_finite_feature_names_the_file(tmp_path, mode, value):
    labels = np.array([0, 1], "<u4") if mode is ProbeMode.SOFTMAX_MULTICLASS else np.array([1, 0], np.uint8)
    path = tmp_path / "f.cfft"
    path.write_bytes(struct.pack("<4sII", b"CFFT", 2, 1) + np.array([0.5, value], "<f4").tobytes() + labels.tobytes())
    with pytest.raises(ValidationError) as info:
        load_features(path, mode)
    assert str(info.value) == f"{path}: features contain non-finite values"


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39, -1e300])
def test_save_features_writes_no_value_that_is_not_finite_in_float32(tmp_path, value):
    # 1e39 is finite in float64 and inf in float32: an error, not a warning and an inf
    path = tmp_path / "f.cfft"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as info:
            save_features(np.array([[0.5], [value]]), np.array([0, 1]), ProbeMode.SOFTMAX_MULTICLASS, path)
    assert str(info.value) == f"{path}: float32 features contain non-finite values"
    assert not path.exists()


@pytest.mark.parametrize("stored, message", [
    ({"weights": np.array([[0.0, np.nan]])}, "weights contain non-finite values"),
    ({"weights": np.array([[0.0, -np.inf]])}, "weights contain non-finite values"),
    ({"bias": np.array([np.inf])}, "bias terms contain non-finite values"),
    ({"l2_lambda": np.inf}, "l2_lambda must be finite and >= 0, got inf"),
    ({"l2_lambda": np.nan}, "l2_lambda must be finite and >= 0, got nan"),
    ({"l2_lambda": -1.0}, "l2_lambda must be finite and >= 0, got -1.0"),
    ({"l2_lambda": 2.0**1023}, "l2_lambda must be < 2**1023, got 8.98846567431158e+307"),
])
def test_probe_model_with_a_parameter_training_cannot_give_names_the_file(tmp_path, stored, message):
    path = tmp_path / "probe.npz"
    blob = {"weights": np.zeros((1, 2)), "bias": np.zeros(1), "mode": "softmax", "l2_lambda": 1e-4} | stored
    np.savez(path, **blob)
    with pytest.raises(ValidationError) as info:
        load_probe(path)
    assert str(info.value) == f"{path}: {message}"


def test_probe_model_without_weights_names_the_file(tmp_path):
    path = tmp_path / "probe.npz"
    np.savez(path, bias=np.zeros(2), mode="softmax", l2_lambda=0.0)
    with pytest.raises(ValidationError, match="weights") as info:
        load_probe(path)
    assert str(info.value).startswith(f"{path}: ")
