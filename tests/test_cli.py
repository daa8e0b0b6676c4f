from __future__ import annotations

import gc
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corpusforge
from corpusforge import cli, netops
from corpusforge.census import save_raw_frames
from corpusforge.cli import main
from corpusforge.manifest import load_manifest
from corpusforge.netops import (
    Conv2dLayer,
    Conv3dLayer,
    DenseLayer,
    GlobalAvgPoolLayer,
    NetSpec,
    ReluLayer,
    MAX_ELEMENTS,
    load_net,
    save_net,
)
from corpusforge.probe import ProbeMode, save_features
from corpusforge.records import ValidationError, load_label_space, save_corpus, save_label_space
from corpusforge.synth import ramp_video, tile_video
from corpusforge.tensor import load_weights, save_weights

from conftest import corpus_with_counts, zipf_corpus


@pytest.fixture
def pipeline_files(tmp_path):
    corpus, _space = corpus_with_counts({"ropejumping": 60, "guitarplaying": 55}, duration_s=4.0)
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, corpus_path)
    seeds_path = tmp_path / "seeds.txt"
    seeds_path.write_text("jumping/v rope/n\nplaying/v guitar/n\n")
    return tmp_path, corpus_path, seeds_path


def test_labelspace_sample_select_validate_stats(pipeline_files, capsys):
    tmp_path, corpus_path, seeds_path = pipeline_files
    space_path = tmp_path / "space.json"
    rc = main(
        [
            "labelspace", "build",
            "--seeds", str(seeds_path),
            "--kind", "seed",
            "--corpus", str(corpus_path),
            "--min-count", "50",
            "-o", str(space_path),
        ]
    )
    assert rc == 0
    space = load_label_space(space_path)
    assert set(space.entries) == {"jumping rope", "playing guitar"}

    manifest_path = tmp_path / "sample.jsonl"
    rc = main(
        [
            "sample",
            "--strategy", "sqrt",
            "--budget", "40",
            "--seed", "7",
            "--corpus", str(corpus_path),
            "--labelspace", str(space_path),
            "-o", str(manifest_path),
        ]
    )
    assert rc == 0
    assert len(load_manifest(manifest_path).rows) == 40

    select_path = tmp_path / "select.jsonl"
    rc = main(
        [
            "select",
            "--class", "short",
            "--mode", "f2",
            "--minutes", "1.0",
            "--seed", "3",
            "--corpus", str(corpus_path),
            "--labelspace", str(space_path),
            "-o", str(select_path),
        ]
    )
    assert rc == 0
    assert len(load_manifest(select_path).rows) == 15  # 60s budget of 4s videos

    assert main(["manifest", "validate", str(select_path), "--corpus", str(corpus_path)]) == 0
    capsys.readouterr()
    assert main(["corpus", "stats", str(corpus_path), "--labelspace", str(space_path)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["videos"] == 115
    assert stats["counts"] == {"jumping rope": 60, "playing guitar": 55}


def test_cli_sample_whole_videos_whose_durations_round_up(tmp_path, capsys):
    # uniform float durations: about half of the whole-video clips round up
    corpus, space, _truth = zipf_corpus(200, 5, 1.0, 0)
    corpus_path, space_path = tmp_path / "corpus.jsonl", tmp_path / "space.json"
    save_corpus(corpus, corpus_path)
    save_label_space(space, space_path)
    out = tmp_path / "sample.jsonl"
    rc = main(
        ["sample", "--strategy", "random", "--budget", "50",
         "--corpus", str(corpus_path), "--labelspace", str(space_path), "-o", str(out)]
    )
    assert rc == 0, capsys.readouterr().err
    durations = {v.id: v.duration_s for v in corpus}
    rows = load_manifest(out).rows
    assert any(r.clip_start_s + r.clip_len_s > durations[r.video_id] for r in rows)
    assert main(["manifest", "validate", str(out), "--corpus", str(corpus_path)]) == 0


def test_cli_manifest_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"format":"corpusforge-manifest-v1","seed":0,"provenance":{}}\n{"video_id":"v"}\n')
    assert main(["manifest", "validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_dedup(tmp_path, capsys):
    src_dir = tmp_path / "sources"
    tgt_dir = tmp_path / "targets"
    src_dir.mkdir()
    tgt_dir.mkdir()
    members = list(range(12))
    save_raw_frames(ramp_video("orig", members), tgt_dir / "orig.cfvd")
    save_raw_frames(ramp_video("dup", members[3:9]), src_dir / "dup.cfvd")
    save_raw_frames(tile_video("noise", list(range(50, 58))), src_dir / "noise.cfvd")
    out_dir = tmp_path / "report"
    rc = main(
        [
            "dedup",
            "--sources", str(src_dir),
            "--targets", str(tgt_dir),
            "--tau", "0.9",
            "--threshold", "20",
            "--seed", "1",
            "-o", str(out_dir),
        ]
    )
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["flagged_sources"] == ["dup"]
    kept = (out_dir / "kept_sources.txt").read_text().split()
    assert kept == ["noise"]


def test_cli_inflate_tensor_and_net(tmp_path):
    rng = np.random.default_rng(0)
    w2d = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
    in_path = tmp_path / "w2d.wtsr"
    out_path = tmp_path / "w3d.wtsr"
    save_weights(w2d, in_path)
    assert main(["inflate", "--in", str(in_path), "--k", "3", "-o", str(out_path)]) == 0
    inflated = load_weights(out_path)
    assert inflated.ndim == 5
    assert inflated.shape == (2, 1, 3, 3, 3)
    assert np.allclose(inflated.sum(axis=2), w2d, atol=1e-6)

    net = NetSpec(
        [
            Conv2dLayer(rng.standard_normal((3, 1, 3, 3)), rng.standard_normal(3), 1, True),
            ReluLayer(),
            GlobalAvgPoolLayer(),
            DenseLayer(rng.standard_normal((2, 3)), rng.standard_normal(2)),
        ]
    )
    net_path = tmp_path / "net2d.json"
    save_net(net, net_path)
    net3d_path = tmp_path / "net3d.json"
    assert main(["inflate", "--in", str(net_path), "--k", "3", "-o", str(net3d_path)]) == 0
    net3d = load_net(net3d_path)
    assert isinstance(net3d.layers[0], Conv3dLayer)

    assert main(["verify-inflation", "--net", str(net_path), "--k", "3", "--tol", "1e-5"]) == 0

    fcn_path = tmp_path / "fcn.json"
    assert main(["fcn", "--in", str(net3d_path), "-o", str(fcn_path)]) == 0
    fcn_net = load_net(fcn_path)
    x = rng.standard_normal((1, 5, 10, 10))
    assert np.max(np.abs(fcn_net.forward(x) - net3d.forward(x))) <= 1e-5


def test_cli_schedule(tmp_path, capsys):
    out = tmp_path / "sched.json"
    rc = main(
        ["schedule", "--base", "0.192", "--reductions", "13", "--total", "150",
         "--warmup", "10", "-o", str(out)]
    )
    assert rc == 0
    sched = json.loads(out.read_text())
    assert sched["values"][-1] == 2.34375e-5
    assert len(sched["values"]) == 150


def test_cli_probe_train_eval(tmp_path, capsys):
    rng = np.random.default_rng(1)
    x = np.vstack(
        [rng.normal(-2, 0.3, size=(20, 2)), rng.normal(2, 0.3, size=(20, 2))]
    ).astype(np.float32)
    y = np.array([0] * 20 + [1] * 20)
    feat = tmp_path / "train.cfft"
    save_features(x, y, ProbeMode.SOFTMAX_MULTICLASS, feat)
    model = tmp_path / "probe.npz"
    rc = main(
        ["probe", "train", "--features", str(feat), "--mode", "softmax",
         "--l2", "1e-6", "--iters", "2000", "--step", "0.5", "-o", str(model)]
    )
    assert rc == 0
    rc = main(
        ["probe", "eval", "--features", str(feat), "--mode", "softmax", "--model", str(model)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "top-1 accuracy: 1.0000" in out


def test_cli_eval_clips(capsys):
    assert main(["eval", "clips", "--frames", "100", "--clip-len", "8"]) == 0
    out = capsys.readouterr().out.strip()
    assert json.loads(out) == [0, 10, 20, 31, 41, 51, 61, 72, 82, 92]


@pytest.mark.parametrize("missing", ["--corpus", "--labelspace"])
def test_cli_missing_input_file_is_one_line_error(pipeline_files, capsys, missing):
    tmp_path, corpus_path, _seeds_path = pipeline_files
    space_path = tmp_path / "space.json"
    space_path.write_text('{"entries":{"a":["a"]},"kind":"seed","min_count":1,"name":"s"}\n')
    paths = {"--corpus": str(corpus_path), "--labelspace": str(space_path)}
    paths[missing] = str(tmp_path / "absent.json")
    rc = main(
        ["sample", "--strategy", "random", "--budget", "1",
         "--corpus", paths["--corpus"], "--labelspace", paths["--labelspace"],
         "-o", str(tmp_path / "out.jsonl")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "absent.json" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("width, height, fps", [(8, 8, math.nan), (0, 8, 16.0)])
def test_cli_dedup_undecodable_video_is_one_line_error(tmp_path, capsys, width, height, fps):
    src_dir, tgt_dir = tmp_path / "sources", tmp_path / "targets"
    src_dir.mkdir()
    tgt_dir.mkdir()
    save_raw_frames(ramp_video("orig", list(range(4))), tgt_dir / "orig.cfvd")
    bad = src_dir / "bad.cfvd"
    bad.write_bytes(struct.pack("<4sIIIf", b"CFVD", width, height, 2, fps) + bytes(2 * width * height))
    rc = main(["dedup", "--sources", str(src_dir), "--targets", str(tgt_dir), "-o", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert len(err.splitlines()) == 1


def test_cli_dedup_video_over_the_frame_limit_is_one_line_error(tmp_path, capsys):
    src_dir, tgt_dir = tmp_path / "sources", tmp_path / "targets"
    src_dir.mkdir()
    tgt_dir.mkdir()
    save_raw_frames(ramp_video("orig", list(range(4))), tgt_dir / "orig.cfvd")
    (src_dir / "slow.cfvd").write_bytes(struct.pack("<4sIIIf", b"CFVD", 8, 8, 4, 1e-30) + bytes(4 * 64))
    rc = main(["dedup", "--sources", str(src_dir), "--targets", str(tgt_dir), "-o", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: video 'slow': ") and "limit" in err
    assert len(err.splitlines()) == 1


_MANIFEST_HEADER = b'{"format":"corpusforge-manifest-v1","seed":0,"provenance":{}}\n'
_NET_HEAD = '{"format":"corpusforge-net-v1","layers":'


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("sample", b'\xff\xfe{"id":"v","duration_s":1.0}\n', ":1: not valid UTF-8"),
        ("validate", b"[1]\n", ":1: expected a JSON object"),
        ("validate", b'{"format":"corpusforge-manifest-v1","seed":"x","provenance":{}}\n', ":1: seed must be"),
        ("validate", b"", ":1: empty file"),
        ("space", b'{"entries":{"a":["a"]},"kind":"seed","min_count":1,"name":"s","nmae":"t"}',
         ": unknown fields ['nmae']"),
        ("inflate", (_NET_HEAD + '[{"kind":"conv2d","weights":"w.wtsr","strde":2}]}').encode(),
         ": layer 0: unknown fields ['strde']"),
        ("sample", b'{"id":"v","hashtags":["a"]}\n', ":1: missing fields ['duration_s']"),
        ("validate", _MANIFEST_HEADER + b'{"video_id":"v","clip_start_s":0.0,"clip_len_s":1.0}\n',
         ":2: missing fields ['label']"),
        ("inflate-wtsr", struct.pack("<4sHBB2Q", b"WTSR", 1, 0, 2, 2, 2) + bytes(16),
         ": expected (out,in,h,w) weights, got (2, 2)"),
        ("inflate-k0", (_NET_HEAD + '[{"kind":"relu"}]}').encode(), "temporal extent k must be an integer >= 1, got 0"),
    ],
)
def test_cli_malformed_input_is_one_line_error(pipeline_files, capsys, command, content, message):
    tmp_path, corpus_path, _seeds_path = pipeline_files
    bad = tmp_path / ("bad.wtsr" if command == "inflate-wtsr" else "bad.jsonl")
    bad.write_bytes(content)
    space_path = tmp_path / "space.json"
    space_path.write_text('{"entries":{"a":["a"]},"kind":"seed","min_count":1,"name":"s"}\n')
    save_weights(np.ones((2, 1, 3, 3)), tmp_path / "w.wtsr")
    sample = ["sample", "--strategy", "random", "--budget", "1", "-o", str(tmp_path / "out.jsonl")]
    inflate = ["inflate", "--in", str(bad), "-o", str(tmp_path / "out.json"), "--k"]
    argv = {
        "sample": sample + ["--corpus", str(bad), "--labelspace", str(space_path)],
        "space": sample + ["--corpus", str(corpus_path), "--labelspace", str(bad)],
        "validate": ["manifest", "validate", str(bad)],
        "inflate": inflate + ["3"],
        "inflate-wtsr": inflate + ["3"],
        "inflate-k0": inflate + ["0"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    named = "" if command == "inflate-k0" else bad  # k is no file's fault
    assert err.startswith(f"error: {named}{message}")
    assert len(err.splitlines()) == 1


_SPACE = {"entries": {"a": ["a"]}, "kind": "seed", "min_count": 1, "name": "s"}
_NET_ARGV = ["verify-inflation", "--net", "{bad}", "--k", "3"]
_DEEP = "[" * 100_000  # nested deeper than the JSON decoder recurses


@pytest.mark.parametrize(
    "argv, name, content, message",
    [
        (["sample", "--labelspace", "{bad}"], "space.json", json.dumps({**_SPACE, "entries": [1]}), "entries"),
        (["sample", "--labelspace", "{bad}"], "space.json", json.dumps({**_SPACE, "entries": {"a": [1]}}), "strings"),
        (["sample", "--labelspace", "{bad}"], "space.json", json.dumps({**_SPACE, "kind": "bogus"}), "LabelKind"),
        (["sample", "--labelspace", "{bad}"], "space.json", b"\xff\xfe{}", ":1: not valid UTF-8"),
        (["labelspace", "build", "--seeds", "{bad}"], "seeds.txt", b"jump/v\n\xff\xfe\n", ":2: not valid UTF-8"),
        (["dedup", "--sources", "{bad}"], "list.txt", b"\xff\xfe", ":1: not valid UTF-8"),
        (_NET_ARGV, "net.json", '{"format":"corpusforge-net-v1","layers":[{}]}', "layer 0: unknown layer kind None"),
        (_NET_ARGV, "net.json", '{"format":"corpusforge-net-v1","layers":[1]}', "layer 0: expected a JSON object"),
        (_NET_ARGV, "net.json", "[]", "expected a corpusforge-net-v1 JSON object"),
        (_NET_ARGV, "net.json", '{"format":"corpusforge-net-v1","layers":[{"kind":"relu"}]}', "2D conv"),
        (["probe", "train", "--features", "{bad}"], "f.cfft", struct.pack("<4sII", b"CFFT", 0, 3), "no samples"),
        (["probe", "eval", "--model", "{bad}"], "probe.npz", b"garbage", "not a probe model"),
        (_NET_ARGV, "net.json", '{"format":"corpusforge-net-v1","layers":[],"comment":1}', ": unknown fields ['comment']"),
        (["manifest", "validate", "{bad}"], "m.jsonl",
         '{"format":"corpusforge-manifest-v1"}\n' + 2 * '{"video_id":"a","label":"x","clip_start_s":0,"clip_len_s":1}\n',
         ":3: duplicate row (video 'a', start 0.0)"),
        pytest.param(["sample", "--labelspace", "{bad}"], "space.json", _DEEP, "bad JSON", id="deep-space"),
        pytest.param(["manifest", "validate", "{bad}"], "m.jsonl", _DEEP, ":1: bad JSON", id="deep-manifest"),
        pytest.param(["sample", "--corpus", "{bad}"], "c.jsonl", _DEEP, ":1: bad JSON", id="deep-corpus"),
    ],
)
def test_cli_bad_input_is_one_line_error(pipeline_files, capsys, argv, name, content, message):
    tmp_path, corpus_path, seeds_path = pipeline_files
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(_SPACE))
    feat = tmp_path / "train.cfft"
    save_features(np.eye(2, dtype=np.float32), np.array([0, 1]), ProbeMode.SOFTMAX_MULTICLASS, feat)
    defaults = {
        "sample": ["--strategy", "random", "--budget", "1", "--corpus", str(corpus_path),
                   "--labelspace", str(space_path), "-o", str(tmp_path / "out.jsonl")],
        "labelspace": ["--kind", "seed", "--corpus", str(corpus_path), "-o", str(tmp_path / "s.json")],
        "dedup": ["--targets", str(tmp_path), "-o", str(tmp_path / "report")],
        "verify-inflation": [],
        "manifest": [],
        "probe": ["--mode", "softmax", "--features", str(feat), "-o", str(tmp_path / "p.npz")]
        if argv[1] == "train" else ["--mode", "softmax", "--features", str(feat)],
    }
    bad = tmp_path / "bad" / name
    bad.parent.mkdir()
    bad.write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
    full = [a.replace("{bad}", str(bad)) for a in argv]
    for flag, value in zip(defaults[argv[0]][::2], defaults[argv[0]][1::2]):
        if flag not in full:
            full += [flag, value]
    assert main(full) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and message in err
    assert len(err.splitlines()) == 1


def test_cli_probe_writes_exactly_the_output_name(tmp_path, capsys):
    feat = tmp_path / "train.cfft"
    save_features(np.eye(2, dtype=np.float32), np.array([0, 1]), ProbeMode.SOFTMAX_MULTICLASS, feat)
    model = tmp_path / "probe.model"
    assert main(["probe", "train", "--features", str(feat), "--mode", "softmax", "-o", str(model)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["probe.model", "train.cfft"]
    assert main(["probe", "eval", "--features", str(feat), "--mode", "softmax", "--model", str(model)]) == 0
    assert "top-1 accuracy: 1.0000" in capsys.readouterr().out
    wide = tmp_path / "wide.cfft"
    save_features(np.eye(3, dtype=np.float32), np.array([0, 1, 2]), ProbeMode.SOFTMAX_MULTICLASS, wide)
    for features, mode in [(wide, "softmax"), (feat, "sigmoid")]:
        rc = main(["probe", "eval", "--features", str(features), "--mode", mode, "--model", str(model)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: does not fit") and len(err.splitlines()) == 1
    np.savez(tmp_path / "noweights.npz", bias=np.zeros(2), mode="softmax", l2_lambda=0.0)
    rc = main(["probe", "eval", "--features", str(feat), "--mode", "softmax",
               "--model", str(tmp_path / "noweights.npz")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'noweights.npz'}: ") and "weights" in err
    assert len(err.splitlines()) == 1


def test_cli_probe_eval_rejects_a_class_id_the_model_has_no_output_for(tmp_path, capsys):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 3)).astype(np.float32)
    train, val, model = tmp_path / "train.cfft", tmp_path / "val.cfft", tmp_path / "p.npz"
    save_features(x, np.arange(40) % 4, ProbeMode.SOFTMAX_MULTICLASS, train)
    save_features(x, np.where(np.arange(40) % 2 == 0, 9, np.arange(40) % 4), ProbeMode.SOFTMAX_MULTICLASS, val)
    assert main(["probe", "train", "--features", str(train), "--mode", "softmax", "--iters", "5",
                 "-o", str(model)]) == 0
    capsys.readouterr()
    assert main(["probe", "eval", "--features", str(val), "--mode", "softmax", "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {val}: class id 9 is outside 0..3"]


@pytest.fixture
def one_line_error_inputs(pipeline_files, monkeypatch):
    """Argument lists with one non-finite number each, in an argument or in a
    file named relative to the working directory, keyed by case."""
    tmp_path, corpus_path, _seeds_path = pipeline_files
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.cfft").write_bytes(struct.pack("<4sII", b"CFFT", 2, 1) + np.array([0.5, np.nan], "<f4").tobytes()
                                        + np.array([0, 1], "<u4").tobytes())
    save_features(np.eye(2, dtype=np.float32), np.array([0, 1]), ProbeMode.SOFTMAX_MULTICLASS, tmp_path / "two.cfft")
    np.savez(tmp_path / "nan.npz", weights=np.array([[1.0, 0.0], [0.0, np.nan]]), bias=np.zeros(2),
             mode="softmax", l2_lambda=0.0)
    np.savez(tmp_path / "inf.npz", weights=np.eye(2), bias=np.zeros(2), mode="softmax", l2_lambda=np.inf)
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(_SPACE))
    feat = tmp_path / "train.cfft"
    save_features(np.eye(3, dtype=np.float32), np.array([0, 1, 2]), ProbeMode.SOFTMAX_MULTICLASS, feat)
    videos = tmp_path / "videos"
    videos.mkdir()
    save_raw_frames(ramp_video("orig", list(range(4))), videos / "orig.cfvd")
    dedup = ["dedup", "--sources", str(videos), "--targets", str(videos), "-o", str(tmp_path / "report")]
    return {
        "probe": ["probe", "train", "--features", str(feat), "--mode", "softmax", "--step", "1e308",
                  "-o", str(tmp_path / "p.npz")],
        "probe-train-features": ["probe", "train", "--features", "nan.cfft", "--mode", "softmax", "-o", "p.npz"],
        "probe-eval-features": ["probe", "eval", "--features", "nan.cfft", "--mode", "softmax", "--model", "nan.npz"],
        "probe-eval-weights": ["probe", "eval", "--features", "two.cfft", "--mode", "softmax", "--model", "nan.npz"],
        "probe-eval-l2": ["probe", "eval", "--features", "two.cfft", "--mode", "softmax", "--model", "inf.npz"],
        "tau": dedup + ["--tau", "nan"],
        "threshold": dedup + ["--threshold", "nan"],
        "select": ["select", "--class", "short", "--mode", "f2", "--minutes", "nan",
                   "--corpus", str(corpus_path), "--labelspace", str(space_path),
                   "-o", str(tmp_path / "select.jsonl")],
    }


_ONE_LINE_ERRORS = {
    "probe": "error: non-finite loss at iteration 1",
    "probe-train-features": "error: nan.cfft: features contain non-finite values",
    "probe-eval-features": "error: nan.cfft: features contain non-finite values",
    "probe-eval-weights": "error: nan.npz: weights contain non-finite values",
    "probe-eval-l2": "error: inf.npz: l2_lambda must be finite and >= 0, got inf",
    "tau": "error: tau must be finite and in [-1, 1], got nan",
    "threshold": "error: threshold_pct must be finite and in [0, 100], got nan",
    "select": "error: total_minutes must be finite and > 0, got nan",
}


@pytest.mark.parametrize("case", sorted(_ONE_LINE_ERRORS))
def test_cli_non_finite_numbers_are_one_line_errors(one_line_error_inputs, capsys, case):
    assert main(one_line_error_inputs[case]) == 2
    assert capsys.readouterr().err.splitlines() == [_ONE_LINE_ERRORS[case]]


@pytest.mark.parametrize("case", ["probe", "probe-eval-features", "tau", "select"])
def test_module_entry_point_prints_exactly_one_error_line(one_line_error_inputs, case):
    # a fresh interpreter, as the benchmark runs it: pytest does not capture
    # numpy's RuntimeWarnings there, so any warning shows as an extra line
    src = str(Path(corpusforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "corpusforge.cli", *one_line_error_inputs[case]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [_ONE_LINE_ERRORS[case]]


_OUT_OF_RANGE = {
    "schedule": (["schedule", "--base", "nan", "--total", "100", "-o", "{out}"],
                 "error: base_lr must be finite and > 0, got nan"),
    "tol": (["verify-inflation", "--net", "{net}", "--k", "3", "--tol", "nan"],
            "error: tol must be finite and >= 0, got nan"),
    "step": (["probe", "train", "--features", "{feat}", "--mode", "softmax", "--step", "-1", "--iters", "3",
              "-o", "{out}"], "error: step must be finite and > 0, got -1.0"),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_module_entry_point_rejects_out_of_range_numbers_in_one_line(tmp_path, case):
    net, feat, out = tmp_path / "net2d.json", tmp_path / "train.cfft", tmp_path / "out"
    save_net(NetSpec([Conv2dLayer(np.ones((1, 1, 3, 3)), np.zeros(1), 1, True)]), net)
    save_features(np.eye(3, dtype=np.float32), np.array([0, 1, 2]), ProbeMode.SOFTMAX_MULTICLASS, feat)
    argv, message = _OUT_OF_RANGE[case]
    argv = [a.format(net=net, feat=feat, out=out) for a in argv]
    src = str(Path(corpusforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "corpusforge.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr.splitlines()) == (2, [message])
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--size", "-1", "error: size must be an integer >= 1, got -1"),
    ("--size", "0", "error: size must be an integer >= 1, got 0"),
    ("--seed", "-1", "error: seed must be an integer in [0, 2**64), got -1"),
])
def test_verify_inflation_rejects_a_bad_size_or_seed_in_one_line(tmp_path, flag, value, message):
    net = tmp_path / "net2d.json"
    save_net(NetSpec([Conv2dLayer(np.ones((1, 1, 3, 3)), np.zeros(1), 1, True)]), net)
    src = str(Path(corpusforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "corpusforge.cli", "verify-inflation", "--net", str(net),
                           "--k", "3", flag, value], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr.splitlines(), proc.stdout) == (2, [message], "")


_SEED_RULE = "error: seed must be an integer in [0, 2**64), got "


@pytest.mark.parametrize("case, extra, message", [
    ("dedup", ["--seed", "-1"], _SEED_RULE + "-1"),
    ("dedup", ["--seed", str(2**64)], _SEED_RULE + str(2**64)),
    ("dedup", ["--tau", "-5"], "error: tau must be finite and in [-1, 1], got -5.0"),
    ("dedup", ["--tau", "1.5"], "error: tau must be finite and in [-1, 1], got 1.5"),
    ("dedup", ["--threshold", "500"], "error: threshold_pct must be finite and in [0, 100], got 500.0"),
    ("dedup", ["--threshold", "-1"], "error: threshold_pct must be finite and in [0, 100], got -1.0"),
    ("sample", ["--seed", "-1"], _SEED_RULE + "-1"),
    ("select", ["--mode", "f1"], "error: count must be an integer >= 1, got None"),
    ("select", ["--mode", "f2"], "error: total_minutes must be finite and > 0, got None"),
    ("select", ["--mode", "f1", "--count", "5", "--minutes", "3"], "error: fixed-count plan takes no total_minutes"),
    ("select", ["--mode", "f2", "--minutes", "3", "--count", "5"], "error: fixed-duration plan takes no count"),
], ids=["dedup-seed-neg", "dedup-seed-2**64", "tau-neg", "tau-above-1", "threshold-above-100",
        "threshold-neg", "sample-seed-neg", "select-f1-no-count", "select-f2-no-minutes",
        "select-f1-with-minutes", "select-f2-with-count"])
def test_cli_out_of_range_seed_tau_threshold_or_budget_is_one_line_error(
    pipeline_files, capsys, monkeypatch, case, extra, message
):
    tmp_path, corpus_path, _seeds_path = pipeline_files
    space_path, out = tmp_path / "space.json", tmp_path / "out"
    space_path.write_text(json.dumps(_SPACE))
    videos = tmp_path / "videos"
    videos.mkdir()
    save_raw_frames(ramp_video("orig", list(range(4))), videos / "orig.cfvd")
    corpus_args = ["--corpus", str(corpus_path), "--labelspace", str(space_path), "-o", str(out)]
    argv = {
        "dedup": ["dedup", "--sources", str(videos), "--targets", str(videos), "-o", str(out)],
        "sample": ["sample", "--strategy", "sqrt", "--budget", "5", *corpus_args],
        "select": ["select", "--class", "short", *corpus_args],
    }[case]

    def no_sampling(*args):
        raise AssertionError("sampling ran")

    def no_reading(*args):
        raise AssertionError("a video was read")

    monkeypatch.setattr("corpusforge.cli.sample", no_sampling)  # a bad seed fails before any draw
    monkeypatch.setattr("corpusforge.cli.load_raw_frames", no_reading)  # and before any video is read
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert (captured.err.splitlines(), captured.out) == ([message], "")
    assert not out.exists()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_the_command_with_gc_off_and_restores_the_callers_gc(monkeypatch, capsys, enabled):
    seen = []

    def handler(args):
        seen.append(gc.isenabled())
        if args.frames == 0:
            raise ValidationError("stop")
        return 0

    monkeypatch.setattr(cli, "_cmd_eval_clips", handler)
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["eval", "clips", "--frames", "10", "--clip-len", "2"]) == 0
        assert gc.isenabled() is enabled
        assert main(["eval", "clips", "--frames", "0", "--clip-len", "2"]) == 2
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False, False]
    assert capsys.readouterr().err == "error: stop\n"


@pytest.mark.parametrize("before", [None, "4"])
def test_main_runs_the_command_on_one_blas_thread_and_restores_the_callers_setting(monkeypatch, before):
    seen = []

    def handler(args):
        seen.append({name: os.environ.get(name) for name in cli._THREAD_VARIABLES})
        return 0

    monkeypatch.setattr(cli, "_cmd_eval_clips", handler)
    for name in cli._THREAD_VARIABLES:
        if before is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, before)
    assert main(["eval", "clips", "--frames", "10", "--clip-len", "2"]) == 0
    assert seen == [dict.fromkeys(cli._THREAD_VARIABLES, "1")]
    assert [os.environ.get(name) for name in cli._THREAD_VARIABLES] == [before] * 3


def _boom(*args, **kwargs):
    raise AssertionError("allocated before the size check")


def _repeat_only_weights(a, repeats, axis):
    # the weights repeat along their new axis 2; the input's time slices along axis 1
    assert axis == 2, "time slices allocated before the size check"
    return np.concatenate([a] * repeats, axis=axis)


# (argv, MAX_ELEMENTS for the case, the allocator that must not run and its stand-in, error);
# the 2-conv net has 756 inflated weights at k=3, its 8x8 input 192 elements
# and 960 over the 5 time slices that one output position reads
_OVER_THE_SIZE_LIMIT = {
    "inflate-net": (["inflate", "--in", "{net}", "--k", "100000", "-o", "{out}"], MAX_ELEMENTS,
                    (np, "repeat", _boom), f"inflated weights: 25200000 elements, over the {MAX_ELEMENTS} limit"),
    "inflate-weights": (["inflate", "--in", "{wtsr}", "--k", "1000000", "-o", "{out}"], MAX_ELEMENTS,
                        (np, "repeat", _boom), f"inflated weights: 108000000 elements, over the {MAX_ELEMENTS} limit"),
    "verify-size": (["verify-inflation", "--net", "{net}", "--k", "3", "--size", "100000"], MAX_ELEMENTS,
                    (cli, "make_rng", _boom), f"input: 30000000000 elements, over the {MAX_ELEMENTS} limit"),
    "verify-k": (["verify-inflation", "--net", "{net}", "--k", "100000", "--size", "8"], MAX_ELEMENTS,
                 (np, "repeat", _boom), f"inflated weights: 25200000 elements, over the {MAX_ELEMENTS} limit"),
    "verify-slices": (["verify-inflation", "--net", "{net}", "--k", "3", "--size", "8"], 800,
                      (np, "repeat", _repeat_only_weights), "time slices of the input: 960 elements, over the 800 limit"),
    "verify-windows": (["verify-inflation", "--net", "{net}", "--k", "3", "--size", "8"], 1000,
                       (np, "einsum", _boom), "conv3d input windows: 15552 elements, over the 1000 limit"),
}


@pytest.mark.parametrize("case", sorted(_OVER_THE_SIZE_LIMIT))
def test_cli_inflation_over_the_size_limit_is_one_line_error_before_allocating(tmp_path, monkeypatch, capsys, case):
    argv, limit, (owner, allocator, stand_in), message = _OVER_THE_SIZE_LIMIT[case]
    rng = np.random.default_rng(2)
    net, wtsr, out = tmp_path / "net2d.json", tmp_path / "w2d.wtsr", tmp_path / "out" / "inflated.json"
    save_net(NetSpec([Conv2dLayer(rng.standard_normal((4, 3, 3, 3)), np.zeros(4), 1, True), ReluLayer(),
                      Conv2dLayer(rng.standard_normal((4, 4, 3, 3)), np.zeros(4), 1, True)]), net)
    save_weights(rng.standard_normal((4, 3, 3, 3)), wtsr)
    out.parent.mkdir()
    monkeypatch.setattr(netops, "MAX_ELEMENTS", limit)
    monkeypatch.setattr(owner, allocator, stand_in)
    assert main([a.format(net=net, wtsr=wtsr, out=out) for a in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert list(out.parent.iterdir()) == []


@pytest.mark.parametrize(
    "argv, what",
    [
        (["schedule", "--total", "1001", "--warmup", "10", "-o", "{out}"], "schedule values"),
        (["eval", "clips", "--frames", "100", "--clip-len", "8", "--clips", "1001"], "clip starts"),
    ],
)
def test_cli_schedule_and_clips_over_the_size_limit_are_one_line_errors(tmp_path, monkeypatch, capsys, argv, what):
    out = tmp_path / "sched.json"
    monkeypatch.setattr(netops, "MAX_ELEMENTS", 1000)
    assert main([a.format(out=out) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {what}: 1001 elements, over the 1000 limit"]
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    # the limit itself is allowed
    assert main([a.format(out=out).replace("1001", "1000") for a in argv]) == 0


def test_cli_output_that_is_a_directory_is_one_line_error_before_writing(pipeline_files, capsys):
    tmp_path, corpus_path, _seeds = pipeline_files
    space_path = tmp_path / "space.json"
    save_label_space(corpus_with_counts({"ropejumping": 60, "guitarplaying": 55}, duration_s=4.0)[1], space_path)
    out = tmp_path / "out"
    out.mkdir()
    before = sorted(tmp_path.iterdir())
    argv = ["schedule", "--total", "100", "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {out}: is a directory"]
    argv = ["sample", "--strategy", "random", "--budget", "1", "--corpus", str(corpus_path),
            "--labelspace", str(space_path), "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {out}: is a directory"]
    assert sorted(tmp_path.iterdir()) == before and list(out.iterdir()) == []
