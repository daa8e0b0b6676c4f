from __future__ import annotations

import json
import math
import struct

import numpy as np
import pytest

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
    load_net,
    save_net,
)
from corpusforge.probe import ProbeMode, save_features
from corpusforge.records import load_label_space, save_corpus
from corpusforge.synth import ramp_video, tile_video
from corpusforge.tensor import Layout, WeightTensor, load_weights, save_weights

from conftest import corpus_with_counts


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
    save_weights(WeightTensor(w2d, Layout.CONV2D), in_path)
    assert main(["inflate", "--in", str(in_path), "--k", "3", "-o", str(out_path)]) == 0
    inflated = load_weights(out_path)
    assert inflated.layout is Layout.CONV3D
    assert inflated.data.shape == (2, 1, 3, 3, 3)
    assert np.allclose(inflated.data.sum(axis=2), w2d, atol=1e-6)

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


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("sample", b'\xff\xfe{"id":"v","duration_s":1.0}\n', ":1: not valid UTF-8"),
        ("validate", b"[1]\n", ":1: header must be a JSON object"),
        ("validate", b'{"format":"corpusforge-manifest-v1","seed":"x","provenance":{}}\n', ":1: seed must be"),
        ("validate", b"", ":1: empty file"),
    ],
)
def test_cli_malformed_input_is_one_line_error(pipeline_files, capsys, command, content, message):
    tmp_path, _corpus_path, _seeds_path = pipeline_files
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(content)
    space_path = tmp_path / "space.json"
    space_path.write_text('{"entries":{"a":["a"]},"kind":"seed","min_count":1,"name":"s"}\n')
    if command == "sample":
        argv = ["sample", "--strategy", "random", "--budget", "1", "--corpus", str(bad),
                "--labelspace", str(space_path), "-o", str(tmp_path / "out.jsonl")]
    else:
        argv = ["manifest", "validate", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}{message}")
    assert len(err.splitlines()) == 1
