"""Golden file digests: the bytes and the mode of every file format written.

``test_golden.py`` pins what the samplers, planners and dedup compute; this
file pins how each writer puts it on disk: corpus, label space, manifest,
schedule, net descriptor and its WTSR tensors, a bare WTSR tensor, CFVD raw
frames, CFFT features in both label modes, and the three files of a dedup
report.  Change a digest only when a change means to alter a file format, and
say so in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

from corpusforge.census import FrameVideo, save_raw_frames
from corpusforge.cli import main
from corpusforge.inflate import inflate_net
from corpusforge.manifest import DatasetManifest, ManifestRow, save_manifest
from corpusforge.netops import (
    Conv2dLayer,
    DenseLayer,
    GlobalAvgPoolLayer,
    NetSpec,
    ReluLayer,
    SoftmaxLayer,
    save_net,
)
from corpusforge.probe import ProbeMode, save_features
from corpusforge.records import LabelKind, LabelSpace, VideoRecord, save_corpus, save_label_space
from corpusforge.schedule import lr_schedule, save_schedule
from corpusforge.synth import ramp_video, tile_video
from corpusforge.tensor import save_weights

GOLDEN = {
    "corpus.jsonl": "1a3a3877c6d319d744d4b4bba763e4a3b07368433dd531e75af54767eb6bc36b",
    "space.json": "830bfbcca8fbe6510a9805368c3db6f6991f145ad002206e689b695a2dcc3c3e",
    "manifest.jsonl": "dc3c8cd4816f1a29c3ad959a62f284c7ad29ed8e7b4c1dfba3dea03867442881",
    "sched.json": "6ddba6cbc82e592583830010787b19c98dbf52e246951b4209d7e3125e473add",
    "net2d.json": "9e88cd274bc0d47ea091909d137d9ae28bef26b1a54a002016a5909f21389ac1",
    "net2d_l0_w.wtsr": "af52e7468d5f4943d5548409922cef9fdcace4d5e7db6dd426951f62f093cf5f",
    "net2d_l0_b.wtsr": "4a192d18c26829dd94c4ba46ebce8baac2553bbbab8b058e68d2fbb4f54ce52d",
    "net2d_l3_w.wtsr": "936fd09dfa3facf9c0c00da4e823c973149ae9ea3bcc18e6a8abc91f3870c942",
    "net2d_l3_b.wtsr": "30929b6db700f637de01a945b21187ab6aae71856054cd78d9aa66ba6ea11b4f",
    "net3d.json": "530ac254f76cdebb613f79c244b3a5a09319c9d59a46f4f66abfcd94df39e3bb",
    "net3d_l0_w.wtsr": "ca8f7a315e30dfcad164051f81ac3d8ae872ebca8f2ae3754b657f00fe347744",
    "net3d_l0_b.wtsr": "4a192d18c26829dd94c4ba46ebce8baac2553bbbab8b058e68d2fbb4f54ce52d",
    "net3d_l3_w.wtsr": "936fd09dfa3facf9c0c00da4e823c973149ae9ea3bcc18e6a8abc91f3870c942",
    "net3d_l3_b.wtsr": "30929b6db700f637de01a945b21187ab6aae71856054cd78d9aa66ba6ea11b4f",
    "nobias.json": "abf568400f2cd984b759c183ee4ae84bac215f23a31e7b11e8b2d542c2a066a0",
    "nobias_l0_w.wtsr": "8448fe484ced2f363268654c2030447f1a29cfccfbd4c6321a830070e1bfc102",
    "bare.wtsr": "a58fe41eaa94a997e5f4b82a5df20eb958a6101a39b7f67f9135bb01ea378b2e",
    "rgb.cfvd": "3675ee5d1b6c314e9e81c61451c6c90fa8fb591b910b2cdc4fa5b76dd186f05c",
    "softmax.cfft": "6d86b3743eb6df45f27db9fc94dcf4b6c53d4439950afcf6416a5cc6712f9aa6",
    "sigmoid.cfft": "3b017eea12f1a03d3739169b294d2243f86997bbbf51c55f030a047f800f8919",
    "targets/orig.cfvd": "64650391bdadd672c436b393f0f77b664001e8450a2cc50768c6da856db5d0ce",
    "sources/dup.cfvd": "35061c69f8d6d4171463b1123156af3800f6dd6de4578e01666be9f537af3b90",
    "sources/noise.cfvd": "3465cb7ab49618833a06da9e481a5f60585c6ae6950395880480c09d786fa7a3",
    "report/overlap_pairs.jsonl": "a4a8027be2fd4071d2ad8de431345a295dcb56ce1818e710057465b69f7cd531",
    "report/summary.json": "857d9979cf3ce7b98fc144cad1190d1fb793057933a8f84c5fee6401cca69620",
    "report/kept_sources.txt": "567b37fe7e3b26e1af3c8cb5dc30c8799296941a091d1123b2c8fd4d389b9087",
}


def write_every_format(out):
    rng = np.random.default_rng(5)
    corpus = [
        VideoRecord("vidé-1", 12.5, frozenset({"ropejumping", "Jumping"}), 30.0, "s3://a/b"),
        VideoRecord("v2", 3.0, frozenset({"guitar"})),
    ]
    save_corpus(corpus, out / "corpus.jsonl")
    space = LabelSpace(
        "golden",
        LabelKind.VERB_NOUN,
        {"jump rope": frozenset({"ropejumping", "jumpingrope"}), "play guitar": frozenset({"guitar"})},
        min_count=2,
    )
    save_label_space(space, out / "space.json")
    manifest = DatasetManifest(
        rows=[
            ManifestRow("vidé-1", "jump rope", 1.25, 8.0),
            ManifestRow("v2", "play   guitar", 0.0, 2.5000004),
        ],
        provenance={"sample_random": "budget=2 labelspace=golden", "note": "ü"},
        seed=2**64 - 1,
    )
    save_manifest(manifest, out / "manifest.jsonl", corpus=corpus)
    save_schedule(lr_schedule(0.192, 10, 150, 13), out / "sched.json")
    net2d = NetSpec(
        [
            Conv2dLayer(rng.standard_normal((3, 1, 3, 3)), rng.standard_normal(3), 2, False),
            ReluLayer(),
            GlobalAvgPoolLayer(),
            DenseLayer(rng.standard_normal((2, 3)), rng.standard_normal(2)),
            SoftmaxLayer(),
        ]
    )
    save_net(net2d, out / "net2d.json")
    save_net(inflate_net(net2d, 3), out / "net3d.json")
    save_net(NetSpec([Conv2dLayer(rng.standard_normal((2, 2, 1, 3)))]), out / "nobias.json")
    save_weights(rng.standard_normal((2, 4)), out / "bare.wtsr")
    rgb = rng.integers(0, 256, size=(3, 6, 5, 3)).astype(np.float64)
    save_raw_frames(FrameVideo("rgb", 24.0, rgb), out / "rgb.cfvd")
    x = rng.standard_normal((6, 4))
    save_features(x, np.arange(6) % 3, ProbeMode.SOFTMAX_MULTICLASS, out / "softmax.cfft")
    multi = rng.integers(0, 2, size=(6, 3))
    save_features(x, multi, ProbeMode.SIGMOID_MULTILABEL, out / "sigmoid.cfft")
    for sub in ("sources", "targets"):
        (out / sub).mkdir()
    save_raw_frames(ramp_video("orig", list(range(12))), out / "targets" / "orig.cfvd")
    save_raw_frames(ramp_video("dup", list(range(3, 9))), out / "sources" / "dup.cfvd")
    save_raw_frames(tile_video("noise", list(range(50, 54))), out / "sources" / "noise.cfvd")
    rc = main(
        ["dedup", "--sources", str(out / "sources"), "--targets", str(out / "targets"),
         "--seed", "1", "-o", str(out / "report")]
    )
    assert rc == 0


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def test_every_writer_is_byte_stable(tmp_path, capsys):
    write_every_format(tmp_path)
    written = sorted(
        p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()
    )
    assert written == sorted(GOLDEN)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in written
    }
    assert digests == GOLDEN
    mode = 0o666 & ~_umask()
    for name in written:
        assert (tmp_path / name).stat().st_mode & 0o777 == mode, name
