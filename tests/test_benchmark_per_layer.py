"""A traced run of the benchmark's command tour yields every declared per-layer metric.

``perfbench/run.py --trace 1`` looks up each ``per_layer`` name of
``BENCHMARK.json`` in the figures that ``perfbench/tracer.py`` and
``run.per_layer`` produce.  A counter whose hooked function is deleted,
renamed or no longer called never fires, and the traced benchmark run then
exits 1 on that lookup.  This test runs the same tour on tiny inputs, each
command under ``tracer.py`` in its own process, and makes the same lookup.
It also checks that the census and dedup counters still count one decode,
insert, query or verification per frame, as their names say.  It reads
``perfbench/`` and writes nothing there.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
_MODULES = ("inputs", "oracle", "tour", "run", "tracer")  # perfbench imports these by bare name


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in _MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield tuple(importlib.import_module(name) for name in ("inputs", "oracle", "tour", "run"))
    for name in _MODULES:
        sys.modules.pop(name, None)


def test_a_traced_tour_yields_every_declared_per_layer_metric(perfbench, tmp_path):
    inputs, oracle, tour, run = perfbench
    corpus_spec = inputs.CorpusSpec(videos=400, labels=10, min_count=10, budget=60, f1_count=30, f2_minutes=2.0)
    workload = tour.Workload("tiny", corpus_spec, tour.SMALL_DEDUP, tour.SMALL_EVAL)
    inp, out, trace_dir = tmp_path / "inputs", tmp_path / "outputs", tmp_path / "trace"
    inp.mkdir()
    trace_dir.mkdir()
    corpus = inputs.write_corpus(workload.corpus, np.random.default_rng([1, 0]), inp)
    videos = inputs.write_videos(workload.dedup, np.random.default_rng([1, 1]), inp)
    inputs.write_net(workload.evaluation, np.random.default_rng([1, 2]), inp / "net2d.json")
    inputs.write_features(workload.evaluation, np.random.default_rng([1, 3]), inp)
    truth = tour.Truth(corpus, videos, oracle.DedupOracle(inp / "sources", inp / "targets"))
    commands = tour.build_tour(workload, inp, out, truth, {})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(run.SRC), os.environ.get("PYTHONPATH")])))

    traced = run.run_pass(commands, env, out, trace_dir)

    assert [f"{r.key}: {r.message}" for r in traced if r.status == "failed"] == []
    layers = run.per_layer(sorted(trace_dir.glob("*.npz")), [traced], 0.0, 0.0, 0.0)
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]
    assert [name for name in declared if name not in layers] == []
    # the dedup counters still count what their names say: one decode per
    # frame, one insert per target frame, one query and one verification per
    # source frame
    spec = workload.dedup
    target_frames = (spec.ramp_targets + spec.tile_targets) * spec.target_frames
    source_frames = (spec.planted + spec.distractors) * spec.source_frames
    assert target_frames + source_frames == videos.frames
    counted = ["census.frames_decoded", "census.frames_resized", "dedup.index_entries", "dedup.queries",
               "dedup.verify_calls"]
    assert {name: layers[name] for name in counted} == {
        "census.frames_decoded": videos.frames,
        "census.frames_resized": videos.resized,
        "dedup.index_entries": target_frames,
        "dedup.queries": source_frames,
        "dedup.verify_calls": source_frames,
    }
