"""Workloads and the command tour each of them runs, with its output checks.

Every workload runs the README's whole command tour, one ``corpusforge``
process per command.  Workloads differ in which inputs are large: one stage
gets its full-size input, the others run on small fixed inputs, so every
end-to-end metric exists on every workload while each workload loads a
different layer.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import CorpusSpec, CorpusTruth, DedupSpec, DedupTruth, EvalSpec
from oracle import DedupOracle

SAMPLE_SEED = "7"
DEDUP_SEED = "1"
TAU = 0.9
THRESHOLD_PCT = 20.0
VERIFY_KS = (3, 5)
SCHEDULE = {"base": 0.192, "reductions": 13, "total": 1000, "warmup": 10}
CLIP_FRAMES, CLIP_LEN = 100, 8
TOP1_FLOOR = 0.5
MAP_FLOOR = 0.5
# error text of the raw-corpus select defect: plan_budget raises on any
# unmatched video in the length class
SELECT_DEFECT = "matches no label"


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    dedup: DedupSpec
    evaluation: EvalSpec


SMALL_CORPUS = CorpusSpec(videos=4000, labels=60, min_count=20, budget=800, f1_count=400, f2_minutes=40.0)
SMALL_DEDUP = DedupSpec(ramp_targets=2, tile_targets=2, target_frames=160, planted=1, distractors=1, source_frames=160, window=80)
SMALL_EVAL = EvalSpec(channels=(3, 8, 8, 8), verify_size=12, probe_n=400, probe_dim=16, probe_classes=5)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "curate-40k",
            CorpusSpec(videos=40_000, labels=400, min_count=50, budget=10_000, f1_count=5_000, f2_minutes=500.0),
            SMALL_DEDUP,
            SMALL_EVAL,
        ),
        Workload(
            "dedup-balanced",
            SMALL_CORPUS,
            DedupSpec(ramp_targets=5, tile_targets=5, target_frames=160, planted=5, distractors=5, source_frames=160, window=80),
            SMALL_EVAL,
        ),
        # one workload for two full-size stages: the run budget holds three
        # workloads, and dedup_s and evaluation_s stay separate metrics
        Workload(
            "bigindex-evalproto",
            SMALL_CORPUS,
            DedupSpec(ramp_targets=20, tile_targets=20, target_frames=160, planted=1, distractors=1, source_frames=80, window=40),
            EvalSpec(channels=(3, 32, 64, 64), verify_size=24, probe_n=1500, probe_dim=96, probe_classes=32),
        ),
    )
}


class CheckFailed(Exception):
    pass


@dataclass
class Outcome:
    returncode: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Command:
    key: str
    argv: list[str]
    # raises CheckFailed on a wrong output; may return measured quality figures
    check: Callable[[Outcome], dict[str, float]]
    known_defect: str | None = None  # error text of a documented defect this command may hit


@dataclass(frozen=True)
class Truth:
    corpus: CorpusTruth
    dedup: DedupTruth
    oracle: DedupOracle


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest_rows(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(bool(lines), f"{path.name}: empty manifest")
    return [json.loads(line) for line in lines[1:]]


def build_tour(w: Workload, inp: Path, out: Path, truth: Truth, pins: dict[str, str]) -> list[Command]:
    """The command list of one pass; ``pins`` maps output file names to sha256 digests."""
    c = w.corpus
    corpus, matched, space = inp / "corpus.jsonl", inp / "matched.jsonl", out / "space.json"

    def pinned(path: Path) -> None:
        want = pins.get(path.name)
        _require(want is None or sha256(path) == want, f"{path.name}: sha256 differs from the pinned digest")

    def ok(result: Outcome) -> None:
        _require(result.returncode == 0, f"exit {result.returncode}: {result.stderr.strip()[-300:]}")

    def check_space(result: Outcome) -> dict:
        ok(result)
        entries = json.loads(space.read_text(encoding="utf-8"))["entries"]
        _require(sorted(entries) == truth.corpus.kept, "labels kept differ from the generator's counts")
        return {}

    def check_stats(result: Outcome) -> dict:
        ok(result)
        stats = json.loads(result.stdout)
        _require(stats["videos"] == truth.corpus.videos, "video count differs")
        want = {label: truth.corpus.counts[label] for label in truth.corpus.kept}
        _require(stats["counts"] == want, "per-label counts differ from the generator's")
        return {}

    def check_rows(path: Path, rows: int) -> Callable[[Outcome], dict]:
        def check(result: Outcome) -> dict:
            ok(result)
            got = _manifest_rows(path)
            _require(len(got) == rows, f"{path.name}: {len(got)} rows, expected {rows}")
            _require(len({r["video_id"] for r in got}) == rows, f"{path.name}: repeated video")
            _require({r["label"] for r in got} <= set(truth.corpus.kept), f"{path.name}: unknown label")
            pinned(path)
            return {}

        return check

    def check_f2(path: Path) -> Callable[[Outcome], dict]:
        def check(result: Outcome) -> dict:
            ok(result)
            got = _manifest_rows(path)
            used = sum(r["clip_len_s"] for r in got)
            _require(bool(got), f"{path.name}: no rows")
            _require(used <= c.f2_minutes * 60.0 + 1e-6, f"{path.name}: {used} s exceeds {c.f2_minutes} min")
            _require(all(r["clip_len_s"] == 4.0 for r in got), f"{path.name}: clip is not the 4 s center")
            pinned(path)
            return {}

        return check

    def check_validate(path: Path) -> Callable[[Outcome], dict]:
        def check(result: Outcome) -> dict:
            ok(result)
            rows = len(_manifest_rows(path))
            _require(result.stdout.startswith(f"OK: {rows} rows"), f"validate {path.name}: {result.stdout!r}")
            return {}

        return check

    def check_dedup(result: Outcome) -> dict:
        ok(result)
        report = out / "report"
        got = {}
        for line in (report / "overlap_pairs.jsonl").read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            got[(row["source_id"], row["target_id"])] = row["overlap_pct"]
        exact = truth.oracle.pairs(TAU)
        # LSH may only miss matches; allow for rounding at the tau boundary
        loose = truth.oracle.pairs(TAU - 1e-9)
        invented = [k for k in got if k not in loose or got[k] > loose[k] + 1e-6]
        _require(not invented, f"report pairs not in the exact oracle: {invented[:3]}")
        flagged = set(json.loads((report / "summary.json").read_text(encoding="utf-8"))["flagged_sources"])
        missed = sorted(set(truth.dedup.planted) - flagged)
        _require(not missed, f"planted duplicates not flagged: {missed}")
        pinned(report / "overlap_pairs.jsonl")
        return {"dedup_pair_recall": len(set(got) & set(exact)) / len(exact)}

    def check_net(path: Path, kinds: list[str]) -> Callable[[Outcome], dict]:
        def check(result: Outcome) -> dict:
            ok(result)
            layers = json.loads(path.read_text(encoding="utf-8"))["layers"]
            _require([l["kind"] for l in layers] == kinds, f"{path.name}: layers {layers}")
            return {}

        return check

    def check_prefix(prefix: str) -> Callable[[Outcome], dict]:
        def check(result: Outcome) -> dict:
            ok(result)
            _require(result.stdout.startswith(prefix), f"expected {prefix!r}, got {result.stdout.strip()!r}")
            return {}

        return check

    def check_train(result: Outcome) -> dict:
        ok(result)
        loss = float(result.stdout.rsplit(" ", 1)[-1])
        _require(math.isfinite(loss), f"final loss {loss}")
        return {}

    def check_score(prefix: str, floor: float, name: str) -> Callable[[Outcome], dict]:
        def check(result: Outcome) -> dict:
            ok(result)
            _require(result.stdout.startswith(prefix), f"unexpected output {result.stdout!r}")
            score = float(result.stdout[len(prefix) :].split()[0])
            _require(score >= floor, f"{prefix} {score} below floor {floor}")
            return {name: score}

        return check

    def check_schedule(result: Outcome) -> dict:
        ok(result)
        values = json.loads((out / "sched.json").read_text(encoding="utf-8"))["values"]
        s = SCHEDULE
        _require(len(values) == s["total"], "schedule length")
        _require(values[-1] == s["base"] * 0.5 ** s["reductions"], "final rate")
        _require(values[0] == s["base"] / s["warmup"], "first warmup rate")
        return {}

    def check_clips(result: Outcome) -> dict:
        ok(result)
        span = CLIP_FRAMES - CLIP_LEN
        want = [math.floor(i * span / 9 + 0.5) for i in range(10)]
        _require(json.loads(result.stdout) == want, f"clip starts {result.stdout.strip()}")
        return {}

    def select(cls: str, mode: str, source: Path, name: str) -> list[str]:
        budget = ["--minutes", f"{c.f2_minutes:g}"] if mode == "f2" else ["--count", str(c.f1_count)]
        return ["select", "--class", cls, "--mode", mode, *budget, "--seed", SAMPLE_SEED,
                "--corpus", str(source), "--labelspace", str(space), "-o", str(out / name)]

    def sample(strategy: str) -> Command:
        path = out / f"{strategy}.jsonl"
        argv = ["sample", "--strategy", strategy, "--budget", str(c.budget), "--seed", SAMPLE_SEED,
                "--corpus", str(corpus), "--labelspace", str(space), "-o", str(path)]
        return Command(f"sample_{strategy}", argv, check_rows(path, c.budget))

    net2d, net3d, netfcn = inp / "net2d.json", out / "net3d.json", out / "netfcn.json"
    conv_kinds = ["relu" if i % 2 else "conv" for i in range(6)]
    kinds_3d = [k.replace("conv", "conv3d") for k in conv_kinds]
    commands = [
        Command("labelspace_build", ["labelspace", "build", "--seeds", str(inp / "seeds.txt"), "--kind", "seed",
                "--corpus", str(corpus), "--min-count", str(c.min_count), "-o", str(space)], check_space),
        Command("corpus_stats", ["corpus", "stats", str(corpus), "--labelspace", str(space)], check_stats),
        sample("random"),
        sample("sqrt"),
        sample("tail"),
        # the raw corpus holds unmatched videos in both classes: the documented
        # defect; matched.jsonl drops them so the planners can be timed
        Command("select_f2_raw", select("long-center", "f2", corpus, "f2_raw.jsonl"),
                check_f2(out / "f2_raw.jsonl"), known_defect=SELECT_DEFECT),
        Command("select_f1_raw", select("short", "f1", corpus, "f1_raw.jsonl"),
                check_rows(out / "f1_raw.jsonl", c.f1_count), known_defect=SELECT_DEFECT),
        Command("select_f2", select("long-center", "f2", matched, "f2.jsonl"), check_f2(out / "f2.jsonl")),
        Command("select_f1", select("short", "f1", matched, "f1.jsonl"), check_rows(out / "f1.jsonl", c.f1_count)),
        Command("dedup", ["dedup", "--sources", str(inp / "sources"), "--targets", str(inp / "targets"),
                "--tau", str(TAU), "--threshold", f"{THRESHOLD_PCT:g}", "--seed", DEDUP_SEED,
                "-o", str(out / "report")], check_dedup),
    ]
    for name, source in [("random", corpus), ("sqrt", corpus), ("tail", corpus), ("f2", matched), ("f1", matched)]:
        path = out / f"{name}.jsonl"
        commands.append(Command(f"validate_{name}", ["manifest", "validate", str(path), "--corpus", str(source)],
                                check_validate(path)))
    commands += [
        Command("inflate", ["inflate", "--in", str(net2d), "--k", "3", "-o", str(net3d)],
                check_net(net3d, kinds_3d + ["global_avg_pool", "dense"])),
        *[Command(f"verify_k{k}", ["verify-inflation", "--net", str(net2d), "--k", str(k),
                  "--size", str(w.evaluation.verify_size)], check_prefix("OK:")) for k in VERIFY_KS],
        Command("fcn", ["fcn", "--in", str(net3d), "-o", str(netfcn)],
                check_net(netfcn, kinds_3d + ["conv3d", "global_avg_pool"])),
        Command("schedule", ["schedule", "--base", str(SCHEDULE["base"]), "--reductions", str(SCHEDULE["reductions"]),
                "--total", str(SCHEDULE["total"]), "--warmup", str(SCHEDULE["warmup"]), "-o", str(out / "sched.json")],
                check_schedule),
    ]
    for mode, prefix, floor, name in [("softmax", "top-1 accuracy:", TOP1_FLOOR, "probe_top1"),
                                      ("sigmoid", "mAP:", MAP_FLOOR, "probe_map")]:
        model = out / f"probe_{mode}.npz"
        commands += [
            Command(f"probe_train_{mode}", ["probe", "train", "--features", str(inp / f"train_{mode}.cfft"),
                    "--mode", mode, "-o", str(model)], check_train),
            Command(f"probe_eval_{mode}", ["probe", "eval", "--features", str(inp / f"val_{mode}.cfft"),
                    "--mode", mode, "--model", str(model)], check_score(prefix, floor, name)),
        ]
    commands.append(Command("eval_clips", ["eval", "clips", "--frames", str(CLIP_FRAMES), "--clip-len", str(CLIP_LEN)],
                            check_clips))
    return commands
