"""corpusforge end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Set-up writes the workload's inputs
from the seed five times; ``setup_s`` is the median.  The benchmark then runs
the workload's command tour (``tour.py``), one ``corpusforge`` process per
command and one at a time, in passes until ``--seconds`` have been measured
and at least twice, and checks every output.  Times are medians over passes.

A shared VM's speed drifts by up to a third over minutes, the same for every
command (seen on the 2-core VM the bounds were set on), so two sets of runs
can disagree by more than any useful bound.
A fixed kernel (:func:`calibrate`) runs before every set-up and command; the
end-to-end times are reported in seconds at the reference speed, each
measured time times ``CAL_REFERENCE_S`` over the run's median kernel time.
The measured seconds and the kernel time are in the detail line.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``.
``--trace 1`` also runs the tour once more under ``tracer.py`` and reports the
``per_layer`` metrics, including the tracing overhead against the untraced
passes.  The line before the result holds the details: environment, input
properties, every command's times, known defects, check failures and output
digests.  ``digests.json`` pins the output digests for ``DEFAULT_SEED``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
DEFAULT_SEED = 1
SETUPS = 5
CAL_REFERENCE_S = 0.012  # calibrate() at the reference speed: its median on the 2-core VM the bounds were set on
MIN_PASSES = 2
STARTUP_SAMPLES = 5
CHILD_CPU_LIMIT_S = 150
MODULES = ("cli", "records", "rng", "labelspace", "sampling", "temporal", "manifest", "census",
           "dedup", "tensor", "netops", "inflate", "probe", "evalmetrics", "schedule")


@dataclass
class CommandResult:
    key: str
    seconds: float
    maxrss_kb: int
    status: str  # "ok", "failed" or "known_defect"
    calibration_s: float = 0.0  # calibrate() just before the command
    message: str = ""
    quality: dict[str, float] = field(default_factory=dict)


def _child_limits() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def spawn(argv: list[str], env: dict[str, str], cwd: Path) -> tuple[float, int, int, str, str]:
    """Run one process to completion: (seconds, exit code, peak RSS in KiB, stdout, stderr)."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=cwd, env=env,
                                preexec_fn=_child_limits)
        _pid, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (seconds, proc.returncode, usage.ru_maxrss, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"))


def calibrate() -> float:
    """Seconds for a fixed Python-and-numpy kernel that runs no corpusforge code.

    Taken before every command, it shows how fast the machine was during the
    run, which on a shared VM drifts by tens of percent over minutes.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    a = np.arange(1, 20_001, dtype=np.float64)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - start


def run_pass(commands, env: dict[str, str], out: Path, trace_dir: Path | None) -> list[CommandResult]:
    from tour import CheckFailed, Outcome

    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    results = []
    for i, cmd in enumerate(commands):
        if trace_dir is None:
            argv = [sys.executable, "-m", "corpusforge.cli", *cmd.argv]
        else:
            argv = [sys.executable, str(TRACER), str(trace_dir / f"cmd{i:02d}"), *cmd.argv]
        calibration = calibrate()
        seconds, code, rss, stdout, stderr = spawn(argv, env, out)
        result = CommandResult(cmd.key, seconds, rss, "ok", calibration_s=calibration)
        if code != 0 and cmd.known_defect and cmd.known_defect in stderr:
            result.status, result.message = "known_defect", stderr.strip().splitlines()[-1]
        else:
            try:
                result.quality = cmd.check(Outcome(code, stdout, stderr))
            except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
                result.status, result.message = "failed", f"{type(exc).__name__}: {exc}"
        results.append(result)
    return results


def setup(workload, seed: int, inp: Path):
    """Write all inputs SETUPS times: truth of the last write, median time, kernel times."""
    import numpy as np

    from inputs import write_corpus, write_features, write_net, write_videos

    times, calibration = [], []
    for _ in range(SETUPS):
        if inp.exists():
            shutil.rmtree(inp)
        calibration.append(calibrate())
        start = time.perf_counter()
        inp.mkdir(parents=True)
        corpus = write_corpus(workload.corpus, np.random.default_rng([seed, 0]), inp)
        videos = write_videos(workload.dedup, np.random.default_rng([seed, 1]), inp)
        write_net(workload.evaluation, np.random.default_rng([seed, 2]), inp / "net2d.json")
        write_features(workload.evaluation, np.random.default_rng([seed, 3]), inp)
        times.append(time.perf_counter() - start)
    return corpus, videos, statistics.median(times), calibration


CURATION = ("labelspace_build", "corpus_stats", "sample_random", "sample_sqrt", "sample_tail",
            "select_f2", "select_f1", "validate_random", "validate_sqrt", "validate_tail", "validate_f2", "validate_f1")
SAMPLING = ("sample_random", "sample_sqrt", "sample_tail")
EVALUATION = ("inflate", "verify_k3", "verify_k5", "fcn", "schedule", "probe_train_softmax", "probe_eval_softmax",
              "probe_train_sigmoid", "probe_eval_sigmoid", "eval_clips")
# single-command times, reported per layer as cli.<name>
COMMAND_METRICS = {
    "labelspace_build_s": ("labelspace_build",),
    "sample_random_s": ("sample_random",),
    "sample_sqrt_s": ("sample_sqrt",),
    "sample_tail_s": ("sample_tail",),
    "select_f1_s": ("select_f1",),
    "select_f2_s": ("select_f2",),
    "dedup_s": ("dedup",),
    "verify_inflation_s": ("verify_k3", "verify_k5"),
    "probe_train_s": ("probe_train_softmax", "probe_train_sigmoid"),
}


def per_pass(passes: list[list[CommandResult]], fn) -> float:
    """Median over passes of fn(results of one pass, keyed by command)."""
    return statistics.median(fn({r.key: r for r in results}) for results in passes)


def seconds(*keys: str):
    return lambda by: sum(by[k].seconds for k in keys)


def end_to_end(passes: list[list[CommandResult]], setup_s: float, timed: tuple[str, ...]) -> dict[str, float]:
    # Stage sums, not single commands: on the workloads where a stage gets
    # small inputs its commands last ~0.3 s each, and one such process varies
    # by more than the bounds allow on a shared machine.
    return {
        "setup_s": setup_s,
        "wall_s": per_pass(passes, seconds(*timed)),
        "peak_rss_mb": max(r.maxrss_kb for results in passes for r in results) / 1024.0,
        "curation_s": per_pass(passes, seconds(*CURATION)),
        "sampling_s": per_pass(passes, seconds(*SAMPLING)),
        "dedup_s": per_pass(passes, seconds("dedup")),
        "evaluation_s": per_pass(passes, seconds(*EVALUATION)),
        "dedup_pair_recall": per_pass(passes, lambda by: by["dedup"].quality.get("dedup_pair_recall", 0.0)),
    }


def per_layer(trace_files: list[Path], passes: list[list[CommandResult]], startup_s: float, overhead: float,
              failed_frac: float) -> dict[str, float]:
    from tracer import reduce_traces

    total, own, calls, figures = reduce_traces(trace_files)
    v = {f"{m}.{k}": 0.0 for m in MODULES for k in ("busy_s", "self_s", "errors")}
    v.update(figures)
    v.update({f"cli.{name}": per_pass(passes, seconds(*keys)) for name, keys in COMMAND_METRICS.items()})
    v["cli.manifest_validate_s"] = per_pass(
        passes, lambda by: statistics.median(r.seconds for k, r in by.items() if k.startswith("validate_"))
    )

    def t(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    decode_s, conv_s = t("census.decode_frames"), t("netops.conv2d_forward", "netops.conv3d_forward")
    v.update({
        "cli.startup_s": startup_s,
        "cli.ops_failed_frac": failed_frac,
        "trace.overhead_frac": overhead,
        "records.load_corpus_s": t("records.load_corpus"),
        "records.index_build_s": t("records.label_histogram", "records.label_videos", "records.matches_by_video"),
        "rng.make_rng_calls": calls.get("rng.make_rng", 0),
        "rng.make_rng_s": t("rng.make_rng"),
        "rng.assign_useful_frac": ratio(v.get("rng.assign_useful", 0.0), v.get("rng.assign_draws", 0.0)),
        "labelspace.build_self_s": own.get("labelspace.build_label_space", 0.0),
        "labelspace.labels_kept_frac": ratio(v.get("labelspace.labels_kept", 0.0), v.get("labelspace.seeds", 0.0)),
        "sampling.random_self_s": own.get("sampling.sample_random", 0.0),
        "sampling.sqrt_self_s": own.get("sampling.sample_square_root", 0.0),
        "sampling.tail_self_s": own.get("sampling.sample_tail_preserving", 0.0),
        "temporal.length_class_s": t("temporal.build_length_class"),
        "manifest.save_s": t("manifest.save_manifest"),
        "manifest.load_s": t("manifest.load_manifest"),
        "manifest.validate_against_s": t("manifest.DatasetManifest.validate_against"),
        "census.load_raw_s": t("census.load_raw_frames"),
        "census.decode_s": decode_s,
        "census.decode_frames_per_s": ratio(v.get("census.frames_decoded", 0.0), decode_s),
        "dedup.insert_s": t("dedup.LshIndex.insert"),
        "dedup.query_s": t("dedup.LshIndex.match"),
        "dedup.candidates_per_query": ratio(v.get("dedup.candidates", 0.0), v.get("dedup.queries", 0.0)),
        "dedup.candidate_frac": ratio(v.get("dedup.candidates", 0.0), v.get("dedup.index_at_query", 0.0)),
        "dedup.match_yield": ratio(v.get("dedup.matches", 0.0), v.get("dedup.candidates", 0.0)),
        "dedup.save_report_s": t("dedup.save_report"),
        "netops.load_net_s": t("netops.load_net"),
        "netops.conv_forward_s": conv_s,
        "netops.conv_gmacs_per_s": ratio(v.get("netops.conv_macs", 0.0), conv_s) / 1e9,
        "inflate.equivalence_s": t("inflate.inflation_equivalence"),
        "probe.load_features_s": t("probe.load_features"),
        "probe.train_s": t("probe.train_probe"),
        "probe.loss_grad_s": t("probe.probe_loss_and_grad"),
        "evalmetrics.topk_s": t("evalmetrics.accuracy_topk"),
        "evalmetrics.map_s": t("evalmetrics.mean_average_precision"),
        "schedule.lr_schedule_s": t("schedule.lr_schedule"),
    })
    return v


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "corpusforge" / "cli.py").is_file():
        print(f"error: {SRC / 'corpusforge'} not found; run from a corpusforge checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from oracle import DedupOracle
    from tour import WORKLOADS, Truth, build_tour, sha256

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    pins = {}
    if args.seed == DEFAULT_SEED:
        pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8")).get(workload.name, {})
    work = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    try:
        inp, out = work / "inputs", work / "outputs"
        corpus_truth, dedup_truth, setup_s, setup_calibration = setup(workload, args.seed, inp)
        truth = Truth(corpus_truth, dedup_truth, DedupOracle(inp / "sources", inp / "targets"))
        commands = build_tour(workload, inp, out, truth, pins)
        work.joinpath("warm").mkdir()
        spawn([sys.executable, "-c", "import corpusforge.cli"], env, work / "warm")  # compile bytecode once

        passes: list[list[CommandResult]] = []
        elapsed = 0.0
        while len(passes) < MIN_PASSES or elapsed < args.seconds:
            passes.append(run_pass(commands, env, out, None))
            elapsed += sum(r.seconds for r in passes[-1])
        digests = {p.name: sha256(p) for p in sorted(out.glob("*.jsonl")) + [out / "report" / "overlap_pairs.jsonl"]
                   if p.is_file()}
        all_results = list(passes)
        layers = {}
        if args.trace:
            trace_dir = work / "trace"
            trace_dir.mkdir()
            traced = run_pass(commands, env, out, trace_dir)
            all_results.append(traced)
            startup = statistics.median(
                spawn([sys.executable, "-c", "import corpusforge.cli"], env, work / "warm")[0]
                for _ in range(STARTUP_SAMPLES)
            )
            untraced_wall = statistics.median(sum(r.seconds for r in results) for results in passes)
            overhead = sum(r.seconds for r in traced) / untraced_wall - 1.0
            flat = [r for results in all_results for r in results]
            failed_frac = sum(r.status != "ok" for r in flat) / len(flat)
            layers = per_layer(sorted(trace_dir.glob("*.npz")), passes, startup, overhead, failed_frac)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    flat = [r for results in all_results for r in results]
    failures = [f"{r.key}: {r.message}" for r in flat if r.status == "failed"]
    # the raw-corpus select probes stay out of wall_s, so fixing their defect
    # (they then do a full select) does not read as a slowdown
    measured = end_to_end(passes, setup_s, tuple(c.key for c in commands if not c.known_defect))
    calibration = statistics.median(setup_calibration + [r.calibration_s for p in passes for r in p])
    scale = CAL_REFERENCE_S / calibration
    e2e = {k: v * scale if k.endswith("_s") else v for k, v in measured.items()}
    values = layers if args.trace else e2e
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "environment": environment(),
        "inputs": {
            "videos": corpus_truth.videos,
            "unmatched_frac": corpus_truth.unmatched / corpus_truth.videos,
            "multilabel_frac": corpus_truth.multilabel / corpus_truth.videos,
            "labels_kept": len(corpus_truth.kept),
            "frames": dedup_truth.frames,
            "frames_resized": dedup_truth.resized,
            "lsh_candidate_frac": layers.get("dedup.candidate_frac"),
        },
        "command_s": {r.key: [p[i].seconds for p in passes] for i, r in enumerate(passes[0])},
        "quality": {name: statistics.median(r.quality[name] for r in flat if name in r.quality)
                    for name in sorted({n for r in flat for n in r.quality})},
        "calibration_s": calibration,
        "measured": measured,
        "known_defects": sorted({f"{r.key}: {r.message}" for r in flat if r.status == "known_defect"}),
        "failures": failures,
        "digests": digests,
        "pinned": bool(pins),
    }
    if args.trace:
        detail["end_to_end"] = e2e
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(flat),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
