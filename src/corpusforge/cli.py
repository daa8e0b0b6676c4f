"""Command-line interface.

Subcommands cover the whole pipeline: label-space construction, corpus
statistics, sampling, length-class selection, dedup reports, weight
inflation, FCN transform, LR schedules, probes, and clip planning.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from . import dedup as dedup_mod
from .census import decode_frames, load_raw_frames
from .evalmetrics import accuracy_topk, check_class_ids, mean_average_precision, uniform_clip_starts
from .inflate import fcn_transform, inflate, inflation_equivalence, inflate_net
from .labelspace import PosHint, build_label_space, load_seed_file, verbnoun_seeds
from .manifest import load_manifest, save_manifest
from .netops import check_elements, load_net, save_net
from .probe import ProbeMode, load_features, load_probe, save_probe, train_probe
from .records import (
    LabelKind,
    ValidationError,
    check_count,
    label_histogram,
    load_corpus,
    load_label_space,
    read_lines,
    save_label_space,
)
from .rng import make_rng
from .sampling import SamplingPlan, Strategy, sample
from .schedule import lr_schedule, save_schedule
from .temporal import BudgetMode, BudgetPlan, LengthClass, plan_budget
from .tensor import load_weights, save_weights


def _cmd_manifest_validate(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.path)
    if args.corpus:
        manifest.validate_against(load_corpus(args.corpus))
    print(f"OK: {len(manifest.rows)} rows, seed {manifest.seed}")
    return 0


def _cmd_corpus_stats(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    space = load_label_space(args.labelspace)
    counts = label_histogram(corpus, space)
    stats = {
        "videos": len(corpus),
        "total_duration_s": round(sum(v.duration_s for v in corpus), 6),
        "labels": len(space.entries),
        "matched_label_total": sum(counts.values()),
        "counts": counts,
    }
    print(json.dumps(stats, indent=1, sort_keys=True))
    return 0


def _cmd_labelspace_build(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    kind = LabelKind(args.kind)
    if kind is LabelKind.VERB_NOUN:
        if not args.nouns:
            raise ValidationError("--kind verbnoun needs --seeds (verbs) and --nouns")
        verbs = load_seed_file(args.seeds, PosHint.VERB)
        nouns = load_seed_file(args.nouns, PosHint.NOUN)
        seeds = verbnoun_seeds(verbs, nouns)
    else:
        hint = {
            LabelKind.SEED: PosHint.OTHER,
            LabelKind.VERB: PosHint.VERB,
            LabelKind.NOUN: PosHint.NOUN,
        }[kind]
        seeds = load_seed_file(args.seeds, hint)
    space = build_label_space(
        seeds,
        kind,
        corpus,
        min_count=args.min_count,
        name=args.name,
        all_orders=args.all_orders,
    )
    save_label_space(space, args.output)
    print(f"wrote {args.output}: {len(space.entries)} labels")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    plan = SamplingPlan(strategy=Strategy(args.strategy), budget=args.budget, seed=args.seed)
    corpus = load_corpus(args.corpus)
    space = load_label_space(args.labelspace)
    manifest = sample(corpus, space, plan)
    save_manifest(manifest, args.output, corpus=corpus)
    print(f"wrote {args.output}: {len(manifest.rows)} rows")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    plan = BudgetPlan(BudgetMode(args.mode), LengthClass(args.length_class), args.count, args.minutes)
    corpus = load_corpus(args.corpus)
    space = load_label_space(args.labelspace)
    manifest = plan_budget(corpus, plan, space, args.seed)
    save_manifest(manifest, args.output, corpus=corpus)
    print(f"wrote {args.output}: {len(manifest.rows)} rows")
    return 0


def _video_files(spec: str) -> list[Path]:
    """The .cfvd files of a directory, or the paths listed in a text file."""
    path = Path(spec)
    if path.is_dir():
        files = sorted(path.glob("*.cfvd"))
    else:
        files = [Path(line.strip()) for _lineno, line in read_lines(path) if line.strip()]
    if not files:
        raise ValidationError(f"{spec}: no videos found")
    return files


def _cmd_dedup(args: argparse.Namespace) -> int:
    source_files = _video_files(args.sources)
    target_files = _video_files(args.targets)
    # read lazily, one raw (uint8) video at a time, after the arguments pass
    report = dedup_mod.dedup_report(
        (decode_frames(load_raw_frames(f)) for f in source_files),
        (decode_frames(load_raw_frames(f)) for f in target_files),
        tau=args.tau,
        threshold_pct=args.threshold,
        seed=args.seed,
    )
    dedup_mod.save_report(report, args.output)
    print(
        f"wrote {args.output}: {len(report.pairs)} overlapping pairs, "
        f"{len(report.flagged_sources())} sources flagged"
    )
    return 0


def _cmd_inflate(args: argparse.Namespace) -> int:
    in_path, out_path = Path(args.input), Path(args.output)
    if in_path.suffix == ".wtsr":
        weights = load_weights(in_path)
        if weights.ndim != 4:
            raise ValidationError(f"{in_path}: expected (out,in,h,w) weights, got {weights.shape}")
        save_weights(inflate(weights, args.k), out_path)
    else:
        net3d = inflate_net(load_net(in_path), args.k)
        save_net(net3d, out_path)
    print(f"wrote {out_path} (k={args.k})")
    return 0


def _cmd_verify_inflation(args: argparse.Namespace) -> int:
    check_count(args.size, "size")
    net = load_net(args.net)
    if not net.is_2d():
        raise ValidationError(f"{args.net}: verify-inflation needs a net of 2D conv layers")
    channels = net.conv_layers()[0].weights.shape[1]
    check_elements(channels * args.size * args.size, "input")
    x2d = make_rng(args.seed).standard_normal((channels, args.size, args.size))
    result = inflation_equivalence(net, args.k, x2d, tol=args.tol)
    status = "OK" if result.ok else "FAIL"
    print(f"{status}: max deviation {result.max_deviation:.3e} (tol {result.tol:g})")
    return 0 if result.ok else 1


def _cmd_fcn(args: argparse.Namespace) -> int:
    net = fcn_transform(load_net(args.input))
    save_net(net, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    sched = lr_schedule(
        base_lr=args.base,
        warmup_iters=args.warmup,
        total_iters=args.total,
        num_reductions=args.reductions,
        factor=args.factor,
    )
    save_schedule(sched, args.output)
    final = sched.values[-1]
    print(f"wrote {args.output}: {len(sched.values)} iterations, final lr {final:g}")
    return 0


def _cmd_probe_train(args: argparse.Namespace) -> int:
    mode = ProbeMode(args.mode)
    features, targets = load_features(args.features, mode)
    model = train_probe(
        features, targets, mode=mode, l2_lambda=args.l2, iters=args.iters, step=args.step
    )
    save_probe(model, args.output)
    print(f"wrote {args.output}: final loss {model.final_loss:.6f}")
    return 0


def _cmd_probe_eval(args: argparse.Namespace) -> int:
    mode = ProbeMode(args.mode)
    features, targets = load_features(args.features, mode)
    model = load_probe(args.model)
    if model.mode is not mode or features.shape[1] != model.weights.shape[1]:
        raise ValidationError(f"{args.model}: does not fit {mode.value} features {features.shape}")
    logits = model.logits(features)
    if mode is ProbeMode.SOFTMAX_MULTICLASS:
        check_class_ids(targets, model.weights.shape[0], args.features)
        top1 = accuracy_topk(logits, targets, k=1)
        print(f"top-1 accuracy: {top1:.4f}")
    else:
        value, skipped = mean_average_precision(logits, targets)
        print(f"mAP: {value:.4f} (skipped labels: {skipped})")
    return 0


def _cmd_eval_clips(args: argparse.Namespace) -> int:
    starts = uniform_clip_starts(args.frames, args.clip_len, args.clips, args.placement)
    print(json.dumps(starts))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument error is one stderr line and exit 2, as every other error
    is; the usage text stays on ``--help``.  Subparsers share the class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corpusforge")
    sub = parser.add_subparsers(dest="command", required=True)

    manifest = sub.add_parser("manifest", help="manifest utilities")
    manifest_sub = manifest.add_subparsers(dest="subcommand", required=True)
    v = manifest_sub.add_parser("validate", help="parse and validate a manifest")
    v.add_argument("path")
    v.add_argument("--corpus", help="corpus JSONL to validate row containment")
    v.set_defaults(func=_cmd_manifest_validate)

    corpus = sub.add_parser("corpus", help="corpus utilities")
    corpus_sub = corpus.add_subparsers(dest="subcommand", required=True)
    st = corpus_sub.add_parser("stats", help="per-label statistics")
    st.add_argument("corpus")
    st.add_argument("--labelspace", required=True)
    st.set_defaults(func=_cmd_corpus_stats)

    ls = sub.add_parser("labelspace", help="label-space construction")
    ls_sub = ls.add_subparsers(dest="subcommand", required=True)
    lb = ls_sub.add_parser("build")
    lb.add_argument("--seeds", required=True, help="seed phrases, one per line")
    lb.add_argument("--nouns", help="noun seed file (verbnoun kind only)")
    lb.add_argument("--kind", required=True, choices=[k.value for k in LabelKind])
    lb.add_argument("--corpus", required=True)
    lb.add_argument("--min-count", type=int, default=50, dest="min_count")
    lb.add_argument("--name", default="labelspace")
    lb.add_argument("--all-orders", action="store_true", dest="all_orders")
    lb.add_argument("-o", "--output", required=True)
    lb.set_defaults(func=_cmd_labelspace_build)

    sp = sub.add_parser("sample", help="sample a corpus into a manifest")
    sp.add_argument("--strategy", required=True, choices=[s.value for s in Strategy])
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--labelspace", required=True)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_sample)

    se = sub.add_parser("select", help="length-class selection under a budget")
    se.add_argument(
        "--class",
        dest="length_class",
        required=True,
        choices=[c.value for c in LengthClass],
    )
    se.add_argument("--mode", required=True, choices=[m.value for m in BudgetMode])
    se.add_argument("--count", type=int)
    se.add_argument("--minutes", type=float)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--corpus", required=True)
    se.add_argument("--labelspace", required=True)
    se.add_argument("-o", "--output", required=True)
    se.set_defaults(func=_cmd_select)

    dd = sub.add_parser("dedup", help="near-duplicate report")
    dd.add_argument("--sources", required=True, help="directory or list file of .cfvd videos")
    dd.add_argument("--targets", required=True)
    dd.add_argument("--tau", type=float, default=dedup_mod.DEFAULT_TAU)
    dd.add_argument("--threshold", type=float, default=dedup_mod.DEFAULT_THRESHOLD_PCT)
    dd.add_argument("--seed", type=int, default=0)
    dd.add_argument("-o", "--output", required=True, help="report directory")
    dd.set_defaults(func=_cmd_dedup)

    inf = sub.add_parser("inflate", help="inflate 2D weights or a 2D net to 3D")
    inf.add_argument("--in", dest="input", required=True)
    inf.add_argument("--k", type=int, required=True)
    inf.add_argument("-o", "--output", required=True)
    inf.set_defaults(func=_cmd_inflate)

    vi = sub.add_parser("verify-inflation", help="numerically check inflation")
    vi.add_argument("--net", required=True)
    vi.add_argument("--k", type=int, required=True)
    vi.add_argument("--tol", type=float, default=1e-5)
    vi.add_argument("--size", type=int, default=12)
    vi.add_argument("--seed", type=int, default=0)
    vi.set_defaults(func=_cmd_verify_inflation)

    fc = sub.add_parser("fcn", help="fully-convolutional head transform")
    fc.add_argument("--in", dest="input", required=True)
    fc.add_argument("-o", "--output", required=True)
    fc.set_defaults(func=_cmd_fcn)

    sc = sub.add_parser("schedule", help="emit a step LR schedule")
    sc.add_argument("--base", type=float, default=0.192)
    sc.add_argument("--reductions", type=int, default=13)
    sc.add_argument("--total", type=int, required=True)
    sc.add_argument("--warmup", type=int, default=0)
    sc.add_argument("--factor", type=float, default=0.5)
    sc.add_argument("-o", "--output", required=True)
    sc.set_defaults(func=_cmd_schedule)

    pr = sub.add_parser("probe", help="train/evaluate a linear probe")
    pr_sub = pr.add_subparsers(dest="subcommand", required=True)
    pt = pr_sub.add_parser("train")
    pt.add_argument("--features", required=True, help="CFFT feature file")
    pt.add_argument("--mode", required=True, choices=[m.value for m in ProbeMode])
    pt.add_argument("--l2", type=float, default=1e-4)
    pt.add_argument("--iters", type=int, default=1000)
    pt.add_argument("--step", type=float, help="the first step, and any step taken without curvature "
                    "pairs, as a multiple of the gradient (default: 1/L from the features)")
    pt.add_argument("-o", "--output", required=True, help="model path (.npz archive)")
    pt.set_defaults(func=_cmd_probe_train)
    pe = pr_sub.add_parser("eval")
    pe.add_argument("--features", required=True)
    pe.add_argument("--mode", required=True, choices=[m.value for m in ProbeMode])
    pe.add_argument("--model", required=True)
    pe.set_defaults(func=_cmd_probe_eval)

    ev = sub.add_parser("eval", help="evaluation helpers")
    ev_sub = ev.add_subparsers(dest="subcommand", required=True)
    ec = ev_sub.add_parser("clips", help="uniform clip starts for a test video")
    ec.add_argument("--frames", type=int, required=True)
    ec.add_argument("--clip-len", type=int, required=True, dest="clip_len")
    ec.add_argument("--clips", type=int, default=10)
    ec.add_argument("--placement", choices=["endpoints", "centers"], default="endpoints")
    ec.set_defaults(func=_cmd_eval_clips)

    return parser


# one BLAS/OpenMP thread, so that a model's bytes do not depend on the core
# count of the machine that trained it; read when numpy is first bound
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # one command makes few reference cycles; the cyclic collector would only
    # rescan its many long-lived objects, so pause it and restore the caller's state
    gc_was_on = gc.isenabled()
    gc.disable()
    # a caller's own thread setting is overridden too, and restored after
    threads_were = {name: os.environ.get(name) for name in _THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(_THREAD_VARIABLES, "1"))
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for name, value in threads_were.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
        if gc_was_on:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
