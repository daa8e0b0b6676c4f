"""Traced runner and span reduction.

``python3 perfbench/tracer.py OUT ARGS...`` runs ``corpusforge.cli.main(ARGS)``
with every public function and public method of every loaded ``corpusforge``
module wrapped from outside.  A wrapped function is replaced under each name
that refers to it in any ``corpusforge`` module, so ``from .census import
cosine`` in ``dedup`` is traced as well.  Each call records a span (name,
start, end, parent span); hooks keyed by span name update counters at the same
boundary.  Spans stay in memory and are written to ``OUT.npz`` and
``OUT.json`` when the command ends.

:func:`reduce_traces` turns the files of one tour into busy and self time per
module and per function.  Self time is a span's duration minus the time its
child spans cover; busy time of a module is the union of its spans.
"""
from __future__ import annotations

import enum
import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self.last_matches: dict = {}  # video id -> matched labels, from the last index build

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        ids, parents, starts, ends, stack = self.ids, self.parents, self.starts, self.ends, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                self.errors[name] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if hook is not None:
                hook(self, args, result, ends[idx] - starts[idx])
            return result

        return traced

    def install(self) -> None:
        """Wrap public functions and methods of every loaded corpusforge module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("corpusforge.")]
        replaced: dict[int, object] = {}
        for module in modules:
            short = module.__name__.split(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(fn, f"{short}.{obj.__name__}.{meth}"))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def save(self, out: str) -> None:
        np.savez(
            out + ".npz",
            ids=np.frombuffer(self.ids, dtype=np.int64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )
        meta = {"names": self.names, "counters": self.counters, "errors": self.errors}
        Path(out + ".json").write_text(json.dumps(meta), encoding="utf-8")


# ---------------------------------------------------------------------------
# Counter hooks: hook(recorder, args, result, seconds) after a call returns.


def _add(key: str, amount) -> object:
    def hook(rec: Recorder, args, result, seconds) -> None:
        rec.counters[key] += amount(args, result)

    return hook


def _matches_by_video(rec: Recorder, args, result, seconds) -> None:
    rec.counters["records.index_builds"] += 1
    rec.counters["records.unmatched_videos"] += len(args[0]) - len(result)
    rec.last_matches = result


def _make_rng(rec: Recorder, args, result, seconds) -> None:
    if len(args) > 2 and args[1] == "assign":
        rec.counters["rng.assign_draws"] += 1
        if len(rec.last_matches.get(args[2], ())) > 1:
            rec.counters["rng.assign_useful"] += 1


def _plan_budget(rec: Recorder, args, result, seconds) -> None:
    rec.counters[f"temporal.plan_{args[1].mode.value}_s"] += seconds


def _conv(rec: Recorder, args, result, seconds) -> None:
    weights = args[1]
    rec.counters["netops.conv_macs"] += result.size * (weights.size // weights.shape[0])


def _candidates(rec: Recorder, args, result, seconds) -> None:
    # one candidate lookup per query; the index size gives the share of the
    # index that LSH hands to verification
    rec.counters["dedup.queries"] += 1
    rec.counters["dedup.candidates"] += len(result)
    rec.counters["dedup.index_at_query"] += len(args[0])


def _sample_rows(args, result) -> int:
    return len(result.rows)


def _sqrt_rows(rec: Recorder, args, result, seconds) -> None:
    # one label draw per row taken
    rec.counters["sampling.rows"] += len(result.rows)
    rec.counters["sampling.sqrt_draws"] += len(result.rows)


HOOKS = {
    "records.load_corpus": _add("records.videos_loaded", lambda a, r: len(r)),
    "records.label_histogram": _add("records.index_builds", lambda a, r: 1),
    "records.label_videos": _add("records.index_builds", lambda a, r: 1),
    "records.matches_by_video": _matches_by_video,
    "rng.make_rng": _make_rng,
    "labelspace.relevant_hashtags": _add("labelspace.hashtags_expanded", lambda a, r: len(r)),
    "labelspace.build_label_space": _add("labelspace.labels_kept", lambda a, r: len(r.entries)),
    "labelspace.load_seed_file": _add("labelspace.seeds", lambda a, r: len(r)),
    "sampling.sample_random": _add("sampling.rows", _sample_rows),
    "sampling.sample_square_root": _sqrt_rows,
    "sampling.sample_tail_preserving": _add("sampling.rows", _sample_rows),
    "temporal.plan_budget": _plan_budget,
    "manifest.manifest_bytes": _add("manifest.bytes_written", lambda a, r: len(r)),
    "manifest.save_manifest": _add("manifest.rows", lambda a, r: len(a[0].rows)),
    "manifest.load_manifest": _add("manifest.rows", lambda a, r: len(r.rows)),
    "census.decode_frames": _add("census.frames_decoded", lambda a, r: len(r)),
    "census.bilinear_resize": _add("census.frames_resized", lambda a, r: 1),
    "census.cosine": _add("dedup.verify_calls", lambda a, r: 1),
    "dedup.LshIndex.insert": _add("dedup.index_entries", lambda a, r: len(a[1])),
    "dedup.LshIndex.candidates": _candidates,
    "dedup.LshIndex.match": _add("dedup.matches", lambda a, r: len(r)),
    "netops.conv2d_forward": _conv,
    "netops.conv3d_forward": _conv,
    "probe.probe_loss_and_grad": _add("probe.iters", lambda a, r: 1),
}


# ---------------------------------------------------------------------------
# Reduction of a tour's trace files into per-layer numbers.


def reduce_traces(paths: list[Path]) -> tuple[dict, dict, dict, dict]:
    """Sum the given traces into (total time, self time, calls) per function and module figures.

    Module figures are ``<module>.busy_s``, ``<module>.self_s`` and
    ``<module>.errors``; counters are added to them unchanged.
    """
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    modules: dict[str, float] = defaultdict(float)
    for path in paths:
        meta = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
        spans = np.load(path.with_suffix(".npz"))
        names = meta["names"]
        ids, parents = spans["ids"], spans["parents"]
        dur = spans["ends"] - spans["starts"]
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - covered
        by_name_total = np.bincount(ids, weights=dur, minlength=len(names))
        by_name_self = np.bincount(ids, weights=own, minlength=len(names))
        by_name_calls = np.bincount(ids, minlength=len(names))
        module_of = np.array([n.split(".", 1)[0] for n in names] or [""])
        for nid, name in enumerate(names):
            if by_name_calls[nid]:
                total[name] += float(by_name_total[nid])
                self_time[name] += float(by_name_self[nid])
                calls[name] += int(by_name_calls[nid])
        span_module = module_of[ids] if len(ids) else np.array([], dtype=module_of.dtype)
        for module in np.unique(span_module):
            mask = span_module == module
            starts, ends = spans["starts"][mask], spans["ends"][mask]
            # spans nest properly in one thread: a span is outermost for its
            # module when it starts after every earlier span of the module ended
            reach = np.concatenate([[-np.inf], np.maximum.accumulate(ends)[:-1]])
            outer = starts >= reach
            modules[f"{module}.busy_s"] += float((ends[outer] - starts[outer]).sum())
            modules[f"{module}.self_s"] += float(own[mask].sum())
        for name, count in meta["errors"].items():
            modules[f"{name.split('.', 1)[0]}.errors"] += count
        for key, value in meta["counters"].items():
            modules[key] += value
    return dict(total), dict(self_time), dict(calls), dict(modules)


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    import corpusforge.cli  # noqa: F401  (loads every module the CLI uses)

    recorder = Recorder()
    recorder.install()
    try:
        return sys.modules["corpusforge.cli"].main(cli_args)
    finally:
        recorder.save(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
