"""numpy executes only in commands that compute with it.

Every module binds ``np`` through ``corpusforge._lazy``, so ``import
corpusforge.cli`` loads the whole package without running numpy's import.
Each case runs in a fresh interpreter: numpy is already loaded in this one.
"""
from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corpusforge
from corpusforge.cli import main
from corpusforge.records import save_corpus, save_label_space

from conftest import corpus_with_counts
from test_golden import GOLDEN, golden_corpus

PACKAGE = Path(corpusforge.__file__).resolve().parent

# runs cli.main(argv) and records its exit code and the numpy submodules loaded
_CHILD = """
import json, sys
import corpusforge.cli
if sys.argv[1] == "--import-only":
    rc = None
else:
    rc = corpusforge.cli.main(json.loads(sys.argv[1]))
loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
with open(sys.argv[2], "w") as f:
    json.dump({"rc": rc, "numpy": loaded}, f)
"""


def _run(tmp_path: Path, code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                                    os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)


def _cli(tmp_path: Path, argv: list[str] | None) -> dict:
    report = tmp_path / "report.json"
    proc = _run(tmp_path, _CHILD, json.dumps(argv) if argv is not None else "--import-only", str(report))
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text())


# CLI argument templates; {root} is the directory of the pipeline fixture
_INPUTS = "--seed 3 --corpus {root}/corpus.jsonl --labelspace {root}/space.json"
_PIPELINE = [
    "labelspace build --seeds {root}/seeds.txt --kind seed --corpus {root}/corpus.jsonl"
    " --min-count 50 -o {root}/space.json",
    *[f"sample --strategy {s} --budget 40 {_INPUTS} -o {{root}}/{s}.jsonl" for s in ("random", "sqrt", "tail")],
    f"select --class short --mode f1 --count 10 {_INPUTS} -o {{root}}/f1.jsonl",
    f"select --class short --mode f2 --minutes 1.0 {_INPUTS} -o {{root}}/f2.jsonl",
]
# the commands of a benchmark pass that compute nothing with numpy
NUMPY_FREE = {
    "labelspace_build": _PIPELINE[0],  # rewrites space.json with the same bytes
    "corpus_stats": "corpus stats {root}/corpus.jsonl --labelspace {root}/space.json",
    "schedule": "schedule --base 0.1 --reductions 2 --total 100 --warmup 10 -o {root}/sched.json",
    "eval_clips": "eval clips --frames 300 --clip-len 32",
    **{f"validate_{name}": f"manifest validate {{root}}/{name}.jsonl --corpus {{root}}/corpus.jsonl"
       for name in ("random", "sqrt", "tail", "f1", "f2")},
}


def _argv(template: str, root: Path) -> list[str]:
    return [arg.format(root=root) for arg in template.split()]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A corpus, a label space and the five manifests that the benchmark validates."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus, _space = corpus_with_counts({"ropejumping": 60, "guitarplaying": 55}, duration_s=4.0)
    save_corpus(corpus, root / "corpus.jsonl")
    (root / "seeds.txt").write_text("jumping/v rope/n\nplaying/v guitar/n\n")
    for template in _PIPELINE:
        assert main(_argv(template, root)) == 0
    return root


def test_importing_the_cli_executes_no_numpy(tmp_path):
    assert _cli(tmp_path, None) == {"rc": None, "numpy": []}


@pytest.mark.parametrize("name", sorted(NUMPY_FREE))
def test_numpy_free_command_executes_no_numpy(pipeline, tmp_path, name):
    assert _cli(tmp_path, _argv(NUMPY_FREE[name], pipeline)) == {"rc": 0, "numpy": []}


def test_sample_executes_numpy_and_writes_the_pinned_bytes(tmp_path):
    corpus, _matched, space = golden_corpus()
    save_corpus(corpus, tmp_path / "corpus.jsonl")
    save_label_space(space, tmp_path / "space.json")
    out = tmp_path / "sqrt.jsonl"
    result = _cli(tmp_path, ["sample", "--strategy", "sqrt", "--budget", "600", "--seed", "7",
                             "--corpus", str(tmp_path / "corpus.jsonl"),
                             "--labelspace", str(tmp_path / "space.json"), "-o", str(out)])
    assert result["rc"] == 0
    assert "numpy.random" in result["numpy"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["sqrt"]


def test_a_later_plain_numpy_import_returns_the_bound_module(tmp_path):
    code = ("import corpusforge.cli, corpusforge.rng\nimport numpy\n"
            "assert numpy is corpusforge.rng.np is corpusforge.sampling.np\n"
            "assert numpy.arange(3).sum() == 3\n")
    proc = _run(tmp_path, code)
    assert proc.returncode == 0, proc.stderr


def test_numpy_loaded_first_is_bound_as_is():
    import numpy

    from corpusforge import _lazy

    assert _lazy._lazy_import("numpy") is numpy is _lazy.np


def test_a_missing_module_raises_what_a_plain_import_would():
    from corpusforge import _lazy

    with pytest.raises(ModuleNotFoundError) as plain:
        import corpusforge_no_such_module  # noqa: F401
    with pytest.raises(ModuleNotFoundError) as lazy:
        _lazy._lazy_import("corpusforge_no_such_module")
    assert (lazy.value.name, str(lazy.value)) == (plain.value.name, str(plain.value))
    assert "corpusforge_no_such_module" not in sys.modules


def test_no_module_imports_numpy_directly():
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                importers.add(path.name)
    assert importers == set()
