"""The benchmark's tracer hooks functions by name; each name must still exist.

``perfbench/tracer.py`` wraps the public functions of the modules that
``import corpusforge.cli`` loads and keys its counters on their names.  A hook
whose function was deleted, renamed or is imported lazily never fires, and the
traced benchmark run then fails on the counter it never recorded.
"""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import corpusforge

ROOT = Path(__file__).resolve().parents[1]

# hooked by the tracer, but deleted from the package (the tracer keeps the hook)
_GONE = {"records.label_videos"}

_RESOLVE = """
import json, sys
import corpusforge.cli
unresolved = []
for name in json.loads(sys.argv[1]):
    module, *attrs = name.split(".")
    obj = sys.modules.get("corpusforge." + module)
    for attr in attrs:
        obj = getattr(obj, attr, None)
    if not (callable(obj) and getattr(obj, "__module__", None) == "corpusforge." + module):
        unresolved.append(name)
print(json.dumps(unresolved))
"""


def _tracer_hooks() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


def test_every_tracer_hook_names_a_function_the_cli_import_loads():
    names = sorted(set(_tracer_hooks()) - _GONE)
    assert "netops.conv2d_forward" in names and "netops.conv3d_forward" in names
    src = str(Path(corpusforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _RESOLVE, json.dumps(names)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
