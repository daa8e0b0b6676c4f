"""The package's one numpy binding, executed on first use.

``from ._lazy import np`` binds the module ``numpy`` without running its
import; numpy executes on the first attribute access of ``np``, and a later
``import numpy`` anywhere returns that same module.  Commands that
compute nothing with numpy (``labelspace build``, ``corpus stats``,
``manifest validate``, ``schedule``, ``eval clips``) then never pay for it.

Every module keeps its imports at module level, so ``import corpusforge.cli``
still loads the whole package: the benchmark tracer (``perfbench/tracer.py``)
wraps the functions of the modules that this import has loaded, and would miss
a module imported inside a handler.

Rule for the whole package: no module touches ``np`` at import time.  That
means no module-level ``np.`` constant, no ``np`` default argument, no
``from numpy.x import ...`` and no direct ``import numpy``; the import system
reads the module's ``__spec__``, and that executes numpy.
"""
from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def _lazy_import(name: str) -> ModuleType:
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")
