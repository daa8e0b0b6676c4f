"""Argument fuzzer for `probe train` and `probe eval`.

Every run exits 0, 1 or 2; a non-zero exit prints exactly one stderr line,
and no run prints a traceback or a numpy RuntimeWarning (warnings are
errors here, so one would escape ``main`` and fail the test).  ``--iters``
is at most 50, so no accepted run takes more than 51 gradients.  A finite
``--l2`` from 2**1023 up is rejected as such, not reported as a non-finite
loss.
"""
from __future__ import annotations

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge.cli import main
from corpusforge.probe import L2_LIMIT, ProbeMode, save_features

# 2**1023 and the float below it: the first l2 whose gradient term 2 * l2 overflows, and the last that does not
_NUMBERS = ["0", "-1", "1e-320", "1e308", "8.98846567431158e307", "8.988465674311579e307", "nan", "inf", "-inf"]
_ITERS = ["-1", "0", "1", "7", "50"]


def _write_inputs(root: Path) -> dict[str, Path]:
    """Tiny feature files of both modes, each also cut inside its features,
    and a multiclass file whose labels the trained models have no output for."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3)).astype(np.float32)
    labels = np.arange(8) % 3
    paths = {name: root / f"{name}.cfft" for name in ("softmax", "sigmoid", "unknown-class")}
    save_features(x, labels, ProbeMode.SOFTMAX_MULTICLASS, paths["softmax"])
    save_features(x, np.eye(3)[labels], ProbeMode.SIGMOID_MULTILABEL, paths["sigmoid"])
    save_features(x, labels + 5, ProbeMode.SOFTMAX_MULTICLASS, paths["unknown-class"])
    for mode in ("softmax", "sigmoid"):
        paths[f"{mode}-truncated"] = root / f"{mode}-truncated.cfft"
        paths[f"{mode}-truncated"].write_bytes(paths[mode].read_bytes()[:40])
    return paths


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_contract(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and "Traceback" not in err


_FILES = ["softmax", "sigmoid", "softmax-truncated", "sigmoid-truncated", "unknown-class"]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(list(ProbeMode)),
    st.sampled_from(_FILES),
    st.one_of(st.none(), st.sampled_from(_NUMBERS)),
    st.one_of(st.none(), st.sampled_from(_NUMBERS)),
    st.sampled_from(_ITERS),
    st.sampled_from(list(ProbeMode)),
    st.sampled_from(_FILES),
)
def test_probe_train_and_eval_exit_cleanly_on_any_drawn_arguments(
    train_mode, train_file, l2, step, iters, eval_mode, eval_file
):
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_inputs(Path(tmp))
        model = Path(tmp) / "p.npz"
        argv = ["probe", "train", "--features", str(paths[train_file]), "--mode", train_mode.value,
                f"--iters={iters}", "-o", str(model)]
        argv += [f"--l2={l2}"] if l2 is not None else []
        argv += [f"--step={step}"] if step is not None else []
        code, _out, err = _run(argv)
        _check_contract(code, err)
        assert model.exists() == (code == 0)
        if l2 is not None and L2_LIMIT <= float(l2) < math.inf:
            assert code == 2 and "non-finite loss" not in err
        code, out, err = _run(["probe", "eval", "--features", str(paths[eval_file]),
                               "--mode", eval_mode.value, "--model", str(model)])
        _check_contract(code, err)
        assert (out == "") == (code != 0)
