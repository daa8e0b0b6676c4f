"""Argument fuzzer for `inflate`, `verify-inflation`, `fcn`, `schedule` and
`eval clips`.

Each run draws every number from edge values (0, -1, 1.5, nan, +-inf, 2**64)
and valid ones, and every input from a valid 2D net with a dense head, its
inflated 3D net, bare 4-D, 5-D and 1-D `.wtsr` kernels, malformed JSON and a
missing path.  Every
run exits 0, 1 or 2.  Exit 1 is `verify-inflation` reporting FAIL on stdout;
any other non-zero exit prints exactly one stderr line and no traceback, and
no run prints a numpy RuntimeWarning (warnings are errors here).
``netops.MAX_ELEMENTS`` is lowered, so no accepted value allocates more than
a few hundred KiB.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusforge import netops
from corpusforge.inflate import inflate_net
from corpusforge.netops import Conv2dLayer, DenseLayer, GlobalAvgPoolLayer, NetSpec, ReluLayer, save_net
from corpusforge.tensor import save_weights

from test_probe_cli_fuzz import _run

_EDGES = ["0", "-1", "1.5", "nan", "inf", "-inf", str(2**64)]
# valid values of each option, drawn as often as edge values or the option left out
_VALID = {
    "--k": ["1", "3"], "--tol": ["0", "1e-5"], "--size": ["5", "8"], "--seed": ["0", "7"],
    "--total": ["20", "100"], "--base": ["0.1", "1"], "--warmup": ["0", "3"], "--reductions": ["0", "3"],
    "--factor": ["0.5", "0.9"], "--frames": ["20", "100"], "--clip-len": ["1", "8"], "--clips": ["1", "10"],
}
_NETS = ["net2d.json", "net3d.json"]
_INPUTS = [*_NETS, "conv4.wtsr", "conv5.wtsr", "vector.wtsr", "bad.json", "missing.json"]


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("misc")
    rng = np.random.default_rng(0)
    net2d = NetSpec([Conv2dLayer(rng.standard_normal((4, 3, 3, 3)), np.zeros(4)), ReluLayer(),
                     Conv2dLayer(rng.standard_normal((4, 4, 3, 3))), GlobalAvgPoolLayer(),
                     DenseLayer(rng.standard_normal((2, 4)), np.zeros(2))])
    save_net(net2d, root / "net2d.json")
    save_net(inflate_net(net2d, 3), root / "net3d.json")
    save_weights(rng.standard_normal((2, 3, 3, 3)), root / "conv4.wtsr")
    save_weights(rng.standard_normal((2, 3, 3, 3, 3)), root / "conv5.wtsr")
    save_weights(rng.standard_normal(5), root / "vector.wtsr")
    (root / "bad.json").write_text('{"format": "corpusforge-net-v1", "layers": [', encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def small_size_limit():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(netops, "MAX_ELEMENTS", 2**16)
        yield


def _options(required: list[str], optional: list[str] = ()) -> st.SearchStrategy[list[str]]:
    """Each option given a drawn number (``--k=-inf``: a bare "-inf" would read
    as an option); an optional one may be left out."""
    drawn = [
        st.one_of(*[st.none()] * (name in optional), st.sampled_from(_EDGES), st.sampled_from(_VALID[name]))
        .map(lambda v, name=name: [] if v is None else [f"{name}={v}"])
        for name in [*required, *optional]
    ]
    return st.tuples(*drawn).map(lambda parts: [arg for part in parts for arg in part])


# half the draws are a valid net
_input = st.sampled_from(_NETS) | st.sampled_from(_INPUTS)
_COMMANDS = st.one_of(
    st.tuples(st.just(["inflate"]), _input.map(lambda f: [f"--in={{root}}/{f}"]), _options(["--k"]),
              st.just(["-o", "{root}/out/inflated.json"])),
    st.tuples(st.just(["verify-inflation"]), _input.map(lambda f: [f"--net={{root}}/{f}"]),
              _options(["--k"], ["--tol", "--size", "--seed"])),
    st.tuples(st.just(["fcn"]), _input.map(lambda f: [f"--in={{root}}/{f}"]),
              st.just(["-o", "{root}/out/fcn.json"])),
    st.tuples(st.just(["schedule", "-o", "{root}/out/schedule.json"]),
              _options(["--total"], ["--base", "--warmup", "--reductions", "--factor"])),
    st.tuples(st.just(["eval", "clips"]), _options(["--frames", "--clip-len"], ["--clips"]),
              st.sampled_from([[], ["--placement=centers"], ["--placement=middle"]])),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=400, deadline=None)
@given(_COMMANDS)
@example(["inflate", "--in={root}/net2d.json", "--k=3", "-o", "{root}/out/inflated.json"])
@example(["inflate", "--in={root}/conv4.wtsr", "--k=1.5", "-o", "{root}/out/inflated.json"])
@example(["verify-inflation", "--net={root}/net2d.json", "--k=3", "--size=8"])
@example(["verify-inflation", "--net={root}/net2d.json", "--k=3", "--tol=0"])
@example(["verify-inflation", "--net={root}/net2d.json", "--k=3", f"--size={2**64}"])
@example(["fcn", "--in={root}/net3d.json", "-o", "{root}/out/fcn.json"])
@example(["fcn", "--in={root}/vector.wtsr", "-o", "{root}/out/fcn.json"])
@example(["schedule", "-o", "{root}/out/schedule.json", "--total=20", "--warmup=3", "--reductions=3"])
@example(["schedule", "-o", "{root}/out/schedule.json", f"--total={2**64}"])
@example(["eval", "clips", "--frames=20", "--clip-len=8", "--clips=3"])
@example(["eval", "clips", f"--frames={2**64}", "--clip-len=8"])
def test_misc_commands_exit_cleanly_on_any_drawn_arguments(root, small_size_limit, argv):
    (root / "out").mkdir(exist_ok=True)
    code, out, err = _run([arg.format(root=root) for arg in argv])
    assert code in (0, 1, 2)
    if code == 1:
        assert argv[0] == "verify-inflation" and out.startswith("FAIL: ") and err == ""
    elif code == 2:
        assert len(err.splitlines()) == 1 and "Traceback" not in err
    else:
        assert err == ""
