"""Tests of the layer tracer and of the import-time attribution.

Run:  python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import pathlib
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from run import import_self_s  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


class Clock:
    """A clock the toy functions advance by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


TOY_OUTER = '''
def top():
    clock.t += 1
    inner.Box().mid()
    clock.t += 8

def helper():
    clock.t += 16
'''

TOY_INNER = '''
class Box:
    def mid(self):
        clock.t += 1
        leaf()
        outer_helper()
        clock.t += 2

def leaf():
    clock.t += 4
'''


def toy_modules(clock):
    outer = types.ModuleType("toy_outer")
    inner = types.ModuleType("toy_inner")
    outer.clock = inner.clock = clock
    outer.inner = inner
    exec(TOY_OUTER, vars(outer))
    exec(TOY_INNER, vars(inner))
    inner.outer_helper = outer.helper      # as `from .outer import helper`
    return outer, inner


def test_self_times_on_a_toy_call_chain():
    clock = Clock()
    outer, inner = toy_modules(clock)
    sys.modules.update(toy_outer=outer, toy_inner=inner)
    try:
        tracer = Tracer(clock).install(
            {"driver": ("toy_outer",), "qd": ("toy_inner",)})
        tracer.run(outer.top)
    finally:
        del sys.modules["toy_outer"], sys.modules["toy_inner"]
    summary = tracer.summary()
    assert summary["wall_s"] == 32
    # outer: 1 + 8 in top, 16 in helper; inner: 1 + 2 in mid, 4 in leaf,
    # which is called within its own layer and so opens no span
    assert summary["layers"]["driver"] == {"self_s": 25, "calls": 2}
    assert summary["layers"]["qd"] == {"self_s": 7, "calls": 1}
    assert summary["spans"]["driver.helper"] == {
        "calls": 1, "total_s": 16, "self_s": 16}
    assert summary["spans"]["qd.Box.mid"] == {
        "calls": 1, "total_s": 23, "self_s": 7}
    assert "qd.leaf" not in summary["spans"]


def test_aliases_are_rewrapped_and_restored():
    from quadop import catalog, cli, exactlin, graphs, operads, qd, suites

    original = operads.build_family
    tracer = Tracer().install()
    try:
        for alias in (suites.build_family, cli.build_family,
                      catalog.build_family):
            assert alias is operads.build_family
        assert suites.apply_functor is qd.apply_functor
        assert graphs.apply_functor is qd.apply_functor
        for mod in [sys.modules[m] for mods in LAYERS.values()
                    for m in mods if m in sys.modules]:
            for name, obj in vars(mod).items():
                if (callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", "").startswith("quadop")):
                    assert getattr(obj, "__traced__", False), (mod, name)
        assert exactlin.Subspace.contains.__traced__

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tracer.run(cli.main, ["verify", "diagram-faces", "--trials", "8"])
        assert code == 0
    finally:
        tracer.uninstall()
    assert operads.build_family is original and suites.build_family is original
    assert not hasattr(exactlin.Subspace.contains, "__traced__")

    summary = tracer.summary()
    accounted = sum(layer["self_s"] for layer in summary["layers"].values())
    assert abs(accounted - summary["wall_s"]) < 1e-9 * summary["wall_s"] + 1e-12
    counters = summary["counters"]
    assert counters["kernel.add.calls"] >= counters["kernel.add.rank_gains"] > 0
    assert counters["exactlin.subspace_builds"] > 0
    assert counters["qd.qd_builds"] > 0
    assert summary["layers"]["qd"]["calls"] > 0


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | json
import time:         7 |          7 |       fractions
import time:        20 |         27 |     quadop.kernel._echelon_py
import time:        30 |         57 |   quadop.kernel
import time:         5 |         62 | quadop
import time:        40 |         40 |     dataclasses
import time:        50 |         90 |   quadop.graded
import time:        60 |        150 | quadop.cli
"""


def test_import_time_goes_to_the_importing_layer():
    totals = import_self_s(IMPORTTIME)
    assert totals["kernel"] == pytest.approx((7 + 20 + 30) / 1e6)
    assert totals["graded"] == pytest.approx((40 + 50) / 1e6)
    assert totals["driver"] == pytest.approx((5 + 60) / 1e6)
    assert sum(totals.values()) == pytest.approx((62 + 150) / 1e6)
