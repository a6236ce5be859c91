"""The benchmark's tracer wraps carterlab names by string; each must resolve.

``perfbench/tracer.py`` looks up its ``SPANS`` and ``COUNTS`` with
``getattr`` only when a ``--trace 1`` run starts, so a renamed or
deleted function would otherwise surface only there.
"""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = []
    for _, module, attr in tracer.SPANS + tracer.COUNTS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert tracer.SPANS and tracer.COUNTS
    assert not missing


def test_tracer_selftest_finds_no_problems(monkeypatch):
    """``perfbench/child.py selftest`` traces the Carter search of Sym(4):
    every binding the benchmark's trace runs rely on must be wrapped, give
    the untraced answer and be restored."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = importlib.import_module("child")
    assert child.selftest() == []
