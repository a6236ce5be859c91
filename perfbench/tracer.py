"""Per-layer call counts and self times for carterlab, added from outside.

A ``Tracer`` wraps the public functions of each carterlab layer while
its ``with`` block is active and puts every original back on exit.  It
changes no source file.

Functions imported elsewhere with ``from ... import`` are bound a second
time in the importing module, so the tracer rebinds every attribute of
every loaded ``carterlab`` module that holds an original, not only the
defining one.  Methods are wrapped on their class.

A span records calls and self time (its duration minus the durations of
the spans it opens).  The ``Perm`` kernel and ``perm_of`` are counted
only: a timer on every call would swamp the hottest path.

Spans are kept on one stack, so the tracer expects the program to run
on a single thread, as the benchmark runs it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, defining module, attribute or Class.method)
SPANS = [
    ("permgrp.group.build", "carterlab.permgrp.group", "PermGroup._schreier_sims"),
    ("permgrp.group.contains", "carterlab.permgrp.group", "PermGroup.__contains__"),
    *[(f"permgrp.search.{fn}", "carterlab.permgrp.search", fn) for fn in (
        "subgroup_normalizer", "element_centralizer", "subgroup_centralizer",
        "element_centralizer_with_known_index", "are_conjugate_elements",
        "are_conjugate_subgroups", "conjugacy_classes")],
    ("permgrp.sylow.sylow_subgroup", "carterlab.permgrp.sylow", "sylow_subgroup"),
    ("permgrp.sylow.is_nilpotent", "carterlab.permgrp.sylow", "is_nilpotent"),
    *[(f"permgrp.carter.{fn}", "carterlab.permgrp.carter", fn) for fn in (
        "carter_subgroups", "is_carter_witness", "check_syl2_criterion")],
    ("permgrp.quotient.quotient_group", "carterlab.permgrp.quotient", "quotient_group"),
    *[(f"permgrp.bruteforce.{fn}", "carterlab.permgrp.bruteforce", fn) for fn in (
        "closure", "all_subgroups", "brute_carter_classes")],
    ("linear.realize", "carterlab.linear.groupspec", "realize"),
    ("rootsys.root_system", "carterlab.rootsys.roots", "root_system"),
    ("rootsys.weyl_group", "carterlab.rootsys.weyl", "weyl_group"),
    ("rootsys.e6_centralizer_scan", "carterlab.rootsys.e6scan", "e6_centralizer_scan"),
    ("rootsys.scan_order3_self_normalizers", "carterlab.rootsys.e6scan",
     "scan_order3_self_normalizers"),
    ("rootsys.f_conjugacy_classes", "carterlab.rootsys.weyl", "f_conjugacy_classes"),
    ("rootsys.borel_de_siebenthal", "carterlab.rootsys.subsystems", "borel_de_siebenthal"),
    ("rootsys.omega_fixed_roots", "carterlab.rootsys.roots", "omega_fixed_roots"),
    # every case of a tier runs through run_case_obj
    ("verify.run_case", "carterlab.verify.report", "run_case_obj"),
    ("cli.main", "carterlab.cli", "main"),
]

COUNTS = [
    ("permgrp.perm.conjugate", "carterlab.permgrp.perm", "Perm.conjugate"),
    ("permgrp.perm.mul", "carterlab.permgrp.perm", "Perm.__mul__"),
    ("permgrp.perm.inverse", "carterlab.permgrp.perm", "Perm.inverse"),
    ("linear.perm_of", "carterlab.linear.projective", "ProjectiveAction.perm_of"),
]

# spans whose useful outcomes are counted: (metric prefix, ratio name, test)
OUTCOMES = {
    "permgrp.search.are_conjugate_subgroups": ("hit_ratio", lambda r: r is not None),
    "permgrp.sylow.is_nilpotent": ("true_ratio", lambda r: r is True),
}


def carterlab_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "carterlab" and mod is not None]


class Tracer:
    """Context manager that traces carterlab while it is active."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.outcomes: Counter = Counter()
        self._stack: list[float] = []     # time covered by children, per open span
        self.bindings: list[tuple] = []   # (owner, attribute, original) now wrapped

    def __enter__(self) -> Tracer:
        for name, module, attr in SPANS:
            self._install(module, attr, functools.partial(self._span, name))
        for name, module, attr in COUNTS:
            self._install(module, attr, functools.partial(self._count, name))
        return self

    def __exit__(self, *exc_info):
        while self.bindings:
            owner, attr, original = self.bindings.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        """Every metric of every traced function, zero where never called."""
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            if name in OUTCOMES:
                ratio = OUTCOMES[name][0]
                calls = self.calls[name]
                out[f"{name}.{ratio}"] = self.outcomes[name] / calls if calls else 0.0
        for name, _, _ in COUNTS:
            out[f"{name}.calls"] = self.calls[name]
        return out

    def _install(self, module_name: str, attr: str, make_wrapper):
        module = importlib.import_module(module_name)
        owner, _, attr = attr.rpartition(".")
        owner = getattr(module, owner) if owner else module
        original = getattr(owner, attr)
        wrapper = functools.update_wrapper(make_wrapper(original), original)
        self._rebind(owner, attr, original, wrapper)
        for mod in carterlab_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper):
        setattr(owner, attr, wrapper)
        self.bindings.append((owner, attr, original))

    def _span(self, name: str, fn):
        calls, self_s, outcomes, stack = self.calls, self.self_s, self.outcomes, self._stack
        clock = time.perf_counter
        outcome = OUTCOMES.get(name, (None, None))[1]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if outcome is not None and outcome(result):
                outcomes[name] += 1
            return result
        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
