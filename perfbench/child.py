"""One cold run of one benchmark workload, in the interpreter running this file.

    python3 perfbench/child.py <workload> <seed> <full|setup> <trace 0|1> <spawned_at>
    python3 perfbench/child.py selftest

``spawned_at`` is the parent's ``time.monotonic()`` taken just before it
started this interpreter.  The monotonic clock is shared by every process
on the machine, so set-up time includes interpreter start and imports.
A ``setup`` run stops once the inputs are ready.  The last line of
standard output is one JSON object with the run's figures.  Times are
reported in reference seconds (see ``SpeedProbe``); ``wall_raw_s`` is
the wall time as the clock read it.

Every verdict is checked against answers fixed here, not read back from
the program.  An exception in a workload fails all of that run's
verdicts; it does not stop the benchmark.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

# Program functions are called through their modules, so that the
# tracer's rebinding reaches these calls too.
from carterlab import cli, linear, permgrp, rootsys  # noqa: E402
from carterlab.permgrp import Perm, PermGroup, bruteforce  # noqa: E402

from verdicts import VERDICTS  # noqa: E402
from tracer import Tracer, carterlab_modules  # noqa: E402

# the registered quick-tier skips; every other quick case must pass
QUICK_SKIPS = {"syl2-fieldaut-psl2-8", "carter-semilinear-2g2"}

# Carter representative orders, as frozen in CARTER_CATALOG
ORACLE_GROUPS = [("Alt(5)", []), ("GL(2,3)", [16]), ("PSU(3,2)", [8])]


# The box's cores are shared: the same code runs up to twice as slowly for
# stretches of seconds to minutes.  A timer signal times a fixed slice of
# pure-Python permutation work every PROBE_INTERVAL_S on the measured
# interpreter's own core, and reported times are rescaled to a slice time
# of PROBE_REF_S.  The unit is fixed work, not the clock: on the 2-core
# x86-64 box the baseline was recorded on, rescaled times read 0.3 to 0.7
# of the clock, depending on how loaded the host was.
PROBE_INTERVAL_S = 0.1
PROBE_REF_S = 0.0007
_PROBE_PERM = tuple((11 * i + 5) % 28 for i in range(28))


def probe_slice() -> float:
    """Seconds taken by a fixed slice of permutation products.

    The collector is paused, so that the slice never pays for collecting
    the measured program's objects.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        q, seen = _PROBE_PERM, set()
        for _ in range(550):
            q = tuple(map(_PROBE_PERM.__getitem__, q))
            seen.add(q)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Samples machine speed while active; ``scale`` maps seconds to reference seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.overhead_s = 0.0           # time spent in the probe itself

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._sample()
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def _sample(self, *_):
        start = time.perf_counter()
        self.samples.append(probe_slice())
        self.overhead_s += time.perf_counter() - start

    def scale(self) -> float:
        return reference_scale(self.samples)


def reference_scale(samples: list[float]) -> float:
    """PROBE_REF_S over the probe's mean time, ignoring the top and bottom tenth.

    Trimming drops samples that caught a preemption of the probe itself.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return PROBE_REF_S / statistics.fmean(ordered[cut:len(ordered) - cut])


def peak_rss_mb() -> float:
    """Peak resident memory of this interpreter, in MiB.

    Linux carries a parent's peak across fork and exec into the child's
    ``ru_maxrss``, so a child that peaks below the benchmark's parent
    would report the parent's figure.  ``VmHWM`` counts this process
    image alone.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def relabel(G: PermGroup, sigma: list[int]) -> PermGroup:
    """G with each domain point i renamed sigma[i].

    Being a Carter subgroup is invariant under conjugation in Sym(n), so
    a verdict does not depend on the renaming.
    """
    gens = []
    for g in G.generators:
        images = [0] * G.degree
        for i, gi in enumerate(g):
            images[sigma[i]] = sigma[gi]
        gens.append(Perm(images))
    return PermGroup(gens, G.degree)


def setup_carter_search(seed: int):
    # The search runs on the group as the CLI realizes it: a relabelled copy
    # moves the search's work by up to 40 %.  The seed relabels the input
    # of the witness replay, which is a small part of the run.
    G = linear.realize("Ext(PSL(2,27), frob)").group
    sigma = list(range(G.degree))
    random.Random(seed).shuffle(sigma)
    return G, sigma, relabel(G, sigma)


def run_carter_search(inputs, notes) -> list[bool]:
    G, sigma, G_relabelled = inputs
    reps = permgrp.carter_subgroups(G).representatives
    found = [K.order() for K in reps] == [81]
    return [found, found and permgrp.is_carter_witness(G_relabelled, relabel(reps[0], sigma))]


def setup_weyl_scan(seed: int):
    rootsys.weyl_group(rootsys.root_system("E", 6))


def run_weyl_scan(_, notes) -> list[bool]:
    results = rootsys.e6_centralizer_scan()
    return [len(results) == 25
            and sum(r.class_size for r in results) == 51840
            and all(r.passed for r in results)]


def setup_quick_tier(seed: int):
    # The CLI's --seed steers the Sylow ascent and moves the tier's work by
    # about 15 %, more than a run-to-run bound allows, so it stays at its default.
    return ["check", "run", "all", "--tier", "quick", "--format", "json"]


def run_quick_tier(argv, notes) -> list[bool]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    reports = json.loads(out.getvalue())
    notes["case_ms_sum"] = sum(r["metrics"].get("ms", 0.0) for r in reports) / 1000
    ok = [r["status"] == "pass" or (r["status"] == "skip" and r["id"] in QUICK_SKIPS)
          for r in reports]
    ok += [False] * (VERDICTS["quick-tier"] - len(ok))
    if code != (cli.EXIT_PASS if all(ok) else cli.EXIT_FAIL):
        return [False] * len(ok)
    return ok


def setup_oracle_lattice(seed: int):
    # Relabelling the points moves the oracle's work by about 15 %, so the
    # groups keep the labels the CLI gives them.
    return [linear.realize(spec).group for spec, _ in ORACLE_GROUPS]


def run_oracle_lattice(groups, notes) -> list[bool]:
    return [sorted(K.order() for K in bruteforce.brute_carter_classes(G)) == orders
            for G, (_, orders) in zip(groups, ORACLE_GROUPS)]


# name -> (set-up returning the inputs, timed run returning one bool per verdict)
WORKLOADS = {
    "carter-search": (setup_carter_search, run_carter_search),
    "weyl-scan": (setup_weyl_scan, run_weyl_scan),
    "quick-tier": (setup_quick_tier, run_quick_tier),
    "oracle-lattice": (setup_oracle_lattice, run_oracle_lattice),
}


def cold_run(workload: str, seed: int, full: bool, trace: bool,
             spawned_at: float) -> dict:
    setup, run = WORKLOADS[workload]
    verdicts = VERDICTS[workload]
    tracer = Tracer()
    result = {"verdicts": verdicts if full else 0, "ok": 0,
              "wall_s": 0.0, "cpu_s": 0.0}
    try:
        with tracer if trace else contextlib.nullcontext():
            inputs = setup(seed)
            setup_s = time.monotonic() - spawned_at
            result["setup_s"] = setup_s * reference_scale([probe_slice() for _ in range(40)])
            if full:
                probe = SpeedProbe()
                wall, cpu = time.perf_counter(), time.process_time()
                try:
                    with probe:
                        ok = run(inputs, result)
                finally:
                    wall = time.perf_counter() - wall - probe.overhead_s
                    cpu = time.process_time() - cpu - probe.overhead_s
                    result["wall_raw_s"] = wall
                    result["wall_s"] = wall * probe.scale()
                    result["cpu_s"] = cpu * probe.scale()
                result["ok"] = sum(ok)
                if len(ok) != verdicts:
                    raise AssertionError(f"{len(ok)} verdicts, expected {verdicts}")
    except Exception:  # a crash is a failed verdict, not a stopped benchmark
        traceback.print_exc(file=sys.stderr)
        result.setdefault("setup_s", time.monotonic() - spawned_at)
        result["ok"] = 0
    result["peak_rss_mb"] = peak_rss_mb()
    if trace:
        result["metrics"] = tracer.metrics()
    return result


def selftest() -> list[str]:
    """Problems found when tracing the Carter search of Sym(4); empty if none."""
    from carterlab.permgrp import carter, search, sylow
    from carterlab.rootsys import e6scan
    from carterlab.verify import registry

    G = PermGroup.symmetric(4)

    def answer():
        return [(K.order(), sorted(K.generators))
                for K in permgrp.carter_subgroups(G).representatives]

    problems = []
    untraced = answer()
    with Tracer() as tracer:
        bindings = list(tracer.bindings)
        originals = {id(original) for _, _, original in bindings}
        for module in carterlab_modules():
            problems += [f"{module.__name__}.{key} not wrapped"
                         for key, value in vars(module).items() if id(value) in originals]
        wrapped = {(id(owner), attr) for owner, attr, _ in bindings}
        for module, attr in [(carter, "subgroup_normalizer"), (sylow, "subgroup_normalizer"),
                             (registry, "subgroup_normalizer"),
                             (e6scan, "conjugacy_classes"), (Perm, "conjugate")]:
            if (id(module), attr) not in wrapped:
                problems.append(f"{attr} bound in {module.__name__} not wrapped")
        traced = answer()
    if traced != untraced:
        problems.append(f"traced answer {traced} != untraced {untraced}")
    calls = tracer.metrics()["permgrp.search.subgroup_normalizer.calls"]
    if not calls > 0:
        problems.append(f"subgroup_normalizer.calls = {calls}")
    problems += [f"{getattr(owner, '__name__', owner)}.{attr} not restored"
                 for owner, attr, original in bindings if getattr(owner, attr) is not original]
    return problems


def main(argv: list[str]) -> int:
    if argv == ["selftest"]:
        problems = selftest()
        print(json.dumps({"problems": problems}))
        return 1 if problems else 0
    workload, seed, mode, trace, spawned_at = argv
    print(json.dumps(cold_run(workload, int(seed), mode == "full", trace == "1",
                              float(spawned_at))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
