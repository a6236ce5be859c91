"""carter-lab benchmark: cold-process runs of four workloads.

    python3 perfbench/run.py --workload carter-search --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each measurement is a fresh
interpreter (``child.py``), because a command-line user pays cold caches
on every call.  Children run one at a time from this single process.

With ``--trace 0`` the run repeats the workload (at least twice) until
``--seconds`` have passed, adds set-up-only runs, and reports medians, but
the least peak memory.  With ``--trace 1`` it runs the tracer self-test,
one untraced and two traced runs, and reports the per-layer metrics of
the first traced run; call counts that differ between the two traced runs are
listed on standard error and counted in ``harness.count_mismatches``.

The last line of standard output is the result object; the line before
it records the environment.  See README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from verdicts import VERDICTS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
MIN_RUNS = 2            # full children per untraced run, at least
SETUP_RUNS = 8          # set-up-only children per untraced run
RUN_LIMIT_S = 170.0     # a whole run ends within 180 s


def child_env() -> dict:
    """The caller's environment, minus the program's thread setting.

    ``quick-tier`` must measure the program's default parallelism.
    """
    env = dict(os.environ)
    env.pop("CARTERLAB_THREADS", None)
    return env


def spawn(args, mode: str, trace: bool, deadline: float) -> dict:
    """One child run; a crash or timeout fails every verdict of the run."""
    started = time.monotonic()
    cmd = [sys.executable, str(CHILD), args.workload, str(args.seed), mode,
           "1" if trace else "0", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - started))
        sys.stderr.write(proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        elapsed = time.monotonic() - started
        print(f"child failed: {exc!r}", file=sys.stderr)
        result = {"verdicts": VERDICTS[args.workload] if mode == "full" else 0,
                  "ok": 0, "setup_s": elapsed, "wall_s": elapsed, "wall_raw_s": elapsed,
                  "cpu_s": elapsed, "peak_rss_mb": 0.0}
    result["child_s"] = time.monotonic() - started
    return result


def measure(args, deadline: float) -> tuple[list, dict]:
    start = time.monotonic()
    runs = []
    while True:
        runs.append(spawn(args, "full", False, deadline))
        now = time.monotonic()
        if (len(runs) >= MIN_RUNS and now - start >= args.seconds) or now > deadline:
            break
    setups = [spawn(args, "setup", False, deadline) for _ in range(SETUP_RUNS)
              if time.monotonic() < deadline]
    print(json.dumps({"wall_raw_s": [r.get("wall_raw_s") for r in runs]}), file=sys.stderr)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in runs + setups), "s"),
        # now and then a child peaks 5-45 MB higher on the same input;
        # a child that crashed reports no peak
        "peak_rss_mb": (min((r["peak_rss_mb"] for r in runs if r["peak_rss_mb"]),
                            default=0.0), "MB"),
    }
    return runs + setups, metrics


def trace(args, deadline: float) -> tuple[list, dict]:
    test = subprocess.run([sys.executable, str(CHILD), "selftest"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=60)
    if test.returncode != 0:
        sys.stderr.write(test.stdout + test.stderr)
        raise SystemExit("tracer self-test failed")
    plain = spawn(args, "full", False, deadline)
    first, second = (spawn(args, "full", True, deadline) for _ in range(2))
    layers = first.get("metrics", {})
    again = second.get("metrics", {})
    mismatches = [k for k in layers if k.endswith(".calls") and layers[k] != again.get(k)]
    for k in mismatches:
        print(f"count differs between traced runs: {k} {layers[k]} != {again.get(k)}",
              file=sys.stderr)
    metrics = {k: (v, "s" if k.endswith("_s") else "count" if k.endswith(".calls")
                   else "ratio") for k, v in layers.items()}
    # both sides as measured: the program's per-case ms are not rescaled
    raw_wall = first.get("wall_raw_s", 0.0)
    metrics["verify.case_ms_sum_over_wall"] = (first.get("case_ms_sum", 0.0) / raw_wall
                                               if raw_wall else 0.0, "ratio")
    metrics["harness.trace_overhead_ratio"] = (first["wall_s"] / plain["wall_s"]
                                               if plain["wall_s"] else 0.0, "ratio")
    metrics["harness.count_mismatches"] = (len(mismatches), "count")
    return [plain, first, second], metrics


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest() -> str:
    """SHA-256 over the program's sources: names the code measured where
    no git commit is at hand."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=VERDICTS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "carterlab" / "__init__.py").is_file():
        print(f"no carterlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # users run byte-compiled modules; compile once here, not in a timed child
    compileall.compile_dir(ROOT / "src", quiet=1)
    runs, metrics = (trace if args.trace else measure)(args, deadline)
    attempted = sum(r["verdicts"] for r in runs)
    failed = attempted - sum(r["ok"] for r in runs)
    if not args.trace:
        metrics["ops_ok_ratio"] = ((attempted - failed) / attempted, "ratio")
    print(json.dumps({"env": {
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "commit": commit(),
        "src_sha256": source_digest(), "seed": args.seed,
        "workload": args.workload, "children": len(runs)}}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
