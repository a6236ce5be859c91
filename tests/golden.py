"""The golden reports: CLI output that must not change without saying so.

Run from the repository root to rewrite ``tests/golden_reports.json``:

    PYTHONPATH=src python tests/golden.py

Each section holds parsed JSON output of the ``carter-lab`` command, with
every check's ``metrics.ms`` removed, since timings differ between runs.
``test_golden.py`` recomputes the sections and compares them with the file.
A change to the golden file is a change to a report, and says so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib

from carterlab.cli import main
from carterlab.linear.groupspec import realize
from carterlab.permgrp.io import group_to_json
from carterlab.verify import CARTER_CATALOG, REGISTRY

from conftest import CORPUS_SPECS

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_reports.json")

FLAGSHIP = "Ext(PSL(2,27), frob)"

# the Frobenius on both the point and the hyperplane block
HYPERPLANE_SPECS = ["Ext(PGammaL(3,4), graph)"]

TORUS_CASES = [("A1", "id"), ("A2", "id"), ("A2", "flip"), ("A3", "flip"),
               ("C2", "id"), ("B3", "id"), ("D4", "id"), ("D4", "flip"),
               ("D4", "triality"), ("G2", "id"), ("F4", "id")]

ROOTS_CASES = [("subsystems", t) for t in ("A3", "B3", "C3", "D4", "F4", "G2")] + \
              [("omega", t) for t in ("C4", "E6", "G2")]


def cli_text(*argv) -> str:
    """What ``carter-lab <argv>`` prints; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, (argv, code)
    return out.getvalue()


def cli_json(*argv):
    """The parsed JSON that ``carter-lab <argv> --format json`` prints."""
    return json.loads(cli_text(*argv, "--format", "json"))


def without_ms(reports: list) -> list:
    for report in reports:
        report["metrics"].pop("ms", None)
    return reports


def check_tier(tier: str) -> list:
    return without_ms(cli_json("check", "run", "all", "--tier", tier))


def catalog_specs() -> list:
    return list(dict.fromkeys(spec for spec, *_ in CARTER_CATALOG.values()))


def group_specs() -> list:
    specs = list(CORPUS_SPECS)
    for case in REGISTRY.list_cases():
        specs += case.group_specs
    return list(dict.fromkeys(specs + HYPERPLANE_SPECS))


def group_entry(spec: str) -> dict:
    info = cli_json("group", "info", spec)
    info["sha256"] = hashlib.sha256(
        group_to_json(realize(spec).group).encode()).hexdigest()
    return info


SECTIONS = {
    "check full": lambda: check_tier("full"),
    "carter": lambda: {spec: cli_json("carter", spec)
                       for spec in [FLAGSHIP, *catalog_specs()]},
    # the flagship's text is pinned in test_cli.py
    "carter text": lambda: {spec: cli_text("carter", spec).splitlines()
                            for spec in catalog_specs()},
    "group info": lambda: {spec: group_entry(spec) for spec in group_specs()},
    "torus": lambda: {f"{t} {twist}": cli_json("torus", t, "--twist", twist, "--q", "3")
                      for t, twist in TORUS_CASES},
    "roots": lambda: {f"{query} {t}": cli_json("roots", query, t)
                      for query, t in ROOTS_CASES},
    # case ids, tiers, descriptions and anchors
    "check list": lambda: {"text": cli_text("check", "list").splitlines(),
                           "json": cli_json("check", "list")},
}


if __name__ == "__main__":
    golden = {"check quick": check_tier("quick")}
    golden.update((name, section()) for name, section in SECTIONS.items())
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
