"""Command-line front end.

    carter-lab check run <id|all> [--tier quick|full] [--format json]
    carter-lab carter <group-spec> [--cap N]
    carter-lab roots subsystems <type>
    carter-lab roots omega <type>
    carter-lab torus <type> [--twist id|flip|triality] --q <n>
    carter-lab group info <group-spec>

Exit codes: 0 all pass, 1 at least one fail, 2 usage, parse or file
error, 3 a size cap exceeded, 4 a check case or a command crashed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapExceeded, InputError
from .linear.groupspec import realize
from .permgrp.carter import FULL_SEARCH_CAP, carter_subgroups
from .rootsys.roots import omega_fixed_roots, parse_type, root_system
from .rootsys.subsystems import borel_de_siebenthal
from .rootsys.weyl import (check_field_size, f_conjugacy_classes,
                           twist_by_name, weyl_group)
from .verify import REGISTRY, render_reports

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_CAP, EXIT_ERROR = 0, 1, 2, 3, 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carter-lab",
        description="desk-scale checks for Carter-subgroup criteria")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")

    check = sub.add_parser("check", help="run registered claim checks")
    check_sub = check.add_subparsers(dest="check_command", required=True)
    run = check_sub.add_parser("run", parents=[fmt], help="run one case or all")
    run.add_argument("case_id", help="a case id, or 'all'")
    run.add_argument("--tier", choices=("quick", "full"), default=None)
    lst = check_sub.add_parser("list", parents=[fmt], help="list registered cases")
    lst.add_argument("--tier", choices=("quick", "full"), default=None)

    carter = sub.add_parser("carter", parents=[fmt], help="full Carter-class search")
    carter.add_argument("group_spec")
    carter.add_argument("--cap", type=int, default=FULL_SEARCH_CAP,
                        help="full-search order cap")

    roots = sub.add_parser("roots", help="root-system queries")
    roots_sub = roots.add_subparsers(dest="roots_command", required=True)
    subsys = roots_sub.add_parser("subsystems", parents=[fmt])
    subsys.add_argument("type_label", metavar="type", help="e.g. G2, C2, E6")
    omega = roots_sub.add_parser("omega", parents=[fmt])
    omega.add_argument("type_label", metavar="type")

    torus = sub.add_parser("torus", parents=[fmt],
                           help="maximal-torus classes and orders")
    torus.add_argument("type_label", metavar="type")
    torus.add_argument("--twist", choices=("id", "flip", "triality"), default="id")
    torus.add_argument("--q", type=int, required=True)

    group = sub.add_parser("group", help="group realization queries")
    group_sub = group.add_subparsers(dest="group_command", required=True)
    info = group_sub.add_parser("info", parents=[fmt])
    info.add_argument("group_spec")
    return parser


def _cmd_check(args):
    if args.check_command == "list":
        cases = REGISTRY.list_cases(args.tier)
        return (EXIT_PASS,
                [{"id": c.id, "tier": c.tier, "description": c.description,
                  "anchor": c.anchor} for c in cases],
                [f"{c.id:36s} [{c.tier}] {c.description}" for c in cases])
    if args.case_id == "all":
        reports = REGISTRY.run_all(args.tier)
    else:
        reports = [REGISTRY.run_case(args.case_id)]
    statuses = {r.status for r in reports}
    code = (EXIT_ERROR if "error" in statuses
            else EXIT_FAIL if "fail" in statuses else EXIT_PASS)
    return code, [r.to_dict() for r in reports], [render_reports(reports)]


def _cmd_carter(args):
    if args.cap < 1:
        raise InputError("--cap must be at least 1")
    G = realize(args.group_spec).group
    classes = carter_subgroups(G, cap=args.cap)
    lines = [f"{args.group_spec}: order {G.order()}, "
             f"{classes.class_count} Carter class(es)"]
    for rep in classes.representatives:
        gens = ", ".join(str(g) for g in rep.generators) or "()"
        lines.append(f"  order {rep.order()}: <{gens}>")
    return EXIT_PASS, {
        "group": args.group_spec,
        "order": G.order(),
        "classes": classes.class_count,
        "representative_orders": [r.order() for r in classes.representatives],
    }, lines


def _cmd_roots(args):
    t, rank = parse_type(args.type_label)
    system = root_system(t, rank)
    if args.roots_command == "subsystems":
        subs = [{"label": s.label, "roots": len(s.roots),
                 "basis": [list(r) for r in s.basis]}
                for s in borel_de_siebenthal(system)]
        return EXIT_PASS, {"type": f"{t}{rank}", "subsystems": subs}, [
            f"{t}{rank}: {len(subs)} subsystem classes"] + [
            f"  {s['label']:12s} ({s['roots']} roots)  basis {s['basis']}"
            for s in subs]
    fixed = [list(r) for r in omega_fixed_roots(system)]
    return EXIT_PASS, {"type": f"{t}{rank}", "omega_fixed_roots": fixed}, [
        f"{t}{rank}: {len(fixed)} involution-fixed positive root(s)"] + [
        f"  {r}" for r in fixed]


def _cmd_torus(args):
    t, rank = parse_type(args.type_label)
    check_field_size(args.q)    # before the class walk, which may hit a cap
    system = root_system(t, rank)
    W = weyl_group(system)
    tau = twist_by_name(system, args.twist)
    classes = f_conjugacy_classes(W, tau)
    payload = {
        "type": f"{t}{rank}",
        "twist": args.twist,
        "q": args.q,
        "classes": [{"rep_word": list(c.rep_word), "size": c.size,
                     "order_poly": list(c.order_poly),
                     "order": c.order_at(args.q)} for c in classes],
    }
    lines = [f"{t}{rank} twist={args.twist} q={args.q}: "
             f"{len(classes)} torus classes (sizes sum to {W.order()})"]
    for c in payload["classes"]:
        word = "".join(f"s{i}" for i in c["rep_word"]) or "e"
        lines.append(f"  size {c['size']:5d}  |T| = {c['order']:8d}  "
                     f"poly {c['order_poly']}  rep {word}")
    return EXIT_PASS, payload, lines


def _cmd_group(args):
    rg = realize(args.group_spec)
    G = rg.group
    payload = {
        "spec": args.group_spec,
        "label": rg.label,
        "degree": G.degree,
        "order": G.order(),
        "generators": len(G.generators),
        "base": list(G.base),
        "orbit_lengths": [len(o) for o in G.natural_orbits()],
    }
    return EXIT_PASS, payload, [
        f"{rg.label}: degree {G.degree}, order {G.order()}, "
        f"{len(G.generators)} generators",
        f"  base {payload['base']}, orbit lengths {payload['orbit_lengths']}"]


# each command returns (exit code, JSON payload, text lines), and main
# prints the payload or the lines
_COMMANDS = {"check": _cmd_check, "carter": _cmd_carter, "roots": _cmd_roots,
             "torus": _cmd_torus, "group": _cmd_group}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code, payload, lines = _COMMANDS[args.command](args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:    # a crash is not a failing check
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(json.dumps(payload, indent=2) if args.format == "json"
          else "\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
