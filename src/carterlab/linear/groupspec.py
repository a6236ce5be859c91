"""The group-spec mini-language.

Grammar (case-sensitive names, whitespace ignored):

    Sym(n) | Alt(n)
    SL(n,q) | GL(n,q) | Sp(n,q) | SU(3,q) | GU(3,q)      -- on nonzero vectors
    PSL(n,q) | PGL(n,q) | PSp(n,q) | PSU(3,q)            -- on projective points
    PGammaL(n,q)                                          -- PGL extended by Frobenius
    Ext(<spec>, frob[^j])                                 -- extend by a Frobenius power
    Ext(<spec>, graph)                                    -- extend by the duality
    W(<type><rank>)                                       -- Weyl group on roots, e.g. W(E6)
    File(<path>)                                          -- JSON generator file

``Ext(..., graph)`` realizes the inner group on points plus hyperplanes,
so its matrix group must act on projective points.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from ..errors import CapExceeded, InputError
from ..permgrp import io as permio
from ..permgrp.group import PermGroup
from ..rootsys.roots import parse_type, root_system
from ..rootsys.weyl import weyl_group
from .classical import ClassicalGroupSpec
from .projective import (ProjectiveAction, extend_by_autos, frobenius_perm,
                         graph_auto_perm)


@dataclass
class RealizedGroup:
    label: str
    group: PermGroup
    action: ProjectiveAction | None = None   # set for matrix realizations
    inner: PermGroup | None = None           # the unextended group, for Ext/PGammaL


_CALL_RE = re.compile(r"^\s*([A-Za-z]+)\s*\((.*)\)\s*$", re.S)


def _split_args(body: str) -> list[str]:
    args, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError("unbalanced parentheses in group spec")
        if ch == "," and depth == 0:
            args.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or args:
        args.append("".join(cur))
    if depth != 0:
        raise InputError("unbalanced parentheses in group spec")
    return [a.strip() for a in args]


def _int_arg(text: str, production: str) -> int:
    if not re.fullmatch(r"\d+", text):
        raise InputError(f"expected an integer in {production}, got {text!r}")
    try:
        return int(text)
    except ValueError:      # more digits than int() converts
        raise InputError(f"integer in {production} has {len(text)} digits") from None


def realize(spec_text: str, need_hyperplanes: bool = False) -> RealizedGroup:
    """Parse and build a group spec; raises InputError on bad syntax."""
    m = _CALL_RE.match(spec_text)
    if not m:
        raise InputError(
            f"group spec must look like Name(args): {spec_text!r}")
    name, body = m.group(1), m.group(2)
    args = _split_args(body)

    if name in ("Sym", "Alt"):
        n = _int_arg(_only(args, name), name)
        if n > permio.DEGREE_CAP:   # checked before any permutation is built
            raise CapExceeded(f"degree {n} exceeds {permio.DEGREE_CAP}")
        G = PermGroup.symmetric(n) if name == "Sym" else PermGroup.alternating(n)
        return RealizedGroup(f"{name}({n})", G)

    if name in ("SL", "GL", "Sp", "SU", "GU", "PSL", "PGL", "PSp", "PSU", "PGU"):
        if len(args) != 2:
            raise InputError(f"{name}(n,q) takes two arguments")
        n, q = _int_arg(args[0], name), _int_arg(args[1], name)
        projective = name.startswith("P")
        family = name[1:] if projective else name
        try:
            cspec = ClassicalGroupSpec(family, n, q)
            action = ProjectiveAction(cspec, include_hyperplanes=need_hyperplanes,
                                      linear=not projective)
            if need_hyperplanes:
                # only a graph automorphism asks for them: fail before the chain
                graph_auto_perm(action)
        except ValueError as exc:
            raise InputError(f"{name}({n},{q}): {exc}") from exc
        return RealizedGroup(f"{name}({n},{q})", action.group(), action=action)

    if name == "PGammaL":
        if len(args) != 2:
            raise InputError("PGammaL(n,q) takes two arguments")
        n, q = _int_arg(args[0], name), _int_arg(args[1], name)
        return replace(
            realize(f"Ext(PGL({n},{q}), frob)", need_hyperplanes=need_hyperplanes),
            label=f"PGammaL({n},{q})")

    if name == "Ext":
        if len(args) != 2:
            raise InputError("Ext(<spec>, frob[^j] | graph) takes two arguments")
        mode = args[1].strip()
        graph = mode == "graph"
        if not graph:       # checked first: a bad mode costs no inner group
            fm = re.fullmatch(r"frob(?:\^(\d+))?", mode)
            if not fm:
                raise InputError(f"unknown Ext automorphism {mode!r}")
            j = _int_arg(fm.group(1) or "1", "Ext")
        try:
            inner = realize(args[0], need_hyperplanes=need_hyperplanes or graph)
        except RecursionError:
            raise InputError("Ext(...) is nested too deeply") from None
        if inner.action is None:
            raise InputError("Ext requires a matrix-realized inner group")
        if graph:
            auto = graph_auto_perm(inner.action)
        else:
            auto = frobenius_perm(inner.action) ** j
        G = extend_by_autos(inner.group, [auto])
        return RealizedGroup(f"Ext({inner.label}, {mode})", G,
                             action=inner.action, inner=inner.group)

    if name == "W":
        try:
            t, rank = parse_type(_only(args, "W"))
            Phi = root_system(t, rank)
        except ValueError as exc:
            raise InputError(f"W(<type><rank>): {exc}") from exc
        return RealizedGroup(f"W({t}{rank})", weyl_group(Phi).perm_group)

    if name == "File":
        path = _only(args, "File").strip()
        return RealizedGroup(f"File({path})", permio.load_group(path))

    raise InputError(f"unknown group constructor {name!r}")


def _only(args: list[str], production: str) -> str:
    if len(args) != 1:
        raise InputError(f"{production}(...) takes one argument")
    return args[0]


def realize_group(spec_text: str) -> PermGroup:
    return realize(spec_text).group
