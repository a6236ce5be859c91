"""Subsystem enumeration by iterated extended-diagram node removal.

Starting from the fundamental basis, each pass may either drop a node
or extend one irreducible component by its lowest root before dropping
a node of the extension.  Every root subsystem arises this way.
Subsystems are deduplicated by Weyl-orbit of their root sets (not by
type label, which cannot tell a long A1 from a short one).  Each class's
orbit is walked once and remembered, so a candidate met before costs one
set lookup.  Component types are read from root counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..permgrp.group import orbit, orbits
from .roots import RootSystem, _dot, reflection_closure
from .weyl import weyl_group


@dataclass(frozen=True)
class Subsystem:
    label: str                 # e.g. "A2+A1~" ("~" marks short-root components)
    basis: tuple               # simple roots of the subsystem
    roots: frozenset           # all roots of the subsystem


def _components(basis) -> list[list[tuple]]:
    """The irreducible components, least index first, each in basis order:
    the orbits of the steps i -> j between roots that are not orthogonal."""
    basis = list(basis)
    indices = range(len(basis))

    def step(i, j):
        return j if _dot(basis[i], basis[j]) else i

    return [[basis[i] for i in sorted(comp)]
            for comp in orbits(indices, indices, step)]


def _subsystem_roots(system: RootSystem, basis) -> frozenset:
    roots = frozenset(reflection_closure(basis))
    assert roots <= set(system.roots)
    return roots


def _highest_in_component(comp_basis) -> tuple:
    coords = reflection_closure(comp_basis)
    return max(coords, key=lambda r: sum(coords[r]))


def classify_component(system: RootSystem, comp_basis) -> str:
    """Type label of an irreducible component, from its root counts.

    A3 = D3 is reported as A3 and B2 = C2 as C2.  A trailing "~" marks
    components whose longest root is shorter than the parent system's.
    """
    rank = len(comp_basis)
    norms = [_dot(r, r) for r in reflection_closure(comp_basis)]
    longest = max(norms)
    short = sum(n < longest for n in norms)
    if not short:
        kind = ("A" if len(norms) == rank * (rank + 1)
                else "D" if len(norms) == 2 * rank * (rank - 1) else "E")
    elif rank == 2 and len(norms) == 12:
        kind = "G"
    elif rank == 4 and 2 * short == len(norms):
        kind = "F"
    else:
        kind = "B" if rank > 2 and short == 2 * rank else "C"
    label = f"{kind}{rank}"
    if longest < max(system.norms()):
        label += "~"
    return label


def subsystem_label(system: RootSystem, basis) -> str:
    comps = _components(basis)
    labels = sorted(classify_component(system, c) for c in comps)
    return "+".join(labels) if labels else "empty"


def borel_de_siebenthal(system: RootSystem) -> list[Subsystem]:
    """All nonempty root subsystems up to Weyl conjugacy.

    Root-id sets are sorted index bytes (|Phi| <= 240), which compare
    like index tuples; each class is keyed by the least set in its orbit.
    """
    reflections = weyl_group(system).simple_reflections
    index = system.index
    seen = set()        # every root-id set met, with its whole Weyl orbit
    classes = {}        # least orbit member -> first basis found

    def is_new(basis) -> bool:
        ids = bytes(sorted(index[r] for r in _subsystem_roots(system, basis)))
        if ids in seen:
            return False
        found = orbit([ids], reflections,
                      lambda ids, s: bytes(sorted(s[i] for i in ids)))
        seen.update(found)
        classes[min(found)] = basis
        return True

    start = tuple(system.simples)
    is_new(start)
    queue = [start]
    while queue:
        basis = queue.pop()
        candidates = []
        for x in basis:  # plain node removal
            candidates.append(tuple(r for r in basis if r != x))
        for comp in _components(basis):  # extended-diagram removal
            low = tuple(-a for a in _highest_in_component(comp))
            rest = tuple(r for r in basis if r not in comp)
            extended = tuple(comp) + (low,)
            for x in comp:
                candidates.append(rest + tuple(r for r in extended if r != x))
        queue.extend(cand for cand in candidates if cand and is_new(cand))

    out = []
    for key in sorted(classes):
        basis = classes[key]
        out.append(Subsystem(
            label=subsystem_label(system, basis),
            basis=tuple(basis),
            roots=_subsystem_roots(system, basis),
        ))
    out.sort(key=lambda s: (len(s.roots), s.label))
    return out
