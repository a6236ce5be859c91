"""Subsystem enumeration by iterated extended-diagram node removal.

Starting from the fundamental basis, each pass may either drop a node
or extend one irreducible component by its lowest root before dropping
a node of the extension.  Every root subsystem arises this way.

Subsystems are deduplicated by Weyl orbit of their root sets (not by
type label, which cannot tell a long A1 from a short one).  A root set
is a set of root ids, positions in ``system.roots`` (|Phi| <= 240, so
an id is a byte).  A candidate's set is the closure of its basis ids
under their reflections, read from the Weyl group's table of root
reflections.  Each class's orbit is walked once: the walk moves a
|Phi|-byte 0/1 mask by each simple reflection in one ``bytes.maketrans``
call, and ``seen`` remembers every set met as its sorted ids in bytes,
so a candidate met before costs one set lookup.  Coordinates only build
candidates (a component's lowest root comes from its coordinate
closure) and name the kept classes: component types are read from root
counts and norms, and a class's roots from its ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

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


def _highest_in_component(comp_basis) -> tuple:
    coords = reflection_closure(comp_basis)
    return max(coords, key=lambda r: sum(coords[r]))


def classify_component(system: RootSystem, comp_basis) -> str:
    """Type label of an irreducible component, from its root counts.

    A3 = D3 is reported as A3 and B2 = C2 as C2.  A trailing "~" marks
    components whose longest root is shorter than the parent system's.
    """
    rank = len(comp_basis)
    roots = system.roots
    ids = weyl_group(system).root_closure([system.index[r] for r in comp_basis])
    norms = [_dot(roots[i], roots[i]) for i in ids]
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
    # every root is Weyl-conjugate to a fundamental one
    if longest < max(_dot(r, r) for r in system.simples):
        label += "~"
    return label


def subsystem_label(system: RootSystem, basis) -> str:
    comps = _components(basis)
    labels = sorted(classify_component(system, c) for c in comps)
    return "+".join(labels) if labels else "empty"


def borel_de_siebenthal(system: RootSystem) -> list[Subsystem]:
    """All nonempty root subsystems up to Weyl conjugacy.

    Root sets are sets of root ids.  ``seen`` holds every set met, with
    its whole Weyl orbit, as sorted id bytes (|Phi| <= 240), which
    compare like id tuples; each class is keyed by the least set in its
    orbit.  The orbit walk itself moves 0/1 masks, one byte per root, and
    only the sorted ids of each mask are kept.
    """
    W = weyl_group(system)
    index = system.index
    n = len(system.roots)
    seen = set()        # sorted id bytes of every set met, whole orbits
    classes = {}        # least orbit member -> (first basis found, its ids)

    def is_new(basis) -> bool:
        ids = W.root_closure([index[r] for r in basis])
        if bytes(sorted(ids)) in seen:
            return False
        mask = bytearray(n)
        for i in ids:
            mask[i] = 1
        # maketrans(s, mask) puts mask[i] at s[i]: the set moved by s
        masks = orbit([bytes(mask)], W.simple_reflections,
                      lambda m, s: bytes.maketrans(s, m)[:n])
        found = [bytes(compress(range(n), m)) for m in masks]
        del masks       # |Phi| bytes each; only the sorted ids are kept
        seen.update(found)
        classes[min(found)] = basis, ids
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
        basis, ids = classes[key]
        out.append(Subsystem(
            label=subsystem_label(system, basis),
            basis=tuple(basis),
            roots=frozenset(system.roots[i] for i in ids),
        ))
    out.sort(key=lambda s: (len(s.roots), s.label))
    return out
