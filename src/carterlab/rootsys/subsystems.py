"""Subsystem enumeration by iterated extended-diagram node removal.

Starting from the fundamental basis, each pass may either drop a node
or extend one irreducible component by its lowest root before dropping
a node of the extension.  Every root subsystem arises this way.
Subsystems are deduplicated by Weyl-orbit of their root sets (not by
type label, which cannot tell a long A1 from a short one).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..permgrp.search import orbit
from .roots import RootSystem, _dot, pairing, reflection_closure
from .weyl import WeylGroupRep


@dataclass(frozen=True)
class Subsystem:
    label: str                 # e.g. "A2+A1~" ("~" marks short-root components)
    basis: tuple               # simple roots of the subsystem
    roots: frozenset           # all roots of the subsystem
    components: tuple          # (component label, component basis) pairs


def _components(basis) -> list[list[tuple]]:
    basis = list(basis)
    remaining = set(range(len(basis)))
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        queue = [seed]
        remaining.discard(seed)
        while queue:
            i = queue.pop()
            for j in list(remaining):
                if _dot(basis[i], basis[j]) != 0:
                    comp.add(j)
                    remaining.discard(j)
                    queue.append(j)
        comps.append([basis[i] for i in sorted(comp)])
    return comps


def _subsystem_roots(system: RootSystem, basis) -> frozenset:
    roots = frozenset(reflection_closure(basis))
    assert roots <= set(system.roots)
    return roots


def _highest_in_component(comp_basis) -> tuple:
    coords = reflection_closure(comp_basis)
    return max(coords, key=lambda r: sum(coords[r]))


def classify_component(system: RootSystem, comp_basis) -> str:
    """Type label of an irreducible component, from bonds and lengths.

    Rank-2 double-bond components are reported as C2 (the B2 = C2
    coincidence).  A trailing "~" marks components made of short roots
    of a two-length parent system.
    """
    rank = len(comp_basis)
    norms = [_dot(a, a) for a in comp_basis]
    bonds = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            strength = pairing(comp_basis[i], comp_basis[j]) * \
                pairing(comp_basis[j], comp_basis[i])
            if strength:
                bonds[(i, j)] = strength
    label = _shape_label(rank, bonds, norms)
    parent_two_lengths = len(system.norms()) == 2
    if parent_two_lengths and max(norms) < max(system.norms()):
        label += "~"
    return label


def _shape_label(rank, bonds, norms) -> str:
    if rank == 1:
        return "A1"
    strengths = sorted(bonds.values())
    if 3 in strengths:
        return "G2"
    if 2 in strengths:
        if rank == 2:
            return "C2"
        long_count = sum(1 for n in norms if n == max(norms))
        if rank == 4 and long_count == 2:
            return "F4"
        return f"C{rank}" if long_count == 1 else f"B{rank}"
    # simply laced: tell path / D / E apart by node degrees
    degree = {i: 0 for i in range(rank)}
    for (i, j) in bonds:
        degree[i] += 1
        degree[j] += 1
    max_deg = max(degree.values())
    if max_deg <= 1 and rank == 2:
        return "A2" if bonds else "A1+A1"
    if max_deg == 2 or rank == 2:
        if len(bonds) == rank - 1 and max_deg <= 2:
            return f"A{rank}"
    if max_deg == 3:
        center = next(i for i, d in degree.items() if d == 3)
        # branch lengths from the degree-3 node
        adj = {i: [] for i in degree}
        for (i, j) in bonds:
            adj[i].append(j)
            adj[j].append(i)
        lengths = []
        for start in adj[center]:
            ln, prev, cur = 1, center, start
            while True:
                nxts = [k for k in adj[cur] if k != prev]
                if not nxts:
                    break
                prev, cur = cur, nxts[0]
                ln += 1
            lengths.append(ln)
        lengths.sort()
        if lengths[:2] == [1, 1]:
            return f"D{rank}"
        if lengths[0] == 1 and lengths[1] == 2:
            return f"E{rank}"
    return f"A{rank}"  # path graph


def subsystem_label(system: RootSystem, basis) -> str:
    comps = _components(basis)
    labels = sorted(classify_component(system, c) for c in comps)
    return "+".join(labels) if labels else "empty"


def _canonical_key(W: WeylGroupRep, root_ids: frozenset) -> tuple:
    """Least sorted index tuple over the Weyl orbit of the root set."""
    return min(orbit([tuple(sorted(root_ids))], W.simple_reflections,
                     lambda ids, s: tuple(sorted(s[i] for i in ids))))


def borel_de_siebenthal(system: RootSystem, W: WeylGroupRep | None = None) -> list[Subsystem]:
    """All nonempty root subsystems up to Weyl conjugacy."""
    if W is None:
        from .weyl import weyl_group
        W = weyl_group(system)
    index = system.index

    def key_of(basis):
        ids = frozenset(index[r] for r in _subsystem_roots(system, basis))
        return _canonical_key(W, ids)

    start = tuple(system.simples)
    seen_keys = {key_of(start): start}
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
        for cand in candidates:
            if not cand:
                continue
            k = key_of(cand)
            if k not in seen_keys:
                seen_keys[k] = cand
                queue.append(cand)

    out = []
    for key in sorted(seen_keys):
        basis = seen_keys[key]
        comps = _components(basis)
        out.append(Subsystem(
            label=subsystem_label(system, basis),
            basis=tuple(basis),
            roots=_subsystem_roots(system, basis),
            components=tuple((classify_component(system, c), tuple(c))
                             for c in comps),
        ))
    out.sort(key=lambda s: (len(s.roots), s.label))
    return out
