"""Root systems of types A-G in standard integer coordinates.

Every system is generated by reflection closure from its fundamental
roots, never written out by hand.  Realizations follow the usual
orthonormal models (A_n in the sum-zero hyperplane of R^{n+1}; B/C/D in
R^n; E/F in R^8 / R^4 scaled by 2 so half-integer coordinates become
integers; G2 in R^3).  Scaling leaves every Cartan pairing unchanged.

The pairing <s, r> = 2(s,r)/(r,r) pairs s against the coroot of r; the
torus/reflection formulas use it with care about argument order, since
conjugating the root element of r by h_s(-1) scales its coordinate by
(-1)^<r, s>.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from ..errors import InputError
from ..permgrp.group import orbit

SUPPORTED = {
    "A": range(1, 8),
    "B": range(2, 8),
    "C": range(2, 8),
    "D": range(3, 8),
    "E": range(6, 9),
    "F": range(4, 5),
    "G": range(2, 3),
}


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _sub(u, v) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def _scale(c, v) -> tuple:
    return tuple(c * a for a in v)


def _simple_roots(type_label: str, rank: int) -> list[tuple]:
    t = type_label
    if t == "A":
        dim = rank + 1
        return [tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(dim))
                for i in range(rank)]
    if t in ("B", "C", "D"):
        def e(i, c=1):
            return tuple(c if j == i else 0 for j in range(rank))
        chain = [tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(rank))
                 for i in range(rank - 1)]
        if t == "B":
            return chain + [e(rank - 1)]
        if t == "C":
            return chain + [e(rank - 1, 2)]
        last = tuple(1 if j in (rank - 2, rank - 1) else 0 for j in range(rank))
        return chain + [last]
    if t == "E":
        e8 = [
            (1, -1, -1, -1, -1, -1, -1, 1),
            (2, 2, 0, 0, 0, 0, 0, 0),
            (-2, 2, 0, 0, 0, 0, 0, 0),
            (0, -2, 2, 0, 0, 0, 0, 0),
            (0, 0, -2, 2, 0, 0, 0, 0),
            (0, 0, 0, -2, 2, 0, 0, 0),
            (0, 0, 0, 0, -2, 2, 0, 0),
            (0, 0, 0, 0, 0, -2, 2, 0),
        ]
        return e8[:rank]
    if t == "F":
        return [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    if t == "G":
        return [(1, -1, 0), (-2, 1, 1)]
    raise ValueError(f"unknown type {t}")


@dataclass(frozen=True)
class RootSystem:
    type_label: str
    rank: int
    roots: tuple              # all roots, sorted
    simples: tuple            # fundamental roots, in diagram order
    index: dict               # root -> position in roots
    simple_coords: dict       # root -> integer coordinates over the simples

    def positive_roots(self) -> list[tuple]:
        return [r for r in self.roots if self.height(r) > 0]

    def height(self, r: tuple) -> int:
        return sum(self.simple_coords[r])

    def norms(self) -> set[int]:
        return {_dot(r, r) for r in self.roots}

    def long_roots(self) -> list[tuple]:
        m = max(self.norms())
        return [r for r in self.roots if _dot(r, r) == m]

    def reflect(self, x: tuple, r: tuple) -> tuple:
        """s_r(x) = x - <x,r> r."""
        return _sub(x, _scale(pairing(x, r), r))

    def __repr__(self):
        return f"RootSystem({self.type_label}{self.rank}, {len(self.roots)} roots)"


def pairing(s: tuple, r: tuple) -> int:
    """The Cartan integer <s, r> = 2(s,r)/(r,r)."""
    num = 2 * _dot(s, r)
    den = _dot(r, r)
    if num % den:
        raise ValueError(f"{s} and {r} do not pair integrally")
    return num // den


def parse_type(text: str) -> tuple[str, int]:
    """(type letter, rank) from text such as ``E6``, ``e6`` or ``g 2``."""
    m = re.fullmatch(r"\s*([A-Za-z])\s*(\d+)\s*", text)
    if not m:
        raise InputError(f"root-system type must look like E6, got {text!r}")
    return m.group(1).upper(), int(m.group(2))


@functools.lru_cache(maxsize=None)
def root_system(type_label: str, rank: int) -> RootSystem:
    """Build (and memoize; systems are immutable) the root system."""
    if type_label not in SUPPORTED or rank not in SUPPORTED[type_label]:
        raise InputError(f"unsupported root system {type_label}{rank}")
    simples = _simple_roots(type_label, rank)
    coords = reflection_closure(simples)
    ordered = tuple(sorted(coords))
    return RootSystem(
        type_label=type_label,
        rank=rank,
        roots=ordered,
        simples=tuple(simples),
        index={r: i for i, r in enumerate(ordered)},
        simple_coords=coords,
    )


def reflection_closure(basis) -> dict:
    """Every root of the system with fundamental roots ``basis``, mapped
    to its integer coordinates over them.

    The walk moves (root, coordinates) pairs: the reflection in a_j takes
    x to x - <x, a_j> a_j, which lowers coordinate j by <x, a_j>.
    """
    def reflect(point, j):
        x, c = point
        n = pairing(x, basis[j])
        return _sub(x, _scale(n, basis[j])), c[:j] + (c[j] - n,) + c[j + 1:]

    units = [tuple(int(i == j) for i in range(len(basis)))
             for j in range(len(basis))]
    return dict(orbit(zip(basis, units), range(len(basis)), reflect))


def highest_root(system: RootSystem) -> tuple[tuple, tuple]:
    """The highest root and its coefficient vector over the fundamentals."""
    best = max(system.roots, key=system.height)
    return best, system.simple_coords[best]


def omega_fixed_roots(system: RootSystem) -> list[tuple]:
    """Positive roots whose coordinate survives conjugation by every h_s(-1).

    That conjugation scales the root element of r by (-1)^<r, s>, so the
    fixed set is { r in Phi+ : <r, s> even for all s in Phi }.
    """
    out = []
    for r in system.positive_roots():
        if all(pairing(r, s) % 2 == 0 for s in system.roots):
            out.append(r)
    return sorted(out)


def is_closed_abelian(system: RootSystem, subset) -> bool:
    """Whether no sum of two members (repeats allowed) is again a root."""
    chosen = list(subset)
    root_set = set(system.roots)
    for r in chosen:
        if r not in root_set:
            raise ValueError(f"{r} is not a root")
    for i, r in enumerate(chosen):
        for s in chosen[i:]:
            if tuple(a + b for a, b in zip(r, s)) in root_set:
                return False
    return True
