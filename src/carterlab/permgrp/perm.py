"""Permutations on {0, ..., n-1} stored as image tuples.

A permutation is a tuple ``p`` with ``p[i]`` the image of point ``i``.
Products compose left-to-right: ``(a * b)[i] == b[a[i]]`` (apply ``a``
first), so groups act on the right and ``x.conjugate(g)`` is ``g⁻¹xg``.
All algorithms in this package rely on that convention.

A product gathers ``other``'s images at ``self``'s through
``operator.itemgetter``, which runs the loop in C.  At degree 0 or 1
``itemgetter`` cannot return a tuple (with one index it returns a
scalar, with none it raises), so products of degree below 2 take a
separate branch: there the only permutation is the identity.
"""

from __future__ import annotations

import functools
import math
from operator import itemgetter


class Perm(tuple):
    """An immutable permutation; subclasses tuple, so it hashes and sorts."""

    __slots__ = ()

    def __new__(cls, images):
        p = super().__new__(cls, images)
        if sorted(p) != list(range(len(p))):
            raise ValueError("images are not a bijection on 0..n-1")
        return p

    @classmethod
    def identity(cls, degree: int) -> Perm:
        return _identity(degree)

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> Perm:
        """Build a permutation from disjoint cycles of 0-based points."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
                if a in seen or not 0 <= a < degree:
                    raise ValueError(f"bad cycle point {a}")
                seen.add(a)
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self)

    def is_identity(self) -> bool:
        return self == _identity(len(self))

    def __mul__(self, other):  # apply self, then other
        if len(self) < 2:
            return self
        return tuple.__new__(Perm, itemgetter(*self)(other))

    def inverse(self) -> Perm:
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return tuple.__new__(Perm, inv)

    def __pow__(self, k: int) -> Perm:
        n = len(self)
        if k < 0:
            return self.inverse() ** (-k)
        r = Perm.identity(n)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def conjugate(self, g) -> Perm:
        """Return g⁻¹ * self * g."""
        out = [0] * len(self)
        for gi, xi in zip(g, self):
            out[gi] = g[xi]
        return tuple.__new__(Perm, out)

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its least point."""
        seen = [False] * len(self)
        out = []
        for i in range(len(self)):
            if seen[i] or self[i] == i:
                continue
            cyc = [i]
            j = self[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self[j]
            out.append(tuple(cyc))
        return out

    def _cycle_lengths(self) -> list:
        """Lengths of the nontrivial cycles, as ``cycles()`` lists them."""
        seen = [False] * len(self)
        lengths = []
        for i, j in enumerate(self):
            if seen[i] or j == i:
                continue
            length = 1
            while j != i:
                seen[j] = True
                length += 1
                j = self[j]
            lengths.append(length)
        return lengths

    def cycle_type(self) -> tuple:
        """Sorted lengths of nontrivial cycles; a conjugacy invariant."""
        return tuple(sorted(self._cycle_lengths()))

    def order(self) -> int:
        return math.lcm(*self._cycle_lengths())

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Perm[{self.degree}]{self}"


@functools.cache
def _identity(degree: int) -> Perm:
    return tuple.__new__(Perm, range(degree))

