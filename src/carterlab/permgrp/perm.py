"""Permutations on {0, ..., n-1}, stored as bytes up to degree 256.

A permutation ``p`` lists images: ``p[i]`` is the image of point ``i``.
Products compose left-to-right: ``(a * b)[i] == b[a[i]]`` (apply ``a``
first), so groups act on the right and ``x.conjugate(g)`` is ``g⁻¹xg``.
All algorithms in this package rely on that convention.

A ``Perm`` of degree n <= ``NARROW_DEGREE`` (256) is a ``bytes`` of
length n, one image per byte, so each kernel operation is one or two C
calls.  With ``_ID = bytes(range(256))``, ``b + _ID[n:]`` is a 256-byte
translation table that maps i to ``b[i]`` for i < n:

- product: ``a.translate(b + _ID[n:])`` has ``b[a[i]]`` at i;
- inverse: ``bytes.maketrans(a, _ID[:n])`` has i at ``a[i]``;
- division: ``a.translate(bytes.maketrans(b, _ID[:n]))`` is ``a * b⁻¹``;
- conjugate: ``bytes.maketrans(g, x.translate(g + _ID[n:]))`` has
  ``g[x[i]]`` at ``g[i]``, which is where ``g⁻¹xg`` has it;
- conjugation kernel: with ``g_inv`` g's inverse and ``g_table`` its
  table, both made once per g, ``g_inv.translate(x + _ID[n:])`` has
  ``x[g⁻¹[i]]`` at i, and a ``translate`` through ``g_table`` then
  gives ``g⁻¹xg``.  The bulk conjugations use it: a class walk
  (``_conjugation_orbit``) pads each member once for all generators,
  and a fingerprint image (``_conjugate_all``) conjugates every element
  of a set by one g;
- order: ``y.translate(x + _ID[n:])`` steps y = x^k to x^(k+1), from
  x until y is the identity; an order above n, which takes more than n
  steps, is the lcm of the cycle lengths instead.

``maketrans`` returns a whole 256-byte table; its first n bytes are the
permutation.  Bytes compare lexicographically, as tuples of ints below
256 do, so ``min``, ``sorted`` and least class members are the same
permutations in either form.  A bytes object caches its hash, but the
hash is salted per process, so no output may depend on the iteration
order of a set of permutations.  A ``Perm`` and a plain ``bytes`` with
the same images compare and hash equal, so the kernel's walks hold
plain bytes: a class walk wraps its members as ``Perm``s when it is
done, and a fingerprint image stays a frozenset of plain bytes, equal to
the frozenset of their ``Perm``s.  Its elements are keys, never handed
to a caller as permutations.

A partition of the points is a label vector, entry p the least point of
p's cell, kept in its permutations' layout: ``_label_vector`` builds one
and ``g._move_labels(lab)`` moves it by g.  For a ``Perm``,
``bytes.maketrans(g, lab)`` puts ``lab[p]`` at ``g[p]``, and a
``translate`` through a second ``maketrans``, over those labels
reversed, names each cell by its least point.

A byte holds no image above 255.  A permutation of larger degree is a
``_WidePerm``: a tuple of images with the same methods and a kernel of
Python loops and ``operator.itemgetter`` gathers.  ``Perm(images)``
returns whichever class fits the degree, ``PERM_TYPES`` names both for
``isinstance``, and an orbit walk acts by ``type(x).conjugate``, which
fits either; the wide class's class walk and fingerprint image call it
too.  ``NARROW_DEGREE`` is a module constant that tests
lower to send every permutation of degree 2 or more through the wide
class; it must stay at least 1, because ``itemgetter`` over fewer than
two images returns no tuple.
"""

from __future__ import annotations

import functools
import math
from operator import itemgetter

NARROW_DEGREE = 256
_ID = bytes(range(256))
_DOWN = _ID[::-1]       # its last n bytes are n-1, ..., 0


class _PermMethods:
    """The methods both layouts share: they only index images."""

    __slots__ = ()

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
        return Perm(images)

    @property
    def degree(self) -> int:
        return len(self)

    def is_identity(self) -> bool:
        return self == _identity(len(self))

    def __truediv__(self, u):  # self * u⁻¹
        return self * u.inverse()

    def __pow__(self, k: int) -> Perm:
        if k < 0:
            return self.inverse() ** (-k)
        if not k:
            return Perm.identity(len(self))
        # square up to the lowest set bit, then once per higher bit
        b = self
        while not k & 1:
            b = b * b
            k >>= 1
        r = b
        k >>= 1
        while k:
            b = b * b
            if k & 1:
                r = r * b
            k >>= 1
        return r

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

    def _conjugation_orbit(self, gens) -> list:
        """Self's orbit under conjugation by ``gens``, breadth-first."""
        from .group import orbit    # group imports this module
        return orbit([self], gens, type(self).conjugate)

    def _conjugate_all(self, xs) -> frozenset:
        """The conjugates x^self of the permutations ``xs``."""
        return frozenset(x.conjugate(self) for x in xs)


class Perm(_PermMethods, bytes):
    """An immutable permutation; subclasses bytes, so it hashes and sorts.

    ``Perm(images)`` of degree above ``NARROW_DEGREE`` returns a
    ``_WidePerm`` instead.
    """

    __slots__ = ()

    def __new__(cls, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images are not a bijection on 0..n-1")
        if len(images) > NARROW_DEGREE:
            return tuple.__new__(_WidePerm, images)
        return bytes.__new__(cls, images)

    def __mul__(self, other):  # apply self, then other
        return bytes.__new__(Perm, self.translate(other + _ID[len(self):]))

    def __truediv__(self, u):  # self * u⁻¹
        return bytes.__new__(Perm, self.translate(bytes.maketrans(u, _ID[:len(self)])))

    def inverse(self) -> Perm:
        n = len(self)
        return bytes.__new__(Perm, bytes.maketrans(self, _ID[:n])[:n])

    def conjugate(self, g) -> Perm:
        """Return g⁻¹ * self * g."""
        n = len(self)
        return bytes.__new__(Perm, bytes.maketrans(g, self.translate(g + _ID[n:]))[:n])

    def order(self) -> int:
        n = len(self)
        one, table, y = _ID[:n], self + _ID[n:], self
        for k in range(1, n + 1):
            if y == one:
                return k
            y = y.translate(table)
        return math.lcm(*self._cycle_lengths())

    def _conjugation_orbit(self, gens) -> list:
        """Self's orbit under conjugation by ``gens``, in the order of
        ``group.orbit([self], gens, Perm.conjugate)``.  The walk holds
        plain bytes, which equal and hash as their ``Perm``s do, and wraps
        each member in place once it is done."""
        n = len(self)
        pad = _ID[n:]
        steps = [(bytes.maketrans(g, _ID[:n])[:n], g + pad) for g in gens]
        points, seen = [self], {self}
        for x in points:            # the list grows while it is walked
            table = x + pad
            for g_inv, g_table in steps:
                image = g_inv.translate(table).translate(g_table)
                if image not in seen:
                    seen.add(image)
                    points.append(image)
        del seen                    # frees each byte string as it is wrapped
        for i in range(1, len(points)):
            points[i] = bytes.__new__(Perm, points[i])
        return points

    def _conjugate_all(self, xs) -> frozenset:
        """The conjugates x^self of the permutations ``xs``, as plain bytes."""
        n = len(self)
        pad = _ID[n:]
        g_inv, g_table = bytes.maketrans(self, _ID[:n])[:n], self + pad
        return frozenset(g_inv.translate(x + pad).translate(g_table) for x in xs)

    @staticmethod
    def _label_vector(labels) -> bytes:
        return bytes(labels)

    def _move_labels(self, lab: bytes) -> bytes:
        """The label vector ``lab`` moved by self, cells named by their
        least points.  ``maketrans`` writes left to right, so over the
        moved labels reversed the last write for a label is its first
        position."""
        n = len(self)
        moved = bytes.maketrans(self, lab)[:n]
        return moved.translate(bytes.maketrans(moved[::-1], _DOWN[256 - n:]))


class _WidePerm(_PermMethods, tuple):
    """A permutation of degree above ``NARROW_DEGREE``, as a tuple of images."""

    __slots__ = ()

    def __mul__(self, other):  # apply self, then other
        return tuple.__new__(_WidePerm, itemgetter(*self)(other))

    def inverse(self) -> _WidePerm:
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return tuple.__new__(_WidePerm, inv)

    def conjugate(self, g) -> _WidePerm:
        """Return g⁻¹ * self * g."""
        out = [0] * len(self)
        for gi, xi in zip(g, self):
            out[gi] = g[xi]
        return tuple.__new__(_WidePerm, out)

    @staticmethod
    def _label_vector(labels) -> tuple:
        return tuple(labels)

    def _move_labels(self, lab: tuple) -> tuple:
        """The label vector ``lab`` moved by self, cells named by their
        least points, the first met in a scan of the points."""
        moved = [0] * len(lab)
        for p, c in zip(self, lab):
            moved[p] = c
        least = {}
        return tuple(map(least.setdefault, moved, range(len(moved))))


PERM_TYPES = (Perm, _WidePerm)


@functools.cache
def _identity(degree: int) -> Perm:
    return Perm(range(degree))
