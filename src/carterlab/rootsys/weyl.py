"""Weyl groups on roots, diagram twists, twisted conjugacy, torus orders.

A Weyl element lives in two coordinated forms: a permutation of the
sorted root list, and an integer matrix over the fundamental-root
lattice basis.  Twists are lattice automorphisms given by a Dynkin
diagram symmetry; twisted conjugacy w2 ~ w^-1 w2 w^tau is computed
exhaustively over the whole group (capped at |W(E6)| = 51840), so class
sizes certify completeness by summing to |W|.  The classes are the
conjugacy classes of the coset W tau^-1, not W tau, and are listed by
``permgrp.search.class_orbits``, which never holds the whole group.

A finite torus obtained by twisting with tau*w has order
|det(q*M - I)| with M the lattice matrix of tau*w; the determinant is
basis-independent, so the fundamental-root basis is as good as any.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import itemgetter

from ..errors import CapExceeded, InputError
from ..permgrp.perm import Perm
from ..permgrp.group import PermGroup, orbit
from ..permgrp.search import class_orbits
from .roots import RootSystem, pairing

F_CLASS_CAP = 51_840


@dataclass(frozen=True)
class WeylGroupRep:
    system: RootSystem
    simple_reflections: tuple      # Perm on the root list, one per fundamental
    perm_group: PermGroup

    def order(self) -> int:
        return self.perm_group.order()

    @functools.cached_property
    def root_reflections(self) -> tuple:
        """The reflection s_r as a permutation of root ids, for every root
        r, listed by r's id.  s_{s(b)} = s s_b s for a simple reflection
        s, so the table grows out from the simple roots, one conjugate per
        other root."""
        index = self.system.index
        table = [None] * len(self.system.roots)
        reached = []
        for alpha, s in zip(self.system.simples, self.simple_reflections):
            table[index[alpha]] = s
            reached.append(index[alpha])
        for b in reached:           # the list grows while it is walked
            for s in self.simple_reflections:
                if table[s[b]] is None:
                    table[s[b]] = table[b].conjugate(s)
                    reached.append(s[b])
        return tuple(table)

    def root_closure(self, ids) -> list:
        """The root ids of the subsystem whose fundamental roots have ids
        ``ids``: their orbit under their own reflections."""
        table = self.root_reflections
        return orbit(ids, [table[i] for i in ids], lambda i, s: s[i])

    def root_image(self, w: Perm, r: tuple) -> tuple:
        return self.system.roots[w[self.system.index[r]]]

    def lattice_matrix(self, w: Perm) -> list[list[int]]:
        """Columns are the fundamental-basis coordinates of w(alpha_i)."""
        cols = []
        for alpha in self.system.simples:
            image = self.root_image(w, alpha)
            cols.append(self.system.simple_coords[image])
        return [[cols[j][i] for j in range(len(cols))] for i in range(len(cols))]


_WEYL_CACHE: dict = {}


def weyl_group(system: RootSystem) -> WeylGroupRep:
    key = (system.type_label, system.rank)
    if key not in _WEYL_CACHE:
        refs = []
        for alpha in system.simples:
            images = [system.index[system.reflect(r, alpha)] for r in system.roots]
            refs.append(Perm(images))
        _WEYL_CACHE[key] = WeylGroupRep(system, tuple(refs),
                                        PermGroup(refs, len(system.roots)))
    return _WEYL_CACHE[key]


@dataclass(frozen=True)
class Twist:
    """A lattice automorphism permuting the fundamental roots."""

    system: RootSystem
    simple_map: tuple          # i -> image index among the fundamentals
    root_perm: Perm            # induced permutation of the root list
    order: int

    def matrix(self) -> list[list[int]]:
        rank = self.system.rank
        m = [[0] * rank for _ in range(rank)]
        for i, j in enumerate(self.simple_map):
            m[j][i] = 1
        return m


def _twist_from_simple_map(system: RootSystem, label: str, mapping) -> Twist:
    mapping = tuple(mapping)
    rank = system.rank
    # pairing preservation over the fundamentals
    for i in range(rank):
        for j in range(rank):
            a, b = system.simples[i], system.simples[j]
            ai, bj = system.simples[mapping[i]], system.simples[mapping[j]]
            if pairing(a, b) != pairing(ai, bj):
                raise ValueError(f"{label} does not preserve the Cartan pairing")
    images = []
    for r in system.roots:
        coords = system.simple_coords[r]
        out = None
        for i, c in enumerate(coords):
            term = tuple(c * a for a in system.simples[mapping[i]])
            out = term if out is None else tuple(x + y for x, y in zip(out, term))
        if out not in system.index:
            raise ValueError(f"{label} does not permute the roots")
        images.append(system.index[out])
    perm = Perm(images)
    return Twist(system, mapping, perm, Perm(mapping).order())


def identity_twist(system: RootSystem) -> Twist:
    return _twist_from_simple_map(system, "id", range(system.rank))


def flip_twist(system: RootSystem) -> Twist:
    """The order-2 diagram symmetry (A_n reversal, D_n leg swap, E6 flip)."""
    t, n = system.type_label, system.rank
    if t == "A" and n >= 2:
        mapping = tuple(n - 1 - i for i in range(n))
    elif t == "D":
        mapping = tuple(range(n - 2)) + (n - 1, n - 2)
    elif t == "E" and n == 6:
        mapping = (5, 1, 4, 3, 2, 0)
    else:
        raise InputError(f"no order-2 diagram symmetry for {t}{n}")
    return _twist_from_simple_map(system, "flip", mapping)


def triality_twist(system: RootSystem) -> Twist:
    """The order-3 symmetry of the D4 diagram (diagram-level only)."""
    if (system.type_label, system.rank) != ("D", 4):
        raise InputError("triality lives on D4")
    # chain is a1-a2-a3 with a4 on the center a2; rotate a1 -> a3 -> a4 -> a1
    return _twist_from_simple_map(system, "triality", (2, 1, 3, 0))


def twist_by_name(system: RootSystem, name: str) -> Twist:
    if name == "id":
        return identity_twist(system)
    if name == "flip":
        return flip_twist(system)
    if name == "triality":
        return triality_twist(system)
    raise InputError(f"unknown twist {name!r}")


@dataclass(frozen=True)
class TorusClass:
    rep: Perm                 # class representative in the root permutation
    rep_word: tuple           # indices of simple reflections, shortest-first
    size: int                 # twisted-conjugacy class size
    order_poly: tuple         # integer coefficients, low degree first

    def order_at(self, q: int) -> int:
        return _evaluate(self.order_poly, q)


def f_conjugacy_classes(W: WeylGroupRep, tau: Twist) -> list[TorusClass]:
    """Orbits of w2 -> w^-1 w2 w^tau over all of W, with order polynomials,
    sorted by (size, rep_word).  A class's rep is its member of least
    length (positive roots sent negative), then of least reduced word."""
    if tau.system is not W.system and tau.system != W.system:
        raise ValueError("twist belongs to a different root system")
    if W.order() > F_CLASS_CAP:
        raise CapExceeded(
            f"|W| = {W.order()} beyond the exhaustive cap {F_CLASS_CAP}")
    system = W.system
    negative = frozenset(i for i, r in enumerate(system.roots)
                         if system.height(r) < 0)
    positive = [i for i in range(len(system.roots)) if i not in negative]
    # rank 1 has one positive root: named twice, itemgetter gives a tuple
    positive_images = itemgetter(*positive, positive[0])
    t = tau.root_perm
    t_inv = t.inverse()
    classes = []
    # (y t^-1)^w = (w^-1 y w^tau) t^-1 with w^tau = t^-1 w t; t keeps the
    # positive roots positive, so y t^-1 and y have one length
    coset = (y * t_inv for y in W.perm_group.elements())
    for found in class_orbits(W.perm_group, coset):
        lengths = [len(negative.intersection(positive_images(c))) for c in found]
        least = min(lengths)
        shortest = [c * t for c, n in zip(found, lengths) if n == least]
        rep_word, rep = min((_least_word(W, y, negative), y) for y in shortest)
        classes.append(TorusClass(rep, rep_word, len(found),
                                  order_polynomial(W, rep, tau)))
    classes.sort(key=lambda c: (c.size, c.rep_word))
    assert sum(c.size for c in classes) == W.order()
    return classes


def _least_word(W: WeylGroupRep, y: Perm, negative) -> tuple:
    """y's lexicographically least reduced word (Humphreys 1.6-1.7): its
    first letter is the least i with y sending alpha_i negative, and the
    rest is the word of s_i * y, one shorter."""
    for i, alpha in enumerate(W.system.simples):
        if y[W.system.index[alpha]] in negative:
            return (i,) + _least_word(W, W.simple_reflections[i] * y, negative)
    return ()


def order_polynomial(W: WeylGroupRep, w: Perm, tau: Twist) -> tuple:
    """Coefficients of det(q*M(tau w) - I), sign-normalized positive at q >> 0."""
    # the product applies w first, so the columns are tau(w(alpha_i))
    M = W.lattice_matrix(w * tau.root_perm)
    # det(qM - I) = (-1)^r q^r charpoly_M(1/q): the characteristic
    # coefficients reversed, up to a sign the normalization fixes
    poly = _charpoly(M)[::-1]
    if poly[-1] < 0:
        poly = tuple(-c for c in poly)
    return poly


def torus_order(W: WeylGroupRep, w: Perm, tau: Twist, q: int) -> int:
    """|det(q*M(tau w) - I)| evaluated at an integer q >= 2."""
    return _evaluate(order_polynomial(W, w, tau), q)


def check_field_size(q: int) -> None:
    """Reject q below 2, which is no field size."""
    if q < 2:
        raise InputError("q must be at least 2")


def _evaluate(poly, q: int) -> int:
    """|poly(q)| for a torus-order polynomial."""
    check_field_size(q)
    return abs(sum(c * q ** i for i, c in enumerate(poly)))


def _charpoly(m) -> tuple:
    """Monic characteristic polynomial det(qI - m), low degree first
    (Faddeev-LeVerrier; exact for integer matrices)."""
    n = len(m)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    Mk = [[0] * n for _ in range(n)]
    for i in range(n):
        Mk[i][i] = 1
    a = m
    prev = Mk
    for k in range(1, n + 1):
        AM = [[sum(a[i][t] * prev[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        tr = sum(AM[i][i] for i in range(n))
        assert tr % k == 0
        c = -(tr // k)
        coeffs[n - k] = c
        prev = [[AM[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return tuple(coeffs)
