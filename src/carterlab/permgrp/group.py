"""Permutation groups with a base and strong generating set.

The chain is built by the deterministic Schreier-Sims procedure: no
randomisation, so a fixed generator list always yields the same base,
the same transversals and therefore bit-identical downstream reports.
Base points are chosen as the first point moved by the first generator,
then the first point moved by the current stabilizer (an optional
``base_hint`` is consulted first, which lets callers rebase a group or
cross-check orders from independent bases).

A build may be told an upper bound on |<gens>| (the private
``_known_order``).  A partial chain's orbits are orbits of subgroups of
the true point stabilizers, so the product of their lengths never
exceeds |<gens>|; once it equals the bound the chain is complete, and
the build stops there with the base, transversals and level generators
the full build ends with (Seress, *Permutation Group Algorithms*,
ch. 4).  A bound below the true order gives a wrong chain: the build
asserts only that the product never passes the bound, so callers pass
one only where it is a theorem.

Every orbit walk of the package lives here.  Two keep a transversal.
A chain level's sifts divide by every element of its transversal, so
the level holds them all; and when a generator is appended its orbit is
already closed under the earlier ones, so ``_Level.extend_orbit``
applies the new generator to the old points, and every generator only
to the points found since.  That finds the points in the order a walk
of the whole orbit finds them, reached by the same elements.  A search
(in ``search``) reads few elements: a stabilizer harvest those at the
ends of the edges it harvests, a conjugacy test the one at its target.
So ``Walk`` keeps one parent link per point (a Schreier vector) and
multiplies out an element only when it is read.  It asks each
generator once for its move, a function from a point to its image
(on the narrow kernel a closure over the generator's byte tables, see
``perm``), and calls it once per edge.  ``orbit`` and ``orbits`` keep
no transversal and act by ``act(point, g)``: ``orbits`` runs one
``orbit`` per orbit, so moves made per call would be remade per orbit.
``orbits`` starts each orbit at the first input point not yet seen,
and callers take ``min`` of an orbit.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain, combinations
from operator import mul

from .perm import PERM_TYPES, Perm


class Walk:
    """A breadth-first orbit walk that builds transversal elements on demand.

    ``Walk(start, identity)`` holds the orbit's points in discovery order
    (``points``, position 0 the start), each point's position
    (``position``) and, for every other point, one parent link: the
    position of the point it was found from and the generator that found
    it.  ``element(j)`` multiplies the generators along point j's path
    from the start, keeping each element it builds, so reading every
    point's element makes the products an eager transversal makes, and
    reading few makes few.
    """

    __slots__ = ("points", "position", "_links", "_elements")

    def __init__(self, start, identity):
        self.points = [start]
        self.position = {start: 0}
        self._links = [None]
        self._elements = {0: identity}

    def edges(self, gens, move, target=None):
        """Walk the orbit breadth-first and yield each non-tree edge.

        ``move(g)`` returns generator g's move, a function from a point
        to its image; the walk makes each generator's move once, then
        calls it once per edge.  The points are expanded in the order
        they were found, each through ``gens`` in their given order.  An
        edge that finds no new point is yielded as ``(i, s, j)``:
        generator s takes the point at position i to the one at position
        j.  The walk ends at the orbit's end, or as soon as it finds
        ``target``.
        """
        points, position, links = self.points, self.position, self._links
        moves = [(s, move(s)) for s in gens]
        for i, point in enumerate(points):  # the list grows while it is walked
            for s, image_of in moves:
                image = image_of(point)
                j = position.get(image)
                if j is None:
                    position[image] = len(points)
                    points.append(image)
                    links.append((i, s))
                    if image == target:
                        return
                else:
                    yield i, s, j

    def element(self, j):
        """The transversal element taking the start to the point at
        position j: the product of the generators on its path."""
        elements, links = self._elements, self._links
        path = []
        while j not in elements:
            path.append(j)
            j = links[j][0]
        u = elements[j]
        for k in reversed(path):
            u = elements[k] = u * links[k][1]
        return u


def orbit(seeds, gens, act) -> list:
    """The orbit of ``seeds`` under ``gens``, in breadth-first discovery order.

    ``seeds`` are distinct points; ``act(point, g)`` applies generator g.
    Generators are tried in their given order, so the returned order is
    deterministic.
    """
    points = list(seeds)
    seen = set(points)
    for point in points:        # the list grows while it is walked
        for g in gens:
            image = act(point, g)
            if image not in seen:
                seen.add(image)
                points.append(image)
    return points


def orbits(points, gens, act):
    """Yield the orbits of ``gens`` through ``points``, one at a time.

    ``points`` (a generator will do) is read once, in order, and each
    orbit starts at the first point not yet seen; a caller that wants an
    orbit's least member takes ``min`` of it.
    """
    seen = set()
    for point in points:
        if point not in seen:
            found = orbit([point], gens, act)
            seen.update(found)
            yield found


def _image(point: int, g: Perm) -> int:
    return g[point]


class _Level:
    __slots__ = ("beta", "gens", "transversal")

    def __init__(self, beta: int, degree: int):
        self.beta = beta
        self.gens: list[Perm] = []
        self.transversal = {beta: Perm.identity(degree)}

    def extend_orbit(self):
        """Grow the orbit and transversal after a generator was appended.

        The old points are closed under the earlier generators, so only
        the new one can take them out of the orbit; it is applied to them
        in order, then every generator to each point found, breadth-first.
        A walk of the whole orbit finds the same points in the same order,
        reached by the same elements.
        """
        transversal, gens = self.transversal, self.gens
        new = gens[-1]
        found = []
        for p, u in list(transversal.items()):
            q = new[p]
            if q not in transversal:
                transversal[q] = u * new
                found.append(q)
        for p in found:             # the list grows while it is walked
            u = transversal[p]
            for s in gens:
                q = s[p]
                if q not in transversal:
                    transversal[q] = u * s
                    found.append(q)


class PermGroup:
    """Immutable permutation group; nothing in this package starts a thread."""

    def __init__(self, generators, degree: int, base_hint=None,
                 _known_order=None):
        gens = []
        for g in generators:
            if len(g) != degree:
                raise ValueError(
                    f"generator degree {len(g)} != group degree {degree}")
            g = g if isinstance(g, PERM_TYPES) else Perm(g)
            if not g.is_identity() and g not in gens:
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._levels: list[_Level] = []
        self._base_hint = tuple(base_hint) if base_hint is not None else ()
        self._order = None
        self._schreier_sims(_known_order)

    # -- construction ------------------------------------------------

    @classmethod
    def trivial(cls, degree: int) -> PermGroup:
        return cls((), degree)

    @classmethod
    def symmetric(cls, n: int) -> PermGroup:
        if n <= 1:
            return cls.trivial(max(n, 1))
        gens = [Perm.from_cycles(n, [tuple(range(n))]), Perm.from_cycles(n, [(0, 1)])]
        return cls(gens, n)

    @classmethod
    def alternating(cls, n: int) -> PermGroup:
        if n <= 2:
            return cls.trivial(max(n, 1))
        gens = [Perm.from_cycles(n, [(0, 1, 2)])]
        if n > 3:
            long = tuple(range(n)) if n % 2 else tuple(range(1, n))
            gens.append(Perm.from_cycles(n, [long]))
        return cls(gens, n)

    def _pick_base_point(self, g: Perm) -> int:
        used = {lv.beta for lv in self._levels}
        for b in self._base_hint:
            if g[b] != b and b not in used:
                return b
        for i, j in enumerate(g):
            if i != j and i not in used:
                return i
        raise AssertionError("generator fixes every available point")

    def _insert_generator(self, g: Perm) -> int:
        """Register g at every level whose base-point prefix it fixes.

        Returns the deepest level that received g (the first level whose
        base point g moves, extending the base when g fixes all of it).
        """
        m = 0
        while m < len(self._levels) and g[self._levels[m].beta] == self._levels[m].beta:
            m += 1
        if m == len(self._levels):
            self._levels.append(_Level(self._pick_base_point(g), self.degree))
        for i in range(m + 1):
            self._levels[i].gens.append(g)
            self._levels[i].extend_orbit()
        return m

    def _strip(self, g: Perm, start: int = 0) -> Perm:
        """Sift g through levels >= start; return the residue."""
        for i in range(start, len(self._levels)):
            lv = self._levels[i]
            p = g[lv.beta]
            if p not in lv.transversal:
                return g
            g = g / lv.transversal[p]
        return g

    def _schreier_sims(self, known_order=None):
        """Build the chain; ``known_order``, if given, must be an upper
        bound on |<gens>|, and the build stops once the levels reach it."""
        for g in self.generators:
            self._insert_generator(g)
        i = len(self._levels) - 1
        while i >= 0 and not self._reached(known_order):
            lv = self._levels[i]
            complete = True
            for p in sorted(lv.transversal):
                u = lv.transversal[p]
                for s in lv.gens:
                    q = s[p]
                    us = u * s
                    if us == lv.transversal[q]:     # a trivial Schreier generator
                        continue
                    residue = self._strip(us / lv.transversal[q], i + 1)
                    if not residue.is_identity():
                        i = self._insert_generator(residue)
                        complete = False
                        break
                if not complete:
                    break
            if complete:
                i -= 1

    def _reached(self, known_order) -> bool:
        """Whether the levels' orbit lengths multiply to ``known_order``.

        The levels' orbits are orbits of subgroups of the point
        stabilizers along the base, so their product never exceeds
        |<gens>|; reaching an upper bound on it, the chain is complete.
        """
        if known_order is None:
            return False
        n = self._orbit_product()
        assert n <= known_order, f"orbit lengths multiply to {n} > {known_order}"
        return n == known_order

    # -- queries -----------------------------------------------------

    def _orbit_product(self) -> int:
        n = 1
        for lv in self._levels:
            n *= len(lv.transversal)
        return n

    def order(self) -> int:
        if self._order is None:
            self._order = self._orbit_product()
        return self._order

    @property
    def base(self) -> tuple:
        return tuple(lv.beta for lv in self._levels)

    @cached_property
    def walk_generators(self) -> tuple:
        """A short generating set for orbit walks, derived once per group.

        With generators g_1..g_m, m > 2, try in order the pairs (g_i, the
        product of the others in order) for i = 1..m, then (g_i, g_j) for
        i < j, and take the first pair that generates the whole group;
        else use all m generators.  Deterministic, so every walk sees the
        same set.
        """
        gens = self.generators
        if len(gens) <= 2:
            return gens
        pairs = chain(((g, reduce(mul, gens[:i] + gens[i + 1:]))
                       for i, g in enumerate(gens)),
                      combinations(gens, 2))
        n_orbits = len(self.natural_orbits())
        for pair in pairs:
            # <pair> lies in G, so with more orbits on the domain it is
            # smaller; counting them is far cheaper than a chain
            if sum(1 for _ in orbits(range(self.degree), pair, _image)) > n_orbits:
                continue
            P = PermGroup(pair, self.degree, _known_order=self.order())
            if P.order() == self.order():
                return P.generators
        return gens

    def __contains__(self, g) -> bool:
        if len(g) != self.degree:
            raise ValueError(f"degree {len(g)} != {self.degree}")
        return self._strip(g if isinstance(g, PERM_TYPES) else Perm(g)).is_identity()

    def is_subgroup_of(self, other: PermGroup) -> bool:
        return self.degree == other.degree and all(g in other for g in self.generators)

    def same_group_as(self, other: PermGroup) -> bool:
        return self.order() == other.order() and self.is_subgroup_of(other)

    def is_trivial(self) -> bool:
        return not self.generators

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def elements(self):
        """Iterate all elements, deterministically, via transversal products.

        Every element factors uniquely as u_(k-1) * ... * u_1 * u_0 with
        u_i drawn from the level-i transversal (deeper factors first, so
        the level-0 representative acts last).
        """
        def rec(i):
            if i == len(self._levels):
                yield Perm.identity(self.degree)
                return
            lv = self._levels[i]
            points = sorted(lv.transversal)
            for h in rec(i + 1):
                for p in points:
                    yield h * lv.transversal[p]
        return rec(0)

    def random_element(self, rng) -> Perm:
        """Uniformly random element: one transversal representative per level."""
        g = Perm.identity(self.degree)
        for lv in reversed(self._levels):
            points = sorted(lv.transversal)
            g = g * lv.transversal[points[rng.randrange(len(points))]]
        return g

    def natural_orbits(self) -> list[list[int]]:
        """Orbits of the group on its domain (an invariant under conjugation)."""
        return [sorted(o) for o in orbits(range(self.degree), self.generators, _image)]

    def orbit_signature(self) -> tuple:
        return tuple(sorted(len(o) for o in self.natural_orbits()))

    def rebase(self, base) -> PermGroup:
        return PermGroup(self.generators, self.degree, base_hint=base,
                         _known_order=self.order())

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order()})"
