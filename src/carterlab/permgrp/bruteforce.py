"""Exhaustive oracles: closure counts and full-group scans.

These are the reference implementations the fast engine is tested
against. They enumerate whole groups (or whole subgroup lattices), so
they are only usable on small inputs.  Every function refuses to run
past a hard cap rather than silently grinding; the caps are the module
constants ``CLOSURE_CAP``, ``SCAN_CAP`` and ``LATTICE_CAP``.

They use none of the engine's searches (normalizers, conjugacy tests,
Sylow or Carter code).  Their answers come from ``Perm`` arithmetic,
``closure`` and the element list ``G.elements()`` alone; a ``PermGroup``
is built only to hand a result back.  So a bug in the engine cannot hide
by also appearing in the oracle it is tested against.

The subgroup lattice is walked upward from the trivial group.  Each
subgroup H keeps the short generator list that built it, and is extended
by x to ``closure(gens + [x])``.  Only one x per double coset H*y*H is
tried: every element of a double coset generates the same group together
with H, so the rest of it adds nothing.
"""

from __future__ import annotations

from ..errors import CapExceeded
from .perm import PERM_TYPES, Perm
from .group import PermGroup


CLOSURE_CAP = 200_000   # elements in one closure
SCAN_CAP = 20_000       # |G| for a scan of every element
LATTICE_CAP = 400       # |G| for a subgroup-lattice walk


def _check_order(G: PermGroup, cap: int) -> None:
    if G.order() > cap:
        raise CapExceeded(f"|G| = {G.order()} > {cap}")


def closure(gens, degree: int) -> set:
    """All elements of <gens> by breadth-first multiplication."""
    seen = {Perm.identity(degree)}
    frontier = list(seen)
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    new.append(h)
                    if len(seen) > CLOSURE_CAP:
                        raise CapExceeded(f"closure larger than {CLOSURE_CAP}")
        frontier = new
    return seen


def closure_order(gens, degree: int) -> int:
    return len(closure(gens, degree))


def brute_normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    """N_G(H) by scanning every element of G."""
    _check_order(G, SCAN_CAP)
    gens = []
    for g in G.elements():
        if all(h.conjugate(g) in H for h in H.generators):
            gens.append(g)
    return PermGroup(gens, G.degree)


def brute_centralizer(G: PermGroup, xs) -> PermGroup:
    """C_G(xs) by scanning every element of G; xs is a Perm or iterable."""
    if isinstance(xs, PERM_TYPES):
        xs = [xs]
    xs = list(xs)
    _check_order(G, SCAN_CAP)
    gens = [g for g in G.elements() if all(x * g == g * x for x in xs)]
    return PermGroup(gens, G.degree)


def brute_conjugator(G: PermGroup, x: Perm, y: Perm):
    """Some g in G with x^g = y, or None."""
    _check_order(G, SCAN_CAP)
    for g in G.elements():
        if x.conjugate(g) == y:
            return g
    return None


def brute_subgroup_conjugator(G: PermGroup, H1: PermGroup, H2: PermGroup):
    _check_order(G, SCAN_CAP)
    if H1.order() != H2.order():
        return None
    for g in G.elements():
        if all(h.conjugate(g) in H2 for h in H1.generators):
            return g
    return None


def all_subgroups(G: PermGroup):
    """Every subgroup of G as a frozenset of elements (G small)."""
    return set(_subgroup_lattice(G))


def _subgroup_lattice(G: PermGroup) -> dict:
    """Every subgroup of G mapped to the short generator list that built it.

    Walked upward one double coset at a time (see the module docstring).
    """
    _check_order(G, LATTICE_CAP)
    elements = sorted(G.elements())
    trivial = frozenset([Perm.identity(G.degree)])
    lattice = {trivial: []}
    frontier = [trivial]
    while frontier:
        new = []
        for sub in frontier:
            gens = lattice[sub]
            tried = set(sub)
            for x in elements:
                if x in tried:
                    continue
                tried |= _double_coset(gens, x)
                bigger = frozenset(closure(gens + [x], G.degree))
                if bigger not in lattice:
                    lattice[bigger] = gens + [x]
                    new.append(bigger)
        frontier = new
    return lattice


def _double_coset(gens, x: Perm) -> set:
    """<gens> * x * <gens>, walked by multiplying on both sides."""
    seen = {x}
    frontier = [x]
    while frontier:
        new = []
        for y in frontier:
            for s in gens:
                for z in (s * y, y * s):
                    if z not in seen:
                        seen.add(z)
                        new.append(z)
        frontier = new
    return seen


def brute_carter_classes(G: PermGroup):
    """Carter subgroups of a small G by full subgroup-lattice scan.

    Returns conjugacy-class representatives (each a PermGroup).
    """
    lattice = _subgroup_lattice(G)
    elements = list(G.elements())
    carter = []
    for sub, gens in lattice.items():
        if not _brute_nilpotent(sub, G.degree):
            continue
        # g normalizes sub iff it maps every generator into sub
        if not any(g not in sub and all(h.conjugate(g) in sub for h in gens)
                   for g in elements):
            carter.append((sub, gens))
    reps = []
    classed = set()
    for sub, gens in sorted(carter, key=lambda t: sorted(t[0])):
        if sub in classed:
            continue
        reps.append(PermGroup(gens, G.degree))
        for g in elements:
            classed.add(frozenset(h.conjugate(g) for h in sub))
    return reps


def _brute_nilpotent(element_set, degree: int) -> bool:
    """Nilpotent iff, for each prime p, the p-elements number exactly |H|_p."""
    n = len(element_set)
    orders = [g.order() for g in element_set]
    for p in _prime_factors(n):
        p_part = 1
        m = n
        while m % p == 0:
            p_part *= p
            m //= p
        count = sum(1 for o in orders if _is_power_of(o, p))
        if count != p_part:
            return False
    return True


def _is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
