"""Sylow subgroups by p-subgroup ascent, and nilpotency by p-element counts.

The ascent uses the standard fact that a p-subgroup H with |H| < |G|_p
has p dividing |N_G(H) : H|, so some p-element of the normalizer grows
H.  Each step scans the normalizer's elements in their fixed enumeration
order and adjoins the p-part of the first element whose p-part lies
outside H, so every call returns the same Sylow subgroup.  An element
of order prime to p has the identity as its p-part, so it is passed
over before any power is taken.
"""

from __future__ import annotations

from collections import Counter

from .group import PermGroup
from .search import subgroup_normalizer


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def prime_factors(n: int) -> list[int]:
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


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def sylow_subgroup(G: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup of G (trivial if p does not divide |G|)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    target = p_part(G.order(), p)
    H = PermGroup.trivial(G.degree)
    while H.order() < target:
        for y in subgroup_normalizer(G, H).elements():
            o = y.order()
            if o % p:
                continue        # a p'-element: its p-part is the identity
            # y's p-part, not the identity, since p divides o
            z = y ** (o // p_part(o, p))
            if z not in H:
                H = PermGroup(H.generators + (z,), G.degree)
                break
        else:
            raise AssertionError("p-ascent stalled below the Sylow order")
    assert H.order() == target
    return H


def is_nilpotent(H: PermGroup) -> bool:
    """Whether H is nilpotent, by ``_nilpotent_by_orders``: one pass over
    the elements; no Sylow subgroup is built."""
    return _nilpotent_by_orders(H.order(), (g.order() for g in H.elements()))


def _nilpotent_by_orders(n: int, orders) -> bool:
    """Whether a group of order n with element orders ``orders`` is
    nilpotent: for each prime p dividing n, exactly n_p elements have
    p-power order (so the Sylow p-subgroup is unique, hence normal)."""
    counts = {p: 0 for p in prime_factors(n)}
    for o, k in Counter(orders).items():
        for p in counts:
            if p_part(o, p) == o:
                counts[p] += k
    return all(counts[p] == p_part(n, p) for p in counts)


def normal_closure(G: PermGroup, seed_gens) -> PermGroup:
    """The normal closure of <seed_gens> in G."""
    gens = [g for g in seed_gens if not g.is_identity()]
    closure = PermGroup(gens, G.degree)
    frontier = list(gens)
    while frontier:
        new = []
        for h in frontier:
            for s in G.generators:
                c = h.conjugate(s)
                if c not in closure:
                    gens.append(c)
                    closure = PermGroup(gens, G.degree)
                    new.append(c)
        frontier = new
    return closure


def commutator_subgroup(G: PermGroup, A: PermGroup, B: PermGroup) -> PermGroup:
    """[A, B] as a subgroup of G (normal closure of generator commutators)."""
    comms = []
    for a in A.generators:
        a_inv = a.inverse()
        for b in B.generators:
            c = a_inv * b.inverse() * a * b
            if not c.is_identity():
                comms.append(c)
    return normal_closure(G, comms)


def lower_central_series(G: PermGroup) -> list[PermGroup]:
    """G = gamma_1 >= gamma_2 = [G, gamma_1] >= ... until it stabilizes."""
    series = [G]
    while True:
        nxt = commutator_subgroup(G, G, series[-1])
        if nxt.order() == series[-1].order():
            break
        series.append(nxt)
        if nxt.order() == 1:
            break
    return series
