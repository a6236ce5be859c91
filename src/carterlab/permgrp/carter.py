"""Carter subgroups: exhaustive search, witness checks, Sylow-2 criterion.

A Carter subgroup is a nilpotent self-normalizing subgroup.  The search
enumerates nilpotent subgroups up to conjugacy by breadth-first cyclic
extension: starting from the trivial subgroup, a class representative H
is extended by every element x of prime order modulo H drawn from
N_G(H) with <H, x> still nilpotent.  This reaches every Carter subgroup
because a proper subgroup of a nilpotent K never equals its normalizer
in K, so K grows from the trivial subgroup through such prime steps.
Self-normalizing nodes are exactly the Carter classes.

Six economies keep this desk-sized.  Extension candidates are taken
up to N_G(H)-conjugacy (conjugate candidates give G-conjugate
extensions, since they fix H).  Both the first layer, G's classes of
prime-order elements, and the candidates of later layers are listed by
``class_orbits``, the class lister that ``conjugacy_classes`` uses,
given the candidate test as a class function: it tests one element per
listed class and never walks the classes the test rejects.  On a group
of order at least ``SYLOW_SEED_ORDER`` the first layer streams the
elements of one Sylow p-subgroup per prime p instead of all of G: every
element of order p is conjugate into it (Sylow's theorem), and each
class listed is a whole G-orbit, so its least member is the same;
below that order a Sylow subgroup costs more than the elements it
saves.  An extension K = <H, x> is built knowing its order |H| p, where
p is the prime order of xH, so its chain build stops once complete.
K's element orders are read once: their multiset decides nilpotency,
and class deduplication buckets subgroups by (order, orbit signature,
element-order multiset) before running a conjugacy search.  The same
pass strikes K's elements off the node's pending candidates, and a
candidate x no longer pending is skipped before its chain is built:
x lies in some K' = <H, x'> built at H, so <H, x> <= K' with orders
|H| p and |H| p', hence p = p' and <H, x> = K', whose nilpotency
and class were settled when K' was built.

The search refuses a G above its cap (``FULL_SEARCH_CAP`` unless the
caller gives one) or above ``search.CLASS_ENUMERATION_CAP``, both
checked once before any node is expanded: every normalizer the search
lists is a subgroup of G, so |G| bounds every listing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

from ..errors import CapExceeded
from . import search
from .group import PermGroup
from .search import (are_conjugate_subgroups, class_orbits,
                     subgroup_centralizer, subgroup_normalizer)
from .sylow import (_nilpotent_by_orders, is_nilpotent, p_part, prime_factors,
                    sylow_subgroup)

FULL_SEARCH_CAP = 100_000
SYLOW_SEED_ORDER = 10_000


@dataclass(frozen=True)
class SubgroupClassSet:
    """Conjugacy classes of subgroups of a common parent.

    Immutable, so one result can be handed to several readers.
    """

    parent: PermGroup
    representatives: tuple[PermGroup, ...] = ()

    @property
    def class_count(self) -> int:
        return len(self.representatives)


def is_carter_witness(G: PermGroup, K: PermGroup) -> bool:
    """Whether K is nilpotent and self-normalizing in G.

    Usable far beyond the full-search cap: only one normalizer run.
    """
    if not K.is_subgroup_of(G):
        raise ValueError("K is not a subgroup of G")
    if not is_nilpotent(K):
        return False
    return subgroup_normalizer(G, K).order() == K.order()


def _prime_order_candidates(N: PermGroup, H: PermGroup) -> list:
    """(x, p) for the x in N with xH of prime order p, up to N-conjugacy.

    Deterministic: each x is the least element of its N-class, and the
    pairs are sorted.  ``prime_step`` is a class function of N, as
    ``class_orbits`` requires, since N normalizes H; it records the p it
    finds for each class it keeps, in the order the classes are listed.
    """
    found = []

    def prime_step(y) -> bool:
        # yH has prime order p iff yH != H and y^p lies in H for a prime p | o(y)
        if y in H:
            return False
        o = y.order()
        primes = prime_factors(o)
        # of prime order o, y^o is the identity, which lies in H
        p = o if primes == [o] else next(
            (p for p in primes if (y ** p) in H), None)
        if p is None:
            return False
        found.append(p)
        return True

    return sorted((min(f), found[i]) for i, f
                  in enumerate(class_orbits(N, N.elements(), prime_step)))


def carter_subgroups(G: PermGroup, cap: int = FULL_SEARCH_CAP) -> SubgroupClassSet:
    """All conjugacy classes of Carter subgroups of G, by exhaustive search."""
    if G.order() > cap:
        raise CapExceeded(
            f"|G| = {G.order()} exceeds the full-search cap {cap}; "
            "use is_carter_witness for single candidates")
    # every normalizer the search lists is a subgroup of G
    if G.order() > search.CLASS_ENUMERATION_CAP:
        raise CapExceeded(f"|G| = {G.order()} exceeds class enumeration cap")
    buckets: dict[tuple, list[PermGroup]] = {}

    def is_new(H: PermGroup, orders: tuple) -> bool:
        """Record H's class, bucketed by cheap invariants; True if new."""
        key = (H.order(), H.orbit_signature(), orders)
        bucket = buckets.setdefault(key, [])
        if any(are_conjugate_subgroups(G, rep, H) is not None for rep in bucket):
            return False
        bucket.append(H)
        return True

    primes = prime_factors(G.order())     # every element order divides |G|
    trivial = PermGroup.trivial(G.degree)
    # each node travels with its sorted element orders, its multiset key
    queue = deque([(trivial, (1,))])
    carter_reps = []
    while queue:
        H, orders = queue.popleft()
        N = subgroup_normalizer(G, H)
        if N.order() == H.order():
            carter_reps.append((H, orders))     # nilpotent and self-normalizing
            continue
        if H.is_trivial():
            # first layer: G's classes of elements of prime order p
            if G.order() < SYLOW_SEED_ORDER:
                stream = G.elements()
            else:
                # each element of order p is conjugate into a Sylow p-subgroup
                stream = chain.from_iterable(
                    sylow_subgroup(G, p).elements() for p in primes)
            classes = sorted((len(f), min(f)) for f in class_orbits(
                G, stream, lambda y: y.order() in primes))
            steps = [(x, x.order()) for _, x in classes]
        else:
            steps = _prime_order_candidates(N, H)
        # the candidates in no extension built at H so far
        pending = {x for x, _ in steps}
        for x, p in steps:
            if x not in pending:
                continue        # <H, x> is an extension already built at H
            # xH has order p in N/H, so |<H, x>| = |H| p
            K = PermGroup(H.generators + (x,), G.degree,
                          _known_order=H.order() * p)
            elements = list(K.elements())
            pending.difference_update(elements)
            orders = tuple(sorted(g.order() for g in elements))
            if _nilpotent_by_orders(K.order(), orders) and is_new(K, orders):
                queue.append((K, orders))
    carter_reps.sort(key=lambda node: (node[0].order(), node[1]))
    return SubgroupClassSet(G, tuple(R for R, _ in carter_reps))


def check_syl2_criterion(G: PermGroup) -> bool:
    """Whether N_G(S) = S * C_G(S) for S a Sylow 2-subgroup of G.

    S*C is a subgroup (C centralizes S), so the test compares orders of
    N_G(S) and <S, C_G(S)>.
    """
    S = sylow_subgroup(G, 2)
    N = subgroup_normalizer(G, S)
    C = subgroup_centralizer(G, S)
    SC = PermGroup(S.generators + C.generators, G.degree)
    return SC.order() == N.order()


def carter_class_containing_sylow2(classes: SubgroupClassSet) -> PermGroup | None:
    """The Carter representative holding a full Sylow 2-subgroup, if any."""
    g2 = p_part(classes.parent.order(), 2)
    for rep in classes.representatives:
        if p_part(rep.order(), 2) == g2:
            return rep
    return None
