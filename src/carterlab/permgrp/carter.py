"""Carter subgroups: exhaustive search, witness checks, Sylow-2 criterion.

A Carter subgroup is a nilpotent self-normalizing subgroup.  The search
enumerates nilpotent subgroups up to conjugacy by breadth-first cyclic
extension: starting from the trivial subgroup, a class representative H
is extended by every element x of prime order modulo H drawn from
N_G(H) with <H, x> still nilpotent.  This reaches every Carter subgroup
because a proper subgroup of a nilpotent K never equals its normalizer
in K, so K grows from the trivial subgroup through such prime steps.
Self-normalizing nodes are exactly the Carter classes.

Three economies keep this desk-sized.  Extension candidates are taken
up to N_G(H)-conjugacy (conjugate candidates give G-conjugate
extensions, since they fix H).  Both the first layer, G's classes of
prime-order elements, and the candidates of later layers are listed by
the one class lister that ``conjugacy_classes`` uses, given the
candidate test as a class function: it tests one element per listed
class and never walks the classes the test rejects.  Class
deduplication buckets subgroups by (order, orbit signature,
element-order multiset), computed once per subgroup, before running a
conjugacy search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import CapExceeded
from .group import PermGroup
from .search import (_classes, are_conjugate_subgroups, subgroup_centralizer,
                     subgroup_normalizer)
from .sylow import is_nilpotent, p_part, prime_factors, sylow_subgroup

FULL_SEARCH_CAP = 100_000
_CANDIDATE_ENUM_CAP = 120_000


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


def _order_multiset(H: PermGroup) -> tuple:
    return tuple(sorted(g.order() for g in H.elements()))


def _prime_order_candidates(N: PermGroup, H: PermGroup):
    """Elements of N of prime order modulo H, up to N-conjugacy.

    Deterministic: each representative is the least element of its
    N-class.  ``prime_step`` is a class function of N, as ``_classes``
    requires, since N normalizes H.
    """
    def prime_step(y) -> bool:
        # yH has prime order iff yH != H and y^p lies in H for a prime p | o(y)
        return y not in H and any((y ** p) in H for p in prime_factors(y.order()))

    return sorted(rep for _, rep in _classes(N, prime_step))


def carter_subgroups(G: PermGroup, cap: int = FULL_SEARCH_CAP) -> SubgroupClassSet:
    """All conjugacy classes of Carter subgroups of G, by exhaustive search."""
    if G.order() > cap:
        raise CapExceeded(
            f"|G| = {G.order()} exceeds the full-search cap {cap}; "
            "use is_carter_witness for single candidates")
    buckets: dict[tuple, list[PermGroup]] = {}

    def is_new(H: PermGroup) -> bool:
        """Record H's class, bucketed by cheap invariants; True if new."""
        key = (H.order(), H.orbit_signature(), _order_multiset(H))
        bucket = buckets.setdefault(key, [])
        if any(are_conjugate_subgroups(G, rep, H) is not None for rep in bucket):
            return False
        bucket.append(H)
        return True

    primes = set(prime_factors(G.order()))     # every element order divides |G|
    trivial = PermGroup.trivial(G.degree)
    is_new(trivial)
    queue = deque([trivial])
    carter_reps = []
    while queue:
        H = queue.popleft()
        N = subgroup_normalizer(G, H)
        if N.order() == H.order():
            carter_reps.append(H)     # nilpotent and self-normalizing
            continue
        if H.is_trivial():
            # first layer: prime-order class representatives of G itself
            reps = [rep for _, rep in _classes(G, lambda y: y.order() in primes)]
        else:
            if N.order() > _CANDIDATE_ENUM_CAP:
                raise CapExceeded(
                    f"normalizer order {N.order()} exceeds enumeration cap")
            reps = _prime_order_candidates(N, H)
        for x in reps:
            K = PermGroup(H.generators + (x,), G.degree)
            if not is_nilpotent(K):
                continue
            if is_new(K):
                queue.append(K)
    return SubgroupClassSet(G, tuple(sorted(
        carter_reps, key=lambda R: (R.order(), _order_multiset(R)))))


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
