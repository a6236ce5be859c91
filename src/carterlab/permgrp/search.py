"""Normalizers, centralizers and conjugacy via orbit-stabilizer runs.

Everything here rides the same mechanism: act on a hashable object (an
element by conjugation, the full element fingerprint of a subgroup, or
a partition of the domain), walk the orbit with ``group.Walk``, and
harvest stabilizer generators through Schreier's lemma.  A walk asks
each generator once for its move, a function from a point to its
image, and calls it once per edge; the permutation class makes the
three moves (``_conjugation_move``, ``_fingerprint_move``,
``_partition_move``), so a walk is given the class's method and never
an action on (point, generator) pairs.  The walk keeps one parent link
per point and multiplies out a point's transversal element only when it
is read: a harvest reads those at the ends of the edges it harvests, a
conjugacy test the one at its target.  (A chain level's sifts divide by
every element of its transversal, so the chain keeps its own loop in
``group``, and all of its elements.)  The whole orbit is walked first,
so the stabilizer's order |G| / |orbit| is known before the harvest
starts: Schreier generators are sifted into a growing subgroup,
discarded when redundant, and the harvest stops as soon as that order
is reached.  The growing subgroup starts as the seed, a subgroup of the
stabilizer known in advance (H in the normalizer and conjugacy walks),
with the chain it already has: a rebuild from its generators would give
that same chain (see ``group``).  When the stabilizer's order is
known in advance (a centralizer of an element whose class size is
known), each edge is harvested as the walk meets it, and the walk stops
at the edge that completes the stabilizer; the Schreier generators are
tried in the same order either way, so the stabilizer's generators are
the same.  Normalizers and centralizers harvest a stabilizer
(``_stabilizer``); conjugacy tests search for a target point, and the
walk stops where it finds it (``_orbit_search``).

Subgroup normalizers and subgroup conjugacy first refine by the orbit
partition of H (its orbits on the domain, fixed points included).  Any
element normalizing H permutes H's orbits, so N_G(H) lies in the
partition stabilizer K, and the costly fingerprint walk, which
conjugates every element of H at each step, runs inside K instead of G.
For conjugacy, a partition walk first maps H1's orbits onto H2's; any
conjugator then differs from that map by an element of H2's partition
stabilizer.  A partition is a label vector: entry p is the least point
of p's cell.  Equal partitions give equal vectors, so a walk keys its
transversal by them directly.  A vector has its group's permutation
layout, and the permutation class moves it: two ``translate`` calls and
a ``maketrans`` for a narrow ``Perm``, a Python scatter for a wide one.

Orbits are walked breadth-first through the group's ``walk_generators``,
a short generating set derived once per group, in a fixed order, so
every result (including returned conjugators) is deterministic.  No
other result depends on which generators a walk uses: orbits,
stabilizer orders and yes/no answers are the group's own, and class
representatives are least members, taken with ``min``.  Walks that need
no transversal use ``group.orbits`` (orbit partitions) and the
permutation class's ``_conjugation_orbit`` (classes).

Every walk here conjugates on the permutation module's conjugation
kernel, which makes g's inverse and translation table once per
generator: a class walk (``class_orbits``) pads each member once for
all generators, and a search walk's conjugation and fingerprint moves
are made once per generator and walk.  A conjugated element in a
centralizer walk and every element of a fingerprint image are plain
bytes, equal to their ``Perm``s; they are walk points and dict keys,
and none of them is returned.

One class lister, ``class_orbits``, serves ``conjugacy_classes``, the
Carter search's first layer and its extension candidates, and the
twisted classes of a Weyl group, the classes of W on its coset W·τ⁻¹.
It remembers each member of a listed class only by its base images,
which determine an element within a coset, so a few ints stand for a
whole permutation and the group is never held.  Once the listed
members number |G| the whole coset is listed, and it stops reading its
stream: W(E6)'s classes are all found by its 1,436th element.
"""

from __future__ import annotations

from operator import itemgetter

from ..errors import CapExceeded
from .perm import PERM_TYPES, Perm
from .group import PermGroup, Walk


SUBGROUP_FINGERPRINT_CAP = 10_000
CLASS_ENUMERATION_CAP = 1_000_000


def _stabilizer(G: PermGroup, start, move, seed=None, order=None):
    """Stab_G(start), where ``move(g)`` returns generator g's move.

    The walk acts through ``G.walk_generators``.  Schreier generators
    are harvested from the non-tree edges of the orbit walk, in walk
    order, onto the subgroup ``seed`` of the stabilizer (the trivial
    group if None), starting from its own chain, until the stabilizer
    has order |G| / |orbit|; the stabilizer is the same group for any
    generating set, though its generators are not.  Without ``order``
    the whole orbit is walked first.  Given ``order``, the stabilizer's
    order, each edge is harvested as the walk meets it, and the walk
    stops at the edge that completes the stabilizer.  Only a harvested
    edge's ends have their transversal elements built.
    """
    walk = Walk(start, Perm.identity(G.degree))
    edges = walk.edges(G.walk_generators, move)
    if order is None:
        edges = list(edges)
        # a full walk builds the chain only now: built before the walk, it
        # fragments the heap, and the quick tier peaks 1 MB higher
        order = G.order() // len(walk.points)
    # every group built here lies in the stabilizer, so the stabilizer's
    # order bounds theirs, and each chain build stops once it reaches it
    stab = PermGroup.trivial(G.degree) if seed is None else seed
    if stab.order() < order:
        for i, s, j in edges:
            g = walk.element(i) * s / walk.element(j)
            if not g.is_identity() and g not in stab:
                stab = PermGroup(stab.generators + (g,), G.degree,
                                 _known_order=order)
                if stab.order() == order:
                    break
    # a walk that ran to the end holds the whole stabilizer, of order
    # |G| / |orbit|: given ``order``, this checks the orbit's length
    assert stab.order() == order
    return stab


def _orbit_search(G: PermGroup, start, move, target):
    """A g in G taking ``start`` to ``target`` under ``move``, or None.

    The identity when ``start == target``; otherwise the walk stops at
    ``target``, and g is the transversal element that reaches it, the
    only one built.
    """
    if start == target:
        return Perm.identity(G.degree)
    walk = Walk(start, Perm.identity(G.degree))
    for _ in walk.edges(G.walk_generators, move, target):
        pass
    j = walk.position.get(target)
    return None if j is None else walk.element(j)


def element_centralizer(G: PermGroup, x: Perm) -> PermGroup:
    """C_G(x); x need not lie in G (it must share G's degree)."""
    if len(x) != G.degree:
        raise ValueError("degree mismatch")
    x = x if isinstance(x, PERM_TYPES) else Perm(x)
    return _stabilizer(G, x, type(x)._conjugation_move)


def subgroup_centralizer(G: PermGroup, H: PermGroup) -> PermGroup:
    """C_G(H), by intersecting element centralizers of H's generators.

    Each step shrinks the acting group, so later orbits are cheap.
    """
    current = G
    for h in H.generators:
        current = element_centralizer(current, h)
    return current


def _fingerprint(H: PermGroup) -> frozenset:
    if H.order() > SUBGROUP_FINGERPRINT_CAP:
        raise CapExceeded(
            f"subgroup order {H.order()} exceeds fingerprint cap "
            f"{SUBGROUP_FINGERPRINT_CAP}")
    return frozenset(H.elements())


def _orbit_partition(H: PermGroup):
    """H's orbits on the domain, fixed points included, as a label vector
    in the layout of H's permutations: entry p is the least point of p's
    orbit."""
    lab = [0] * H.degree
    for o in H.natural_orbits():
        for p in o:
            lab[p] = o[0]
    return H.identity()._label_vector(lab)


def subgroup_normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    """N_G(H): the fingerprint walk inside the stabilizer of H's orbits."""
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    if H.order() == G.order() or H.is_trivial():
        return G
    layout = type(H.identity())
    # the stabilizer of H's orbit partition contains N_G(H) and H itself
    K = _stabilizer(G, _orbit_partition(H), layout._partition_move, seed=H)
    if K.order() == H.order():
        return K
    return _stabilizer(K, _fingerprint(H), layout._fingerprint_move, seed=H)


def are_conjugate_elements(G: PermGroup, x: Perm, y: Perm):
    """A g in G with x^g = y, or None.  Prunes by cycle type."""
    if x not in G or y not in G:
        raise ValueError("elements must lie in G")
    if x.cycle_type() != y.cycle_type():
        return None
    return _orbit_search(G, x, type(x)._conjugation_move, y)


def are_conjugate_subgroups(G: PermGroup, H1: PermGroup, H2: PermGroup):
    """A g in G with H1^g = H2, or None.

    Prunes by order and natural-orbit signature, then maps H1's orbit
    partition onto H2's and walks the fingerprint orbit inside the
    stabilizer of H2's partition; pruning never changes answers.
    """
    for H in (H1, H2):
        if not H.is_subgroup_of(G):
            raise ValueError("not a subgroup of G")
    if H1.order() != H2.order():
        return None
    if H1.orbit_signature() != H2.orbit_signature():
        return None
    if H1.is_subgroup_of(H2):       # the orders are equal
        return Perm.identity(G.degree)
    # any conjugator maps H1's orbit partition onto H2's; after g does,
    # the rest of the search lies in the stabilizer of H2's partition
    layout = type(G.identity())
    part2 = _orbit_partition(H2)
    g = _orbit_search(G, _orbit_partition(H1), layout._partition_move, part2)
    if g is None:
        return None
    fp1, fp2 = g._fingerprint_move()(_fingerprint(H1)), _fingerprint(H2)
    if fp1 == fp2:
        return g
    K2 = _stabilizer(G, part2, layout._partition_move, seed=H2)
    hit = _orbit_search(K2, fp1, layout._fingerprint_move, fp2)
    return None if hit is None else g * hit


def conjugacy_classes(G: PermGroup):
    """All conjugacy classes as (representative, size), deterministically.

    Lists every class with ``class_orbits``; class sizes therefore
    certify completeness by summing to |G|.  The representative is the
    lexicographically least element of its class.  Classes are sorted
    by (size, representative).
    """
    if G.order() > CLASS_ENUMERATION_CAP:
        raise CapExceeded(
            f"|G| = {G.order()} exceeds class enumeration cap")
    classes = [(rep, size) for size, rep in sorted(
        (len(f), min(f)) for f in class_orbits(G, G.elements()))]
    assert sum(size for _, size in classes) == G.order()
    return classes


def class_orbits(G: PermGroup, elements, keep=None):
    """Yield the G-conjugation orbit of each of ``elements`` not yet listed.

    ``elements`` is read once, in order, and lies in one coset Gc that
    conjugation by G keeps.  An element already listed is skipped before
    ``keep``, a class function, is called; the orbits it rejects are never
    walked.  A listed member is remembered by its base images alone: y·c
    has c[y[b]] at a base point b, so within Gc they determine it; so
    once |G| members are listed the coset is, and the stream is left
    unread.
    """
    # with one point itemgetter returns a bare int, a key as good as a
    # tuple; with none it raises, but then G is trivial: Gc has one element
    key = itemgetter(*G.base) if G.base else len
    listed, order = set(), G.order()
    for y in elements:
        if key(y) in listed or (keep is not None and not keep(y)):
            continue
        members = y._conjugation_orbit(G.walk_generators)
        listed.update(map(key, members))
        yield members
        if len(listed) == order:    # the whole coset is listed
            return


def element_centralizer_with_known_index(G: PermGroup, x: Perm,
                                         class_size: int) -> PermGroup:
    """C_G(x) when ``class_size`` is |x^G|, as ``conjugacy_classes`` gives it.

    Precondition: ``class_size`` must be |x^G| (``conjugacy_classes``
    asserts that its class sizes sum to |G|).  The centralizer's order
    |G| / class_size is then known, so the walk stops as soon as the
    harvested stabilizer reaches it, and returns the same generators as
    ``element_centralizer``.  Every chain built in the harvest stops
    once its orbit lengths multiply to that order, an upper bound only
    when ``class_size`` is right.  A class size too large can give a
    wrong group unnoticed: a proper subgroup of C_G(x), or a chain that
    stopped short of its generators' group.  One too small fails an assertion
    when the walk runs to the end of the class without reaching the
    order.
    """
    if class_size < 1 or G.order() % class_size:
        raise ValueError(f"class size {class_size} does not divide |G| = {G.order()}")
    return _stabilizer(G, x, type(x)._conjugation_move,
                       order=G.order() // class_size)
