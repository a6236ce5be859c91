import random

import pytest

from carterlab.errors import CapExceeded
from carterlab.permgrp import bruteforce as bf
from carterlab.permgrp import perm
from carterlab.permgrp import search
from carterlab.permgrp.group import PermGroup
from carterlab.permgrp.perm import Perm
from carterlab.permgrp.search import (are_conjugate_elements,
                                      are_conjugate_subgroups, conjugacy_classes,
                                      element_centralizer,
                                      element_centralizer_with_known_index,
                                      subgroup_centralizer, subgroup_normalizer)
from carterlab.permgrp.sylow import is_prime
from carterlab.rootsys.roots import root_system
from carterlab.rootsys.weyl import weyl_group

from conftest import corpus_upto, random_subgroups


def S(n):
    return PermGroup.symmetric(n)


def cyc(n, *cycles):
    return Perm.from_cycles(n, cycles)


# ---------------------------------------------------------------- normalizer

def test_normalizer_of_c4_in_sym4_is_dihedral():
    C4 = PermGroup([cyc(4, (0, 1, 2, 3))], 4)
    N = subgroup_normalizer(S(4), C4)
    assert N.order() == 8


def test_normalizer_of_c3_in_alt4_is_itself():
    A4 = PermGroup.alternating(4)
    C3 = PermGroup([cyc(4, (0, 1, 2))], 4)
    assert subgroup_normalizer(A4, C3).order() == 3


def test_normalizer_of_whole_group():
    G = S(4)
    assert subgroup_normalizer(G, G).same_group_as(G)


def test_subgroup_walks_above_fingerprint_cap_when_orbits_settle_them():
    """Sym(8) fixing a point is the stabilizer of its own orbits in
    Sym(9), so its normalizer and its self-conjugacy need no fingerprint
    of its 40,320 elements."""
    H = PermGroup([cyc(9, tuple(range(8))), cyc(9, (0, 1))], 9)
    assert H.order() > search.SUBGROUP_FINGERPRINT_CAP
    assert subgroup_normalizer(S(9), H).same_group_as(H)
    assert are_conjugate_subgroups(S(9), H, H).is_identity()


def test_fingerprint_cap_still_bounds_the_fingerprint_walk(monkeypatch):
    # the partition stabilizer of <(0 1)(2 3)> in Sym(4) has order 8, so
    # the normalizer needs the fingerprint walk
    monkeypatch.setattr(search, "SUBGROUP_FINGERPRINT_CAP", 1)
    with pytest.raises(CapExceeded, match="exceeds fingerprint cap 1"):
        subgroup_normalizer(S(4), PermGroup([cyc(4, (0, 1), (2, 3))], 4))


def test_normalizer_requires_subgroup():
    with pytest.raises(ValueError):
        subgroup_normalizer(PermGroup.alternating(4),
                            PermGroup([cyc(4, (0, 1))], 4))


def test_normalizer_matches_brute_force_on_corpus(corpus):
    for spec, G in corpus_upto(corpus, 2000).items():
        for g in G.generators[:2]:
            H = PermGroup([g], G.degree)
            fast = subgroup_normalizer(G, H)
            slow = bf.brute_normalizer(G, H)
            assert fast.same_group_as(slow), spec


def test_normalizer_matches_brute_force_on_random_subgroups(corpus):
    kinds = {"transitive": 0, "intransitive": 0, "fixed points": 0}
    for spec, G, H, _ in random_subgroups(corpus, 11, 4):
        orbit_lengths = [len(o) for o in H.natural_orbits()]
        kinds["transitive" if len(orbit_lengths) == 1 else "intransitive"] += 1
        kinds["fixed points"] += 1 in orbit_lengths
        fast = subgroup_normalizer(G, H)
        slow = bf.brute_normalizer(G, H)
        assert fast.same_group_as(slow), (spec, H.generators)
    assert min(kinds.values()) >= 10, kinds


def test_subgroup_conjugator_maps_onto_random_conjugate(corpus):
    moved = 0
    for spec, G, H, rng in random_subgroups(corpus, 12, 6):
        g = G.random_element(rng)
        Hg = PermGroup([h.conjugate(g) for h in H.generators], G.degree)
        moved += H.natural_orbits() != Hg.natural_orbits()
        c = are_conjugate_subgroups(G, H, Hg)
        assert c is not None and c in G, (spec, H.generators, g)
        Hc = PermGroup([h.conjugate(c) for h in H.generators], G.degree)
        assert Hc.same_group_as(Hg), (spec, H.generators, g)
    assert moved >= 20


def test_subgroup_conjugacy_matches_brute_on_equal_orders(corpus):
    by_group = {}
    for spec, G, H, _ in random_subgroups(corpus, 13, 12):
        by_group.setdefault(spec, (G, []))[1].append(H)
    verdicts = {True: 0, False: 0}
    for spec, (G, subgroups) in by_group.items():
        for i, H1 in enumerate(subgroups):
            for H2 in subgroups[i + 1:]:
                if H1.order() != H2.order() or H1.same_group_as(H2):
                    continue
                fast = are_conjugate_subgroups(G, H1, H2)
                slow = bf.brute_subgroup_conjugator(G, H1, H2)
                assert (fast is None) == (slow is None), (spec, H1.generators,
                                                          H2.generators)
                verdicts[fast is None] += 1
    assert min(verdicts.values()) >= 20, verdicts


# ---------------------------------------------------------------- partitions

def _cells(lab):
    """The partition a label vector encodes, as a set of cells."""
    cells = {}
    for p, c in enumerate(lab):
        cells.setdefault(c, set()).add(p)
    return {frozenset(c) for c in cells.values()}


def _random_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Perm(images)


def test_moved_label_vector_encodes_moved_orbits(corpus):
    """Moving H's orbit partition by g gives H^g's orbit partition, in the
    same canonical form, for g in G, in H, or anywhere in Sym(n)."""
    kinds = {"in G": 0, "in H": 0, "in Sym(n)": 0, "moved": 0}
    for spec, G, H, rng in random_subgroups(corpus, 14, 4):
        lab = search._orbit_partition(H)
        assert _cells(lab) == {frozenset(o) for o in H.natural_orbits()}, spec
        for kind, g in (("in G", G.random_element(rng)),
                        ("in H", H.random_element(rng)),
                        ("in Sym(n)", _random_perm(rng, G.degree))):
            moved = search._move_partition(lab, g)
            assert _cells(moved) == {frozenset(g[p] for p in o)
                                     for o in H.natural_orbits()}, (spec, kind)
            Hg = PermGroup([h.conjugate(g) for h in H.generators], G.degree)
            assert moved == search._orbit_partition(Hg), (spec, kind)
            # the walks move moved vectors: the right action composes
            g2 = _random_perm(rng, G.degree)
            assert search._move_partition(moved, g2) == \
                search._move_partition(lab, g * g2), (spec, kind)
            kinds[kind] += 1
            kinds["moved"] += moved != lab
    assert min(kinds.values()) >= 100, kinds


def test_label_vectors_equal_exactly_when_partitions_equal(corpus):
    verdicts = {True: 0, False: 0}
    by_degree = {}
    for spec, G, H, rng in random_subgroups(corpus, 15, 3):
        lab = search._orbit_partition(H)
        labs = by_degree.setdefault(G.degree, [])
        labs += [lab, search._move_partition(lab, H.random_element(rng)),
                 search._move_partition(lab, G.random_element(rng)),
                 search._move_partition(lab, _random_perm(rng, G.degree))]
    for labs in by_degree.values():
        for i, lab1 in enumerate(labs):
            for lab2 in labs[i + 1:]:
                same = _cells(lab1) == _cells(lab2)
                assert (lab1 == lab2) == same, (lab1, lab2)
                verdicts[same] += 1
    assert min(verdicts.values()) >= 300, verdicts


def _scatter_move(lab, g):
    """The tuple-building partition move: scatter the labels, then name
    each cell by its first point in a scan of the points."""
    moved = [0] * len(lab)
    for p, c in zip(g, lab):
        moved[p] = c
    least = {}
    return tuple(map(least.setdefault, moved, range(len(moved))))


def _random_partition(rng, n):
    """A label vector with entry p the least point of p's cell."""
    cells = rng.randrange(1, n + 1)
    return _scatter_move([rng.randrange(cells) for _ in range(n)], range(n))


@pytest.mark.parametrize("n", [1, 2, 28, 72, 256])
def test_partition_move_matches_the_scatter_move(n):
    """Both permutation layouts move a vector of their own layout as the
    scatter does.  Degree 256 uses every byte of the reversed-positions
    table."""
    rng = random.Random(n)
    for _ in range(200):
        lab, g = _random_partition(rng, n), _random_perm(rng, n)
        for h in (g, tuple.__new__(perm._WidePerm, g)):
            vector = h._label_vector(lab)
            moved = search._move_partition(vector, h)
            assert type(moved) is type(vector) and tuple(moved) == _scatter_move(lab, g)
    singletons, one_cell = tuple(range(n)), (0,) * n
    g = _random_perm(rng, n)
    assert tuple(search._move_partition(bytes(singletons), g)) == singletons
    assert tuple(search._move_partition(bytes(one_cell), g)) == one_cell


@pytest.mark.parametrize("n", [1, 2, 28, 256, 257, 300])
def test_orbit_partition_is_bytes_exactly_for_narrow_groups(n):
    groups = [(PermGroup.trivial(n), tuple(range(n)))]
    if n >= 2:      # <(n-2 n-1)>: the last two points share a cell
        swap = Perm.from_cycles(n, [(n - 2, n - 1)])
        groups.append((PermGroup([swap], n), tuple(range(n - 1)) + (n - 2,)))
    for H, expected in groups:
        lab = search._orbit_partition(H)
        assert (type(lab) is bytes) == isinstance(H.identity(), Perm)
        assert (type(lab) is bytes) == (n <= 256)
        assert tuple(lab) == expected
        g = _random_perm(random.Random(n), n)
        assert tuple(search._move_partition(lab, g)) == _scatter_move(lab, g)


def test_first_layer_is_the_prime_order_classes(corpus):
    """The class lister keeping only prime-order elements, as the Carter
    search's first layer asks it to, gives the prime-order classes of
    ``conjugacy_classes`` without walking the other classes."""
    layers = 0
    for spec, G in corpus.items():
        expected = [(size, rep) for rep, size in conjugacy_classes(G)
                    if is_prime(rep.order())]
        prime = lambda y: is_prime(y.order())
        listed = sorted((len(f), min(f))
                        for f in search.class_orbits(G, G.elements(), prime))
        assert listed == expected, spec
        layers += len(expected) > 1
    assert layers >= 25, layers


# ---------------------------------------------------------------- centralizer

def test_centralizer_corpus_examples():
    assert element_centralizer(S(4), cyc(4, (0, 1), (2, 3))).order() == 8
    assert element_centralizer(S(5), cyc(5, (0, 1, 2))).order() == 6
    assert element_centralizer(S(4), (1, 0, 3, 2)).order() == 8    # image tuple
    G = S(4)
    assert element_centralizer(G, Perm.identity(4)).same_group_as(G)


def test_centralizer_matches_brute_force_on_corpus(corpus):
    for spec, G in corpus_upto(corpus, 2000).items():
        for g in G.generators[:2]:
            fast = element_centralizer(G, g)
            slow = bf.brute_centralizer(G, g)
            assert fast.same_group_as(slow), spec
    # y in Sym(n) with cycles laid out from point 0; |C(y)| = prod l^m_l m_l!
    for n, ctype, order in [(4, (2, 2), 8), (5, (3,), 6), (6, (2, 3), 6),
                            (6, (6,), 6), (7, (2, 2, 3), 24), (6, (2, 2), 16)]:
        starts = [sum(ctype[:i]) for i in range(len(ctype))]
        y = cyc(n, *(tuple(range(s, s + l)) for s, l in zip(starts, ctype)))
        fast = element_centralizer(S(n), y)
        assert fast.order() == order, (n, ctype)
        assert fast.same_group_as(bf.brute_centralizer(S(n), y)), (n, ctype)


def test_subgroup_centralizer_intersects_element_centralizers():
    G = S(5)
    H = PermGroup([cyc(5, (0, 1)), cyc(5, (2, 3))], 5)
    C = subgroup_centralizer(G, H)
    assert C.same_group_as(bf.brute_centralizer(G, list(H.generators)))


def test_known_index_centralizer_matches_full_walk(corpus):
    groups = dict(corpus_upto(corpus, 2000))
    for t, n in (("F", 4), ("E", 6)):
        groups[f"W({t}{n})"] = weyl_group(root_system(t, n)).perm_group
    for spec, G in groups.items():
        for rep, size in conjugacy_classes(G):
            C = element_centralizer_with_known_index(G, rep, size)
            assert C.generators == element_centralizer(G, rep).generators, spec
            assert C.order() * size == G.order(), spec


def test_known_index_centralizer_rejects_bad_class_sizes():
    G, x = S(4), cyc(4, (0, 1))         # |x^G| = 6
    for size in (0, 5, 7):
        with pytest.raises(ValueError):
            element_centralizer_with_known_index(G, x, size)
    # too small: the walk ends before the harvest reaches |G| / 3 = 8
    with pytest.raises(AssertionError):
        element_centralizer_with_known_index(G, x, 3)


# ---------------------------------------------------------------- conjugacy

def test_conjugate_elements_found_and_replayed():
    G = S(5)
    x, y = cyc(5, (0, 1, 2)), cyc(5, (2, 3, 4))
    g = are_conjugate_elements(G, x, y)
    assert g is not None and x.conjugate(g) == y


def test_conjugacy_respects_cycle_type():
    G = S(4)
    assert are_conjugate_elements(G, cyc(4, (0, 1)), cyc(4, (0, 1), (2, 3))) is None


def test_conjugate_elements_identity_case():
    G = S(4)
    x = cyc(4, (0, 1, 2))
    assert are_conjugate_elements(G, x, x).is_identity()


def test_orbit_search_from_a_point_to_itself_is_the_identity():
    x = cyc(5, (0, 1, 2))
    assert search._orbit_search(S(5), x, Perm.conjugate, x).is_identity()


def test_conjugacy_requires_membership():
    with pytest.raises(ValueError):
        are_conjugate_elements(PermGroup.alternating(4),
                               cyc(4, (0, 1)), cyc(4, (2, 3)))


def test_conjugacy_matches_brute_on_corpus(corpus):
    rng = random.Random(4)
    for spec, G in corpus_upto(corpus, 1200).items():
        els = sorted(G.elements())
        for _ in range(3):
            x, y = rng.choice(els), rng.choice(els)
            fast = are_conjugate_elements(G, x, y)
            slow = bf.brute_conjugator(G, x, y)
            assert (fast is None) == (slow is None), spec
            if fast is not None:
                assert x.conjugate(fast) == y


def test_subgroup_conjugacy():
    G = S(4)
    H1 = PermGroup([cyc(4, (0, 1))], 4)
    H2 = PermGroup([cyc(4, (2, 3))], 4)
    H3 = PermGroup([cyc(4, (0, 1), (2, 3))], 4)
    g = are_conjugate_subgroups(G, H1, H2)
    assert g is not None and all(h.conjugate(g) in H2 for h in H1.generators)
    assert are_conjugate_subgroups(G, H1, H3) is None


def test_subgroups_of_unequal_orders_are_refused_before_any_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked")
    monkeypatch.setattr(search, "_orbit_search", no_walk)
    # one orbit each, and H1 < H2: only the orders tell them apart
    H1 = PermGroup([cyc(4, (0, 1, 2, 3))], 4)
    H2 = PermGroup([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 2))], 4)
    assert H1.orbit_signature() == H2.orbit_signature()
    assert are_conjugate_subgroups(S(4), H1, H2) is None


def test_subgroups_with_equal_orbit_partitions_are_conjugated():
    """<(0 1 2 3)> and <(0 2 1 3)> have the one orbit {0..3}, so the
    partition search starts at its target and only the fingerprint walk
    moves."""
    H1 = PermGroup([cyc(4, (0, 1, 2, 3))], 4)
    H2 = PermGroup([cyc(4, (0, 2, 1, 3))], 4)
    assert search._orbit_partition(H1) == search._orbit_partition(H2)
    g = are_conjugate_subgroups(S(4), H1, H2)
    assert PermGroup([h.conjugate(g) for h in H1.generators], 4).same_group_as(H2)
    assert g == cyc(4, (0, 3, 1))


def test_sylow_subgroups_are_conjugate():
    from carterlab.permgrp.sylow import sylow_subgroup
    G = S(3)
    S1 = sylow_subgroup(G, 2)
    S2 = PermGroup([g.conjugate(cyc(3, (0, 1, 2))) for g in S1.generators], 3)
    assert are_conjugate_subgroups(G, S1, S2) is not None


# ---------------------------------------------------------------- classes

def test_class_structure_of_sym3():
    classes = conjugacy_classes(S(3))
    assert sorted(size for _, size in classes) == [1, 2, 3]


def test_class_structure_of_trivial_group():
    # the lister keys members by their base images, and here the base is
    # empty: ``itemgetter`` over no points raises
    for n in (1, 3):
        G = PermGroup.trivial(n)
        assert G.base == ()
        assert conjugacy_classes(G) == [(Perm.identity(n), 1)]


def test_classes_of_groups_with_a_one_point_base():
    """The lister keys members by their base images; ``itemgetter`` over
    one point returns a bare int, not a tuple."""
    WA1 = weyl_group(root_system("A", 1)).perm_group
    for G in (S(2), WA1):
        assert len(G.base) == 1
        swap = next(g for g in G.elements() if not g.is_identity())
        assert conjugacy_classes(G) == [(G.identity(), 1), (swap, 1)]


def test_class_enumeration_cap(monkeypatch):
    monkeypatch.setattr(search, "CLASS_ENUMERATION_CAP", 23)    # |Sym(4)| = 24
    with pytest.raises(CapExceeded) as err:
        conjugacy_classes(S(4))
    assert str(err.value) == "|G| = 24 exceeds class enumeration cap"


def test_class_sizes_sum_and_reps_canonical(corpus):
    for spec, G in corpus_upto(corpus, 2500).items():
        elements = list(G.elements())
        classes = conjugacy_classes(G)
        assert sum(size for _, size in classes) == G.order(), spec
        for rep, size in classes:
            assert rep in G
            cls = {rep.conjugate(g) for g in elements}    # by brute force
            assert size == len(cls) and rep == min(cls), spec


def test_walk_results_do_not_depend_on_the_walk_generators(monkeypatch):
    """Class lists, Carter representatives, the W(E6) scan and twisted
    classes are the same whether the walks act through the short set or
    the realized generators; only returned conjugators may differ.  The
    pair rule finds no pair for W(D4), which walks through all four of
    its realized generators either way; W(A3) walks through a pair."""
    from carterlab.linear.groupspec import realize
    from carterlab.permgrp.carter import carter_subgroups
    from carterlab.rootsys.e6scan import e6_centralizer_scan
    from carterlab.rootsys.weyl import f_conjugacy_classes, twist_by_name
    A3, D4 = (weyl_group(root_system(t, n)) for t, n in (("A", 3), ("D", 4)))
    twisted = [(A3, "flip")] + [(D4, name) for name in ("id", "flip", "triality")]
    classed = [realize(spec).group
               for spec in ("W(E6)", "Ext(PSL(2,27), frob)", "PSp(4,3)")]
    searched = [realize(spec).group for spec in
                ("Sym(4)", "GL(2,3)", "PSL(2,7)", "Ext(PSL(2,8), frob)")]
    assert all(len(G.walk_generators) < len(G.generators)
               for G in classed + [A3.perm_group])

    def results():
        return ([conjugacy_classes(G) for G in classed],
                [[(R.order(), [str(g) for g in R.generators])
                  for R in carter_subgroups(G).representatives]
                 for G in searched],
                e6_centralizer_scan(),
                [f_conjugacy_classes(W, twist_by_name(W.system, name))
                 for W, name in twisted])

    short = results()
    monkeypatch.setattr(PermGroup, "walk_generators",
                        property(lambda G: G.generators))
    assert results() == short


# ------------------------------------------ the walk against an eager one

def _eager_walk(transversal: dict, gens, act):
    """The orbit walk that multiplies out every point's transversal
    element as it finds the point; edges as ``(u, s, image, known)``."""
    queue = list(transversal)
    for point in queue:         # the list grows while it is walked
        u = transversal[point]
        for s in gens:
            image = act(point, s)
            known = transversal.get(image)
            if known is None:
                transversal[image] = u * s
                queue.append(image)
            yield u, s, image, known


def _eager_stabilizer(G, start, act, seed_gens=(), order=None):
    transversal = {start: Perm.identity(G.degree)}
    edges = ((u, s, known) for u, s, _, known
             in _eager_walk(transversal, G.walk_generators, act)
             if known is not None)
    if order is None:
        edges = list(edges)
        order = G.order() // len(transversal)
    stab = PermGroup(seed_gens, G.degree, _known_order=order)
    if stab.order() < order:
        for u, s, known in edges:
            g = u * s / known
            if not g.is_identity() and g not in stab:
                stab = PermGroup(stab.generators + (g,), G.degree,
                                 _known_order=order)
                if stab.order() == order:
                    break
    assert stab.order() == order
    return stab


def _eager_orbit_search(G, start, act, target):
    if start == target:
        return Perm.identity(G.degree)
    transversal = {start: Perm.identity(G.degree)}
    for _, _, image, known in _eager_walk(transversal, G.walk_generators, act):
        if known is None and image == target:
            return transversal[image]
    return None


def _same_walks(G, start, act, targets, seed_gens=(), order=None):
    """The stabilizer's generators and the conjugators to ``targets``
    agree with the eager walk's."""
    assert (search._stabilizer(G, start, act, seed_gens, order).generators
            == _eager_stabilizer(G, start, act, seed_gens, order).generators)
    for target in targets:
        assert (search._orbit_search(G, start, act, target)
                == _eager_orbit_search(G, start, act, target))


def test_walk_builds_the_elements_an_eager_transversal_builds(corpus):
    """Stabilizer generators and conjugators of the walk that multiplies
    out only the elements it reads, against the walk that multiplies out
    every one, for the three actions: elements by conjugation, orbit
    partitions and fingerprints.  Targets lie in the orbit but for the
    last, which may not."""
    conj, move = Perm.conjugate, search._move_partition
    draws = 0
    for spec, G, H, rng in random_subgroups(corpus, 18, 3):
        x, y = H.generators[0], G.random_element(rng)
        gs = [G.random_element(rng) for _ in range(2)]
        _same_walks(G, x, conj, [x.conjugate(g) for g in gs] + [y])
        _same_walks(G, x, conj, [], order=element_centralizer(G, x).order())

        part = search._orbit_partition(H)
        other = search._orbit_partition(PermGroup([y], G.degree))
        _same_walks(G, part, move, [move(part, g) for g in gs] + [other],
                    seed_gens=H.generators)

        K = search._partition_stabilizer(G, H)
        fp = search._fingerprint(H)
        ks = [K.random_element(rng) for _ in range(2)]
        fp_other = search._fingerprint(PermGroup([y], G.degree))
        _same_walks(K, fp, search._conj_fingerprint,
                    [search._conj_fingerprint(fp, k) for k in ks] + [fp_other],
                    seed_gens=H.generators)
        draws += 1
    assert draws >= 60, draws
