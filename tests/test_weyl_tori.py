import hashlib
import itertools
import math

import pytest

from carterlab.errors import InputError
from carterlab.linear.classical import lie_order
from carterlab.linear.groupspec import realize
from carterlab.permgrp.bruteforce import brute_normalizer
from carterlab.permgrp.group import PermGroup, orbits
from carterlab.permgrp.perm import Perm
from carterlab.permgrp.search import (conjugacy_classes,
                                      element_centralizer_with_known_index)
from carterlab.rootsys.e6scan import (e6_centralizer_scan,
                                      scan_order3_self_normalizers)
from carterlab.rootsys.roots import SUPPORTED, root_system
from carterlab.rootsys import subsystems
from carterlab.rootsys.subsystems import borel_de_siebenthal
from carterlab.rootsys.weyl import (f_conjugacy_classes, flip_twist,
                                    identity_twist, order_polynomial,
                                    torus_order, triality_twist, twist_by_name,
                                    weyl_group)

WEYL_ORDERS = {("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("C", 2): 8,
               ("C", 3): 48, ("B", 3): 48, ("D", 4): 192, ("G", 2): 12,
               ("F", 4): 1152, ("E", 6): 51840}


@pytest.mark.parametrize("t,n", sorted(WEYL_ORDERS))
def test_weyl_group_orders(t, n):
    assert weyl_group(root_system(t, n)).order() == WEYL_ORDERS[(t, n)]


@pytest.mark.parametrize("t,n", [(t, n) for (t, n), o in WEYL_ORDERS.items()
                                 if o <= 5000])
def test_weyl_order_agrees_with_brute_closure(t, n):
    from carterlab.permgrp.bruteforce import closure_order
    W = weyl_group(root_system(t, n)).perm_group
    assert W.order() == closure_order(W.generators, W.degree)


def test_w_e6_order_from_independent_bases():
    # 51840 = product of basic orbit lengths, reproduced from two chains
    # built over deliberately different prescribed bases
    W = weyl_group(root_system("E", 6)).perm_group
    import random
    rng = random.Random(9)
    hints = [rng.sample(range(72), 72) for _ in range(2)]
    orders = {W.rebase(h).order() for h in hints}
    assert orders == {51840}


def test_weyl_a2_is_sym3_and_e6_class_count():
    WA2 = weyl_group(root_system("A", 2))
    assert sorted(s for _, s in conjugacy_classes(WA2.perm_group)) == [1, 2, 3]


def test_reflection_formula_everywhere():
    for t, n in [("C", 2), ("G", 2), ("B", 3), ("D", 4)]:
        system = root_system(t, n)
        W = weyl_group(system)
        for i, alpha in enumerate(system.simples):
            s = W.simple_reflections[i]
            for r in system.roots:
                assert W.root_image(s, r) == system.reflect(r, alpha)


@pytest.mark.parametrize("name", ["A7", "B7", "C7", "D7", "E6", "E7", "F4", "G2"])
def test_root_reflections_are_the_reflections(name):
    """The table conjugated out from the simple reflections sends every
    root id where the coordinate formula s_r(x) = x - <x,r> r does."""
    system = root_system(name[0], int(name[1:]))
    table = weyl_group(system).root_reflections
    index = system.index
    assert len(table) == len(system.roots)
    for r in system.roots:
        s_r = table[index[r]]
        for x in system.roots:
            assert s_r[index[x]] == index[system.reflect(x, r)]


def test_lattice_matrix_of_identity():
    W = weyl_group(root_system("C", 3))
    ident = W.perm_group.identity()
    assert W.lattice_matrix(ident) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("t,n", [(t, n) for t, ranks in SUPPORTED.items()
                                 for n in ranks])
def test_split_identity_torus_order(t, n):
    system = root_system(t, n)
    W = weyl_group(system)
    tau = identity_twist(system)
    ident = W.perm_group.identity()
    for q in (2, 3, 4, 5):
        assert torus_order(W, ident, tau, q) == (q - 1) ** n


def test_a1_split_classes():
    system = root_system("A", 1)
    W = weyl_group(system)
    classes = f_conjugacy_classes(W, identity_twist(system))
    assert sorted(c.order_at(7) for c in classes) == [6, 8]


def test_a2_split_classes():
    system = root_system("A", 2)
    classes = f_conjugacy_classes(weyl_group(system), identity_twist(system))
    assert len(classes) == 3
    assert sorted(c.order_at(4) for c in classes) == [9, 15, 21]


def test_twisted_a2_has_q_plus_one_squared_torus():
    system = root_system("A", 2)
    classes = f_conjugacy_classes(weyl_group(system), flip_twist(system))
    assert sum(c.size for c in classes) == 6
    for q in (2, 3, 5, 7):
        orders = {c.order_at(q) for c in classes}
        assert {(q + 1) ** 2, q * q - 1, q * q - q + 1} <= orders


def test_flip_twist_on_a2_by_exhaustion():
    # brute-force the twisted-conjugacy orbits over all 6 elements
    system = root_system("A", 2)
    W = weyl_group(system)
    tau = flip_twist(system)
    t = tau.root_perm
    els = list(W.perm_group.elements())
    seen = set()
    orbits = 0
    for x in els:
        if x in seen:
            continue
        orbit = {u.inverse() * x * (t.inverse() * u * t) for u in els}
        seen |= orbit
        orbits += 1
    assert orbits == len(f_conjugacy_classes(W, tau))


def test_class_sizes_sum_for_corpus_twists():
    corpus = [("A", 1, "id"), ("A", 2, "id"), ("A", 2, "flip"), ("A", 3, "id"),
              ("A", 3, "flip"), ("C", 2, "id"), ("C", 3, "id"), ("G", 2, "id"),
              ("D", 4, "id"), ("D", 4, "flip"), ("D", 4, "triality")]
    from carterlab.rootsys.weyl import twist_by_name
    for t, n, twist_name in corpus:
        system = root_system(t, n)
        W = weyl_group(system)
        tau = twist_by_name(system, twist_name)
        classes = f_conjugacy_classes(W, tau)
        assert sum(c.size for c in classes) == W.order(), (t, n, twist_name)


def test_torus_orders_divide_lie_order():
    cases = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2), ("C", 3), ("C", 4)]
    for t, n in cases:
        system = root_system(t, n)
        W = weyl_group(system)
        classes = f_conjugacy_classes(W, identity_twist(system))
        for q in (2, 3, 5, 7):
            group_order = lie_order(t, n, q)
            for c in classes:
                assert group_order % c.order_at(q) == 0, (t, n, q, c.order_poly)
    # the twisted rank-2 family against the unitary order
    system = root_system("A", 2)
    classes = f_conjugacy_classes(weyl_group(system), flip_twist(system))
    for q in (2, 3, 5, 7):
        su_order = lie_order("A", 2, q, twisted=True)
        for c in classes:
            assert su_order % c.order_at(q) == 0


def test_torus_order_polynomials_normalized_positive():
    system = root_system("C", 2)
    W = weyl_group(system)
    for c in f_conjugacy_classes(W, identity_twist(system)):
        assert c.order_poly[-1] > 0
        assert c.order_at(3) > 0


def leibniz_det(m) -> int:
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


@pytest.mark.parametrize("t,n,twist", [("A", 2, identity_twist), ("C", 2, identity_twist),
                                       ("G", 2, identity_twist), ("D", 4, triality_twist)])
def test_order_polynomial_is_det_q_m_minus_i(t, n, twist):
    # det(qM - I) has degree r and leading coefficient det(M) = +-1, so
    # agreeing at r + 1 integers q pins down the normalized polynomial
    system = root_system(t, n)
    W = weyl_group(system)
    tau = twist(system)
    Mt = tau.matrix()
    for w in W.perm_group.elements():
        Mw = W.lattice_matrix(w)
        M = [[sum(Mt[i][k] * Mw[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        sign = leibniz_det(M)
        poly = order_polynomial(W, w, tau)
        for q in range(n + 1):
            qm_minus_i = [[q * M[i][j] - (i == j) for j in range(n)] for i in range(n)]
            assert sum(c * q ** e for e, c in enumerate(poly)) == sign * leibniz_det(qm_minus_i)


def test_triality_twist_properties():
    system = root_system("D", 4)
    tri = triality_twist(system)
    assert tri.order == 3
    W = weyl_group(system)
    t = tri.root_perm
    for s in W.simple_reflections:
        assert (t.inverse() * s * t) in W.perm_group  # normalizes W
    with pytest.raises(ValueError):
        triality_twist(root_system("D", 5))


def test_flip_twist_unavailable_where_no_symmetry():
    with pytest.raises(ValueError):
        flip_twist(root_system("C", 3))


def test_rep_words_multiply_to_reps():
    system = root_system("C", 2)
    W = weyl_group(system)
    for c in f_conjugacy_classes(W, identity_twist(system)):
        w = W.perm_group.identity()
        for i in c.rep_word:
            w = w * W.simple_reflections[i]
        assert w == c.rep


def test_bds_subsystems_are_closed(subtests=None):
    for t, n in [("G", 2), ("C", 2), ("C", 3), ("A", 3), ("B", 3)]:
        system = root_system(t, n)
        all_roots = set(system.roots)
        for sub in borel_de_siebenthal(system):
            closed = sub.roots
            for r1, r2 in itertools.product(closed, repeat=2):
                tot = tuple(a + b for a, b in zip(r1, r2))
                if tot in all_roots:
                    assert tot in closed, (t, n, sub.label)


# Class count and SHA-256 of repr([(label, basis, sorted(roots))]) for
# every supported system but E8, as the diagram-walking classifier and
# per-candidate orbit walks produced them.
SUBSYSTEM_PINS = {
    "A1": (1, "7bb61acf079f5d897f0954750cf66f4ee0a6277d2df2ef3d0b6a0d989908a4e0"),
    "A2": (2, "490f24237a78ea4daf1253209608e27d9fcb6ca420e7ed97d11451fb5585076a"),
    "A3": (4, "bdd0c459478e50d0f18be57ca3d1163232c7fb67102da660de89a3144fa40938"),
    "A4": (6, "68c1930b949a6e38739d4b70aef68e31ad9cc4288859c775c5b5e5194db1fff6"),
    "A5": (10, "ad88f060e0a60020537fb22495f2feff9d2f75c021e755bcc984483f7916f764"),
    "A6": (14, "598228fa1f3d19e3295dc047e0131b5e4245520048ea178034ebcbc2a7b91cfb"),
    "A7": (21, "95e04c142066016a6ba29659471dae18532ee0256971ab3edc20443760e52b80"),
    "B2": (4, "eb394133e83dbf22fd47daa6f8d5ee831d64d2a686a1d454e24c3a39a2f019aa"),
    "B3": (9, "7dc6a7b1a490703842cdbee944311fa6b17a23c18b5f073a2ec2f526174f6411"),
    "B4": (19, "4080dbbfd9caa4872182abc34922c8149a22320dd4b1e73dc3aefbe3274e9600"),
    "B5": (35, "cb1b0468ba93913b03b015c4f85e566aa99d15ea7e76e49da72ad7b2d88d60c3"),
    "B6": (64, "5369d7181607d9466cd28a2ce5b6198258198c5e879ff0051751baa32c969a11"),
    "B7": (109, "62235d1b233aa54c91083fbecce967b700f77b733d658ab8c65fcb47ef591408"),
    "C2": (4, "2166153e331c151fb64ba7fd3c36730ca1576d76365cd871ae22d6276271377b"),
    "C3": (9, "f30b8fe8ef17475e6ad3dc11c0e76dfecd1a1baf92945b16e04c1f98909af037"),
    "C4": (19, "1533c25e7fe04ca5b4ffae8a6ca124a58ed0ad2c86a0ffc9f40c1a40869226e2"),
    "C5": (35, "ceaca5735387058b84152aac7ef43c6497eba162bf058cc27598d373d7560e1a"),
    "C6": (64, "dae7f6da311856dda504035d006a94b5abb37048295fed17cc6fae513f335e6e"),
    "C7": (109, "4ed9180b6ffd76f90e43548436fef477fd0049d1c3ab0d1cfa1aeeee2a54caa8"),
    "D3": (4, "cbfcfe0a69f7d031217d67a2023307ee59a6578aa757f6aa5871bf1609064747"),
    "D4": (11, "1c973ff5b473d891b9c79a252af2c99451cbf21f96060d262a537490fabeed2c"),
    "D5": (15, "46fdf843513a46aafcd8c91b7af93e25839ede3f451c97467716490d5e8b55ba"),
    "D6": (31, "3cdbb58f117f563390db60ba87f1b612cf34adf7a8f8b74bf3d6ac346de9131a"),
    "D7": (44, "05a80a9338ed3b39fc72756615e61fa0843cb81faf5e2d77be100874bbddc255"),
    "E6": (20, "6b5b6cd6c9ce55a878dc35a8a03531d1e9a91ea9a8f45fc9e5894d6e34c2e313"),
    "E7": (46, "564aeeaee1d5ab7d7ca207c4a8a4a776f5c9677bcc5cfd95d03cac9de298b45e"),
    "F4": (23, "c0c66486ebe9bb9381c28ecc805ea42aa1437fcaa53b2c63c5949c89a16d6c0b"),
    "G2": (5, "df1e6f089afd1a57bd1177092a8afbc58087a874f3da0c1f1d401d38a2ff5891"),
}


@pytest.mark.parametrize("name", sorted(SUBSYSTEM_PINS))
def test_subsystem_classes_are_pinned(name):
    subs = borel_de_siebenthal(root_system(name[0], int(name[1:])))
    digest = hashlib.sha256(repr([(s.label, s.basis, sorted(s.roots))
                                  for s in subs]).encode()).hexdigest()
    assert (len(subs), digest) == SUBSYSTEM_PINS[name]


@pytest.mark.parametrize("name,labels", [
    ("G2", ["A1", "A1+A1~", "A1~", "A2", "G2"]),
    # D3 is reported as A3 and B2 as C2
    ("B3", ["A1", "A1+A1", "A1+A1+A1~", "A1+A1~", "A1~", "A2", "A3", "B3",
            "C2"]),
    # three classes of A3 (and of A1+A1), permuted by triality
    ("D4", ["A1", "A1+A1", "A1+A1", "A1+A1", "A1+A1+A1", "A1+A1+A1+A1", "A2",
            "A3", "A3", "A3", "D4"]),
    ("E6", ["A1", "A1+A1", "A1+A1+A1", "A1+A1+A1+A1", "A1+A1+A2",
            "A1+A1+A3", "A1+A2", "A1+A2+A2", "A1+A3", "A1+A4", "A1+A5", "A2",
            "A2+A2", "A2+A2+A2", "A3", "A4", "A5", "D4", "D5", "E6"]),
])
def test_subsystem_labels(name, labels):
    subs = borel_de_siebenthal(root_system(name[0], int(name[1:])))
    assert sorted(s.label for s in subs) == labels


@pytest.mark.parametrize("name,walks,points", [("E6", 20, 5078),
                                               ("F4", 23, 446)])
def test_subsystem_orbit_walk_count(monkeypatch, name, walks, points):
    """A perf gate that does not depend on the machine: one Weyl-orbit
    walk per subsystem class.  Walking every candidate's orbit makes 162
    walks on E6 and 135 on F4."""
    sizes = []
    walk = subsystems.orbit

    def counting(*args):
        found = walk(*args)
        sizes.append(len(found))
        return found

    monkeypatch.setattr(subsystems, "orbit", counting)
    subs = borel_de_siebenthal(root_system(name[0], int(name[1:])))
    assert len(subs) == walks
    assert (len(sizes), sum(sizes)) == (walks, points)


def test_subsystem_coordinate_closure_count(monkeypatch):
    """A perf gate that does not depend on the machine.  Candidate root
    sets are closed on root ids, and a kept class's roots are read from
    its ids, so on E6 only the 39 components of the 20 kept classes
    rebuild roots from coordinates, for their highest roots.  Closing
    every candidate from coordinates made 260 closures."""
    calls = []
    closure = subsystems.reflection_closure

    def counting(basis):
        calls.append(len(basis))
        return closure(basis)

    monkeypatch.setattr(subsystems, "reflection_closure", counting)
    assert len(borel_de_siebenthal(root_system("E", 6))) == 20
    assert len(calls) == 39


def test_subsystem_memory():
    """A memory gate for the orbit walks: ``seen`` keeps each root-id set
    as its sorted ids, one byte per root of the set, not as the
    |Phi|-byte mask the walk moves.  E7's enumeration peaks at 10.4 MB
    under tracemalloc; keeping the masks in ``seen`` took it to 21.5 MB."""
    import tracemalloc
    system = root_system("E", 7)
    weyl_group(system).root_reflections   # built once per system, before the gate
    tracemalloc.start()
    try:
        subs = borel_de_siebenthal(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(subs) == SUBSYSTEM_PINS["E7"][0]
    assert peak < 12_000_000, peak


@pytest.mark.parametrize("spec,classes,offenders", [
    ("Alt(4)", 1, 1), ("Sym(4)", 1, 0), ("Sym(3)", 1, 0), ("Alt(5)", 1, 0),
    ("SL(2,3)", 1, 0), ("PSL(2,7)", 1, 0), ("W(G2)", 1, 0), ("W(C2)", 0, 0)])
def test_order3_scan_matches_brute_normalizers(spec, classes, offenders):
    C = realize(spec).group
    n_classes, found = scan_order3_self_normalizers(C)
    assert (n_classes, len(found)) == (classes, offenders)
    # every order-3 subgroup contributes |N_C(<x>)| / |C| to its class
    normalizers = {}
    for y in C.elements():
        if y.order() == 3 and frozenset((y, y * y)) not in normalizers:
            normalizers[frozenset((y, y * y))] = brute_normalizer(
                C, PermGroup([y], C.degree)).order()
    assert sum(normalizers.values()) == n_classes * C.order()
    self_normalizing = [k for k, n in normalizers.items() if n == 3]
    assert len(self_normalizing) * 3 == len(found) * C.order()
    for x in found:
        assert normalizers[frozenset((x, x * x))] == 3


def test_e6_scan_conjugation_count(conjugations):
    """A perf gate that does not depend on the machine: conjugations.

    The bound is the count the scan makes when each known-index
    centralizer stops its walk at |W| / |x^W| and every walk acts
    through the two walk generators; it is deterministic.  Walks through
    W(E6)'s six realized generators make 368,456, and then a walk that
    covers every class again makes 625,340.  The class walks' 2 |W|
    conjugations run on byte tables; the centralizer walks call
    ``Perm.conjugate``.
    """
    results = e6_centralizer_scan()
    assert [r.order3_subgroup_classes for r in results] == [
        3, 2, 3, 5, 5, 1, 7, 1, 1, 1, 4, 3, 3, 3, 3, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0]
    assert all(r.passed for r in results)
    assert sum(conjugations.values()) <= 109_361
    assert conjugations["conjugate"] == 5_674


def test_e6_scan_product_count(products):
    """A perf gate that does not depend on the machine: Perm.__mul__
    calls.  The scan lists W(E6)'s order-3 subgroups once, from the
    order-3 class representatives; a centralizer smaller than that list
    cubes its elements, and a larger one tests which commute with its
    element; each known-order chain build stops at its order; a chain
    level extends its orbit from the generator just added, and a
    centralizer walk multiplies out only the elements its harvest reads.
    Cubing every element of every centralizer made 263,160 products, and
    eager transversals 17,224."""
    W = weyl_group(root_system("E", 6)).perm_group
    W.walk_generators               # derived once per group, before the gate
    products.clear()
    results = e6_centralizer_scan()
    assert all(r.passed for r in results)
    assert sum(products.values()) <= 15_736


def test_e6_scan_matches_the_scan_of_every_element():
    """The seeded scan against the public scan, which cubes every
    element of each of W(E6)'s 25 centralizers."""
    W = weyl_group(root_system("E", 6)).perm_group
    expected = []
    for rep, size in conjugacy_classes(W):
        C = element_centralizer_with_known_index(W, rep, size)
        expected.append(scan_order3_self_normalizers(C))
    assert [(r.order3_subgroup_classes, r.self_normalizing)
            for r in e6_centralizer_scan()] == expected


def test_e6_class_listing_reads_until_every_class_is_found(monkeypatch):
    """A perf gate that does not depend on the machine: the class lister
    stops once the classes it listed cover |W|, at the 1,436th of W(E6)'s
    51,840 elements."""
    W = weyl_group(root_system("E", 6)).perm_group
    read = [0]
    elements = W.elements

    def counting():
        for y in elements():
            read[0] += 1
            yield y

    monkeypatch.setattr(W, "elements", counting)
    assert sum(size for _, size in conjugacy_classes(W)) == 51_840
    assert read[0] <= 1_436


def test_e6_class_listing_memory():
    """A memory gate for class listing: the lister remembers each member
    by its base images, not as a degree-72 permutation, so listing the
    classes of W(E6) never holds its 51,840 elements (34.5 MB at peak
    when it did).  The class list itself is pinned by its SHA-256."""
    import tracemalloc
    W = weyl_group(root_system("E", 6)).perm_group
    W.walk_generators               # derived once per group, before the gate
    tracemalloc.start()
    try:
        classes = conjugacy_classes(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(classes) == 25
    assert hashlib.sha256(repr(classes).encode()).hexdigest() == (
        "80b4309c34642ac95fc6e7bb3fc36120b770150cef833ffc532613a3b3501a03")
    assert peak < 16_000_000, peak


@pytest.mark.parametrize("twist", [identity_twist, flip_twist])
def test_e6_twisted_class_listing_memory(twist):
    """A memory gate for the twisted classes behind ``torus E6``: they
    are listed like every other class listing, by base images, so W(E6)
    is never held (27.7 MB at peak when a word of every element and the
    whole coset were kept)."""
    import tracemalloc
    system = root_system("E", 6)
    W, tau = weyl_group(system), twist(system)
    W.perm_group.walk_generators    # derived once per group, before the gate
    tracemalloc.start()
    try:
        classes = f_conjugacy_classes(W, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(classes) == 25
    assert peak < 16_000_000, peak


@pytest.mark.parametrize("twist", [identity_twist, flip_twist])
def test_e6_twisted_class_conjugation_count(conjugations, twist):
    """A perf gate that does not depend on the machine: each coset
    element is walked once, through W(E6)'s two walk generators, so the
    listing makes exactly 2 |W| conjugations, all in class walks."""
    system = root_system("E", 6)
    W, tau = weyl_group(system), twist(system)
    assert len(W.perm_group.walk_generators) == 2
    f_conjugacy_classes(W, tau)
    assert sum(conjugations.values()) == conjugations["class walk"] == 2 * 51_840


def words_breadth_first(W):
    """Shortest, then lexicographically least, words for every element,
    filled breadth-first, so the dict runs in (length, word) order."""
    ident = W.perm_group.identity()
    words = {ident: ()}
    queue = [ident]
    for w in queue:             # the list grows while it is walked
        for i, s in enumerate(W.simple_reflections):
            nxt = w * s
            if nxt not in words:
                words[nxt] = words[w] + (i,)
                queue.append(nxt)
    return words


def twisted_classes_by_words(W, tau):
    """(rep, rep_word, size) of every twisted class, sorted by (size,
    rep_word): the coset is walked in the words' order, so each class's
    first member is its least (length, word)."""
    words = words_breadth_first(W)
    t = tau.root_perm
    t_inv = t.inverse()
    coset = (y * t_inv for y in words)
    classes = []
    for found in orbits(coset, W.perm_group.generators, type(t).conjugate):
        rep = found[0] * t
        classes.append((rep, words[rep], len(found)))
    return sorted(classes, key=lambda c: (c[2], c[1]))


def weyl_order(t, n):
    f = math.factorial(n)
    return {"A": (n + 1) * f, "B": 2 ** n * f, "C": 2 ** n * f,
            "D": 2 ** (n - 1) * f, "E": {6: 51_840, 7: 2_903_040,
                                         8: 696_729_600}.get(n),
            "F": 1152, "G": 12}[t]


def supported_twists(t, n):
    names = []
    for name in ("id", "flip", "triality"):
        try:
            twist_by_name(root_system(t, n), name)
        except InputError:
            continue
        names.append(name)
    return names


SMALL_TWISTED = [(t, n, name) for t, ranks in sorted(SUPPORTED.items())
                 for n in ranks if weyl_order(t, n) <= 2000
                 for name in supported_twists(t, n)]


@pytest.mark.parametrize("t,n,name", SMALL_TWISTED)
def test_twisted_classes_match_breadth_first_words(t, n, name):
    """Every class's rep and rep_word against a breadth-first word of
    every element, on each system with |W| <= 2,000 under each twist."""
    system = root_system(t, n)
    W = weyl_group(system)
    assert W.order() == weyl_order(t, n)
    tau = twist_by_name(system, name)
    classes = f_conjugacy_classes(W, tau)
    assert [(c.rep, c.rep_word, c.size) for c in classes] == \
        twisted_classes_by_words(W, tau)
    for c in classes:
        w = W.perm_group.identity()
        for i in c.rep_word:
            w = w * W.simple_reflections[i]
        assert w == c.rep
