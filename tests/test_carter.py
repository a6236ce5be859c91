import random
from collections import deque
from itertools import chain

import pytest

from conftest import CORPUS_SPECS, corpus_upto, random_subgroups
from carterlab.permgrp import bruteforce, carter
from carterlab.permgrp.bruteforce import (all_subgroups, brute_carter_classes,
                                          brute_centralizer, brute_normalizer,
                                          brute_subgroup_conjugator,
                                          closure_order)
from carterlab.errors import CapExceeded
from carterlab.permgrp.carter import (FULL_SEARCH_CAP, _prime_order_candidates,
                                      carter_class_containing_sylow2,
                                      carter_subgroups, check_syl2_criterion,
                                      is_carter_witness)
from carterlab.permgrp.group import PermGroup
from carterlab.permgrp.perm import Perm
from carterlab.permgrp.search import (are_conjugate_subgroups, class_orbits,
                                      subgroup_normalizer)
from carterlab.permgrp.sylow import (_nilpotent_by_orders, commutator_subgroup,
                                     is_prime, p_part, prime_factors,
                                     sylow_subgroup)
from carterlab.verify import CARTER_CATALOG


SMALL_EXPECTED = {
    # group builder -> (class count, representative orders)
    "Sym(3)": (1, [2]),
    "Sym(4)": (1, [8]),
    "Alt(4)": (1, [3]),
    "Alt(5)": (0, []),
}


@pytest.fixture(scope="module")
def groups(request):
    from carterlab.linear.groupspec import realize
    return {spec: realize(spec).group
            for spec in ["Sym(3)", "Sym(4)", "Alt(4)", "Alt(5)", "SL(2,3)",
                         "GL(2,3)", "PSU(3,2)", "PSL(2,7)"]}


def test_search_matches_subgroup_lattice_oracle(groups):
    for spec, (count, orders) in SMALL_EXPECTED.items():
        G = groups[spec]
        found = carter_subgroups(G)
        oracle = brute_carter_classes(G)
        assert found.class_count == count == len(oracle), spec
        assert sorted(r.order() for r in found.representatives) == orders
        assert sorted(r.order() for r in oracle) == orders


def test_search_matches_oracle_on_matrix_groups(groups):
    for spec in ["SL(2,3)", "GL(2,3)", "PSU(3,2)", "PSL(2,7)"]:
        G = groups[spec]
        found = carter_subgroups(G)
        oracle = brute_carter_classes(G)
        assert found.class_count == len(oracle), spec
        assert sorted(r.order() for r in found.representatives) == \
            sorted(r.order() for r in oracle), spec


# published subgroup counts; for PSU(3,2) and PGU(3,2), the counts of an
# exhaustive walk that extends every subgroup by every element
SUBGROUP_COUNTS = {
    "Sym(3)": 6, "Alt(4)": 10, "SL(2,3)": 15, "Sym(4)": 30, "GL(2,3)": 55,
    "Alt(5)": 59, "Sym(5)": 156, "PSL(2,7)": 179, "PSU(3,2)": 68,
    "PGU(3,2)": 182,
}


def test_subgroup_lattice_oracle_matches_published_counts(corpus):
    for spec, count in SUBGROUP_COUNTS.items():
        assert len(all_subgroups(corpus[spec])) == count, spec


def test_subgroup_lattice_oracle_closure_count(corpus, monkeypatch):
    """A perf gate that does not depend on the machine: closure calls.

    Extending each subgroup by one element per double coset makes 2,392
    calls on PSL(2,7); one call per element outside it would make 28,573.
    """
    calls = [0]
    closure = bruteforce.closure

    def counting(*args, **kwargs):
        calls[0] += 1
        return closure(*args, **kwargs)

    monkeypatch.setattr(bruteforce, "closure", counting)
    assert len(all_subgroups(corpus["PSL(2,7)"])) == 179
    assert calls[0] <= 3_000


def _is_solvable(H):
    derived = H
    while derived.order() > 1:
        below = commutator_subgroup(H, derived, derived)
        if below.order() == derived.order():
            return False
        derived = below
    return True


def _times_cyclic(G, m):
    """G x C_m, with C_m cycling m extra points."""
    n = G.degree
    gens = [Perm(tuple(g) + tuple(range(n, n + m))) for g in G.generators]
    gens.append(Perm(tuple(range(n)) + tuple(n + (i + 1) % m for i in range(m))))
    return PermGroup(gens, n + m)


def test_search_matches_oracle_on_random_subgroups(corpus):
    """Seeded draws H = <2 or 3 random elements> of every corpus group,
    and H = G x C_m for the corpus groups G of order <= 24.

    The Carter subgroups of a direct product are the products of Carter
    subgroups, so the products reach Carter orders above 16, which the
    random draws almost never do.
    """
    rng = random.Random(21)
    candidates = []
    for spec in CORPUS_SPECS:
        G = corpus[spec]
        for _ in range(4):
            gens = [G.random_element(rng) for _ in range(rng.randint(2, 3))]
            candidates.append((spec, PermGroup(gens, G.degree)))
        if G.order() <= 24:
            candidates += [(f"{spec} x C{m}", _times_cyclic(G, m)) for m in (3, 5)]
    draws = non_solvable = large = 0
    by_count = {0: 0, 1: 0}
    for label, H in candidates:
        if not 1 < H.order() <= 200:
            continue
        found = carter_subgroups(H)
        oracle = brute_carter_classes(H)
        assert found.class_count == len(oracle) <= 1, (label, H.generators)
        assert sorted(r.order() for r in found.representatives) == \
            sorted(r.order() for r in oracle), (label, H.generators)
        for rep in found.representatives:
            matches = [K for K in oracle
                       if brute_subgroup_conjugator(H, rep, K) is not None]
            assert len(matches) == 1, (label, H.generators)
        draws += 1
        non_solvable += not _is_solvable(H)
        by_count[len(oracle)] += 1
        large += any(K.order() > 16 for K in oracle)
    assert draws >= 40 and non_solvable >= 5, (draws, non_solvable)
    assert by_count[0] >= 5 and by_count[1] >= 20, by_count
    assert large >= 10, large


def test_representatives_are_carter_witnesses_and_distinct(groups):
    for spec, G in groups.items():
        classes = carter_subgroups(G)
        for rep in classes.representatives:
            assert is_carter_witness(G, rep), spec
        reps = classes.representatives
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert are_conjugate_subgroups(G, reps[i], reps[j]) is None


def test_solvable_groups_have_exactly_one_class(groups):
    # dihedral and p-group extras beyond the catalog
    rot = Perm.from_cycles(8, [tuple(range(8))])
    flip = Perm([(8 - i) % 8 for i in range(8)])
    d16 = PermGroup([rot, flip], 8)
    q8 = carter_subgroups(d16)
    assert q8.class_count == 1
    for spec in ["Sym(3)", "Sym(4)", "Alt(4)", "SL(2,3)", "GL(2,3)", "PSU(3,2)"]:
        assert carter_subgroups(groups[spec]).class_count == 1, spec


def test_nilpotent_group_is_its_own_carter_subgroup():
    C6 = PermGroup([Perm.from_cycles(6, [tuple(range(6))])], 6)
    classes = carter_subgroups(C6)
    assert classes.class_count == 1
    assert classes.representatives[0].order() == 6
    assert is_carter_witness(C6, C6)


def test_carter_classes_cannot_be_changed_by_a_reader(groups):
    """One search result is handed to several registry cases."""
    import dataclasses
    classes = carter_subgroups(groups["Sym(4)"])
    assert isinstance(classes.representatives, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        classes.representatives = ()


def test_trivial_group_is_carter_in_itself():
    T = PermGroup.trivial(3)
    assert carter_subgroups(T).class_count == 1
    assert is_carter_witness(T, T)


def test_witness_rejects_non_carter(groups):
    S4 = groups["Sym(4)"]
    assert is_carter_witness(S4, sylow_subgroup(S4, 2))
    assert not is_carter_witness(S4, PermGroup([Perm.from_cycles(4, [(0, 1)])], 4))
    assert not is_carter_witness(S4, S4)  # not nilpotent
    with pytest.raises(ValueError):
        is_carter_witness(groups["Alt(4)"], PermGroup([Perm.from_cycles(4, [(0, 1)])], 4))


def test_criterion_matches_oracle_on_random_subgroups(corpus):
    """check_syl2_criterion(H) against N_H(S) and C_H(S) scanned by brute
    force and <S, C_H(S)> closed by brute force, S the engine's Sylow
    2-subgroup of a seeded random subgroup H."""
    verdicts = {True: 0, False: 0}
    for spec, _, H, _ in random_subgroups(corpus, 16, 12):
        S = sylow_subgroup(H, 2)
        N = brute_normalizer(H, S)
        C = brute_centralizer(H, S.generators)
        oracle = closure_order(S.generators + C.generators, H.degree) == N.order()
        assert check_syl2_criterion(H) == oracle, (spec, H.generators)
        verdicts[oracle] += 1
    assert min(verdicts.values()) >= 15, verdicts


def test_witness_matches_oracle_on_random_subgroups(corpus):
    """is_carter_witness(G, K) against a brute nilpotency count and
    N_G(K) scanned by brute force, on seeded random subgroups and on the
    oracle's own Carter representatives, so that both verdicts occur."""
    draws = [(spec, G, H) for spec, G, H, _ in random_subgroups(corpus, 17, 3)]
    for spec, G in corpus_upto(corpus, 120).items():
        draws += [(spec, G, K) for K in brute_carter_classes(G)]
    kinds = {"carter": 0, "not self-normalizing": 0, "not nilpotent": 0}
    for spec, G, K in draws:
        if not bruteforce._brute_nilpotent(set(K.elements()), K.degree):
            kind = "not nilpotent"
        elif brute_normalizer(G, K).order() > K.order():
            kind = "not self-normalizing"
        else:
            kind = "carter"
        assert is_carter_witness(G, K) == (kind == "carter"), (spec, K.generators)
        kinds[kind] += 1
    assert min(kinds.values()) >= 10, kinds


def test_search_cap():
    from carterlab.linear.groupspec import realize
    G = realize("Sp(4,3)").group
    with pytest.raises(CapExceeded, match="exceeds the full-search cap 10000"):
        carter_subgroups(G, cap=10_000)


def test_closure_cap(monkeypatch):
    """Lowering ``CLOSURE_CAP`` below |Sym(4)| = 24 stops the closure."""
    gens = PermGroup.symmetric(4).generators
    monkeypatch.setattr(bruteforce, "CLOSURE_CAP", 24)
    assert closure_order(gens, 4) == 24
    monkeypatch.setattr(bruteforce, "CLOSURE_CAP", 23)
    with pytest.raises(CapExceeded, match="^closure larger than 23$"):
        closure_order(gens, 4)


def test_scan_cap(monkeypatch):
    """Every full-group scan checks |G| against ``SCAN_CAP`` first."""
    G = PermGroup.symmetric(4)
    H = PermGroup.trivial(4)
    x = G.generators[0]
    scans = [lambda: brute_normalizer(G, H), lambda: brute_centralizer(G, x),
             lambda: bruteforce.brute_conjugator(G, x, x),
             lambda: brute_subgroup_conjugator(G, H, H)]
    monkeypatch.setattr(bruteforce, "SCAN_CAP", 24)
    for scan in scans:
        scan()
    monkeypatch.setattr(bruteforce, "SCAN_CAP", 23)
    for scan in scans:
        with pytest.raises(CapExceeded, match=r"^\|G\| = 24 > 23$"):
            scan()


def test_lattice_cap(monkeypatch):
    """The subgroup-lattice walks check |G| against ``LATTICE_CAP`` first."""
    G = PermGroup.symmetric(4)
    monkeypatch.setattr(bruteforce, "LATTICE_CAP", 24)
    assert len(all_subgroups(G)) == 30
    assert [R.order() for R in brute_carter_classes(G)] == [8]
    monkeypatch.setattr(bruteforce, "LATTICE_CAP", 23)
    for walk in (all_subgroups, brute_carter_classes):
        with pytest.raises(CapExceeded, match=r"^\|G\| = 24 > 23$"):
            walk(G)


def test_criterion_examples(groups):
    assert check_syl2_criterion(groups["PSL(2,7)"]) is True
    assert check_syl2_criterion(PermGroup.alternating(3)) is True   # odd order: S = 1
    from carterlab.linear.groupspec import realize
    assert check_syl2_criterion(realize("PSL(2,5)").group) is False
    A5 = realize("Alt(5)").group
    assert check_syl2_criterion(A5) is False
    assert carter_class_containing_sylow2(carter_subgroups(A5)) is None


def test_criterion_equivalence_both_directions(groups):
    for spec, G in groups.items():
        criterion = check_syl2_criterion(G)
        holder = carter_class_containing_sylow2(carter_subgroups(G))
        assert criterion == (holder is not None), spec
        if holder is not None:
            assert p_part(holder.order(), 2) == p_part(G.order(), 2)


def test_carter_of_direct_factor_projection():
    # Carter class representative of Sym(4) x Sym(3) has order 8*2
    a = Perm.from_cycles(7, [(0, 1, 2, 3)])
    b = Perm.from_cycles(7, [(0, 1)])
    c = Perm.from_cycles(7, [(4, 5, 6)])
    d = Perm.from_cycles(7, [(4, 5)])
    G = PermGroup([a, b, c, d], 7)
    assert G.order() == 144
    classes = carter_subgroups(G)
    assert classes.class_count == 1
    assert classes.representatives[0].order() == 16


def _reference_candidates(N: PermGroup, H: PermGroup) -> list:
    """(least member, p) for the N-classes of the y in N with yH of prime
    order p, by conjugating with every element of N."""
    in_H = frozenset(H.elements())
    elements = list(N.elements())

    def coset_order(y):
        z, k = y, 1
        while z not in in_H:
            z, k = z * y, k + 1
        return k

    seen, reps = set(), []
    for y in elements:
        if y not in seen and is_prime(coset_order(y)):
            cls = {y.conjugate(n) for n in elements}
            seen |= cls
            rep = min(cls)
            reps.append((rep, coset_order(rep)))
    return sorted(reps)


def test_prime_order_candidates_match_a_reference(corpus):
    """``_prime_order_candidates(N_G(H), H)`` for H trivial, a Sylow
    subgroup and a cyclic subgroup of prime order (a first-layer node),
    wherever |N_G(H)| <= 500."""
    cases = 0
    for spec, G in corpus.items():
        x = next(y for y in G.elements() if is_prime(y.order()))
        Hs = [PermGroup.trivial(G.degree), PermGroup([x], G.degree)]
        Hs += [sylow_subgroup(G, p) for p in prime_factors(G.order())]
        for H in Hs:
            N = subgroup_normalizer(G, H)
            if N.order() > 500:
                continue
            assert (_prime_order_candidates(N, H)
                    == _reference_candidates(N, H)), (spec, H)
            cases += 1
    assert cases >= 100, cases


def test_flagship_like_search_conjugation_count(conjugations):
    """A perf gate that does not depend on the machine: conjugations, by
    ``Perm.conjugate``, in class walks and by the walks' conjugation and
    fingerprint moves.

    The bound is the count the search makes with the normalizer and
    conjugacy walks refined by orbit partitions, a first layer that
    conjugates only elements of prime order, and every walk acting
    through the group's walk generators (14,892 through the realized
    ones); it is deterministic.
    """
    from carterlab.linear.groupspec import realize
    G = realize("Ext(PSL(2,8), frob)").group
    result = carter_subgroups(G)
    assert [R.order() for R in result.representatives] == [6]
    assert sum(conjugations.values()) <= 6_338


def test_flagship_search_product_count(products):
    """A perf gate that does not depend on the machine: products made
    by the ``Ext(PSL(2,27), frob)`` search, narrow and wide.

    A chain level extends its orbit from the generator just added, and
    a search walk multiplies out only the transversal elements its
    harvest or its answer reads (55,137 when every level re-walked its
    orbit after each new generator and every walk multiplied out every
    point's element).  A candidate inside an extension already built at
    its node is not extended again, and a power makes no product that
    nothing reads (38,108 before either).  The Sylow ascent takes no
    power of an element of order prime to p, and a candidate of prime
    order p is not powered to test its order p (23,690 before both).  A
    harvest starts from its seed subgroup's own chain instead of
    rebuilding it (17,860 before); it is deterministic.
    """
    from carterlab.linear.groupspec import realize
    G = realize("Ext(PSL(2,27), frob)").group
    G.walk_generators               # derived once per group, before the gate
    products.clear()
    result = carter_subgroups(G)
    assert [R.order() for R in result.representatives] == [81]
    assert sum(products.values()) <= 15_599


def test_flagship_like_search_membership_count(monkeypatch):
    """A perf gate that does not depend on the machine: membership tests.

    The class lister skips every member of a class already listed
    before it tests a candidate, so the extension candidates' test,
    which sifts, runs once per listed class and on the members of the
    rejected classes (1,431 calls when it ran on every element of the
    normalizer), a candidate inside an extension already built at its
    node is not extended again (633 calls when it was), and a candidate
    of prime order p is not sifted to test its order p (477 calls when
    it was); it is deterministic.
    """
    from carterlab.linear.groupspec import realize
    G = realize("Ext(PSL(2,8), frob)").group
    calls = [0]
    contains = PermGroup.__contains__

    def counting(self, g):
        calls[0] += 1
        return contains(self, g)

    monkeypatch.setattr(PermGroup, "__contains__", counting)
    result = carter_subgroups(G)
    assert [R.order() for R in result.representatives] == [6]
    assert calls[0] <= 448


def test_flagship_like_search_strip_count(monkeypatch):
    """A perf gate that does not depend on the machine: sifts.

    Chain builds whose order is known in advance (a stabilizer harvest
    after its orbit walk, the walk-generator tests, a rebase, an
    extension <H, x> of order |H| p) stop once their orbit lengths reach
    it, and a trivial Schreier generator is skipped before it is sifted
    (3,495 calls when every build ran to the end, 1,642 when extensions
    were built without their order, 1,261 when a candidate inside an
    extension already built at its node was extended again); it is
    deterministic.
    """
    from carterlab.linear.groupspec import realize
    G = realize("Ext(PSL(2,8), frob)").group
    calls = [0]
    strip = PermGroup._strip

    def counting(self, g, start=0):
        calls[0] += 1
        return strip(self, g, start)

    monkeypatch.setattr(PermGroup, "_strip", counting)
    result = carter_subgroups(G)
    assert [R.order() for R in result.representatives] == [6]
    assert calls[0] <= 1_093


def test_flagship_search_element_and_order_counts(monkeypatch):
    """A perf gate that does not depend on the machine: elements read
    through ``PermGroup.elements`` and ``Perm.order`` calls.

    On a group of order at least ``SYLOW_SEED_ORDER`` the first layer
    reads one Sylow subgroup's elements per prime instead of G's, and
    each extension's element orders are read once, for its nilpotency
    and its bucket key (43,572 elements and 30,925 orders when the first
    layer read all 29,484 elements of G and orders were read twice), and
    a candidate inside an extension already built at its node is not
    extended again (11,586 and 8,203 when it was); it is deterministic.
    """
    from carterlab.linear.groupspec import realize
    G = realize("Ext(PSL(2,27), frob)").group
    calls = {"elements": 0, "order": 0}
    elements, order = PermGroup.elements, Perm.order

    def counting_elements(self):
        for g in elements(self):
            calls["elements"] += 1
            yield g

    def counting_order(self):
        calls["order"] += 1
        return order(self)

    monkeypatch.setattr(PermGroup, "elements", counting_elements)
    monkeypatch.setattr(Perm, "order", counting_order)
    result = carter_subgroups(G)
    assert [R.order() for R in result.representatives] == [81]
    assert calls["elements"] <= 6_244
    assert calls["order"] <= 3_465


@pytest.mark.parametrize("spec", [
    *dict.fromkeys(spec for spec, *_ in CARTER_CATALOG.values()),
    "Sym(7)", "PSU(3,3)", "Ext(PSL(2,27), frob)"])
def test_sylow_seeded_first_layer_gives_the_same_classes(monkeypatch, spec):
    """Every element of prime order p is conjugate into a Sylow
    p-subgroup, so the first layer streamed from Sylow subgroups lists
    the classes that streaming all of G lists: the representatives,
    generators included, are the same."""
    from carterlab.linear.groupspec import realize
    G = realize(spec).group
    found = []
    for seed_order in (1, FULL_SEARCH_CAP + 1):
        monkeypatch.setattr(carter, "SYLOW_SEED_ORDER", seed_order)
        found.append([R.generators for R in carter_subgroups(G).representatives])
    assert found[0] == found[1], spec


def _reference_carter_subgroups(G):
    """The search that builds the extension <H, x> of every candidate x
    at a node H, also when x lies in an extension already built there:
    the generators of every node in the order they are expanded, and of
    the representatives."""
    buckets = {}

    def is_new(H, orders):
        bucket = buckets.setdefault((H.order(), H.orbit_signature(), orders), [])
        if any(are_conjugate_subgroups(G, rep, H) is not None for rep in bucket):
            return False
        bucket.append(H)
        return True

    primes = prime_factors(G.order())
    queue = deque([(PermGroup.trivial(G.degree), (1,))])
    nodes, reps = [], []
    while queue:
        H, orders = queue.popleft()
        nodes.append(H.generators)
        N = subgroup_normalizer(G, H)
        if N.order() == H.order():
            reps.append((H, orders))
            continue
        if H.is_trivial():
            if G.order() < carter.SYLOW_SEED_ORDER:
                stream = G.elements()
            else:
                stream = chain.from_iterable(
                    sylow_subgroup(G, p).elements() for p in primes)
            classes = sorted((len(f), min(f)) for f in class_orbits(
                G, stream, lambda y: y.order() in primes))
            steps = [(x, x.order()) for _, x in classes]
        else:
            steps = _prime_order_candidates(N, H)
        for x, p in steps:
            K = PermGroup(H.generators + (x,), G.degree,
                          _known_order=H.order() * p)
            orders = tuple(sorted(g.order() for g in K.elements()))
            if _nilpotent_by_orders(K.order(), orders) and is_new(K, orders):
                queue.append((K, orders))
    reps.sort(key=lambda node: (node[0].order(), node[1]))
    return nodes, [R.generators for R, _ in reps]


@pytest.mark.parametrize("spec", [
    *dict.fromkeys(spec for spec, *_ in CARTER_CATALOG.values()),
    "Ext(PSL(2,8), frob)", "Ext(PSL(2,27), frob)"])
def test_search_skipping_built_extensions_gives_the_same_classes(
        monkeypatch, spec):
    """A candidate x inside an extension K = <H, x'> already built at H
    is skipped: <H, x> <= K with orders |H| p and |H| p', so p = p' and
    <H, x> = K, whose nilpotency and class were settled when K was
    built.  The nodes, each expanded by one normalizer call, and the
    representatives, generators included, are those of the search that
    builds every candidate's extension."""
    from carterlab.linear.groupspec import realize
    G = realize(spec).group
    nodes = []
    normalizer = carter.subgroup_normalizer

    def recording(parent, H):
        nodes.append(H.generators)
        return normalizer(parent, H)

    monkeypatch.setattr(carter, "subgroup_normalizer", recording)
    reps = [R.generators for R in carter_subgroups(G).representatives]
    assert (nodes, reps) == _reference_carter_subgroups(G), spec


@pytest.mark.parametrize("spec, order, bound", [
    ("Sym(6)", 16, 46), ("Ext(PSL(2,27), frob)", 81, 20)])
def test_search_subgroup_conjugacy_test_count(monkeypatch, spec, order, bound):
    """A perf gate that does not depend on the machine: the search's
    ``are_conjugate_subgroups`` calls.  A candidate inside an extension
    already built at its node is not extended again, so the bucket of
    that extension is not searched again (107 calls on ``Sym(6)`` and
    109 on ``Ext(PSL(2,27), frob)`` when it was); it is deterministic."""
    from carterlab.linear.groupspec import realize
    G = realize(spec).group
    calls = [0]
    conjugate = carter.are_conjugate_subgroups

    def counting(*args):
        calls[0] += 1
        return conjugate(*args)

    monkeypatch.setattr(carter, "are_conjugate_subgroups", counting)
    result = carter_subgroups(G)
    assert [R.order() for R in result.representatives] == [order]
    assert calls[0] <= bound


def test_flagship_like_search_chain_build_count(monkeypatch):
    """A perf gate that does not depend on the machine: chain builds.

    Every ``PermGroup`` built by the search counts, those that derive
    the walk generators of each walked group included (233 builds when
    a prune pass built one chain per kept generator prefix, 164 when a
    candidate inside an extension already built at its node was
    extended again, 133 when a harvest rebuilt its seed subgroup's
    chain); it is deterministic.
    """
    from carterlab.linear.groupspec import realize
    G = realize("Ext(PSL(2,8), frob)").group
    builds = [0]
    init = PermGroup.__init__

    def counting(self, *args, **kwargs):
        builds[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting)
    result = carter_subgroups(G)
    assert [R.order() for R in result.representatives] == [6]
    assert builds[0] <= 110


def test_flagship_search_chain_build_count(monkeypatch):
    """A perf gate that does not depend on the machine: chain builds of
    the ``Ext(PSL(2,27), frob)`` search, its walk generators derived
    first (239 when a harvest rebuilt its seed subgroup's chain); it is
    deterministic.
    """
    from carterlab.linear.groupspec import realize
    G = realize("Ext(PSL(2,27), frob)").group
    G.walk_generators               # derived once per group, before the gate
    builds = [0]
    init = PermGroup.__init__

    def counting(self, *args, **kwargs):
        builds[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting)
    result = carter_subgroups(G)
    assert [R.order() for R in result.representatives] == [81]
    assert builds[0] <= 192


def test_sym6_search_chain_build_count(monkeypatch):
    """A perf gate that does not depend on the machine: chain builds of
    the ``Sym(6)`` search, walk-generator derivations included (735 when
    the walk-pair rule also tried (g_1...g_m, g_i), 672 when a candidate
    inside an extension already built at its node was extended again,
    499 when a harvest rebuilt its seed subgroup's chain); it is
    deterministic.
    """
    G = PermGroup.symmetric(6)
    builds = [0]
    init = PermGroup.__init__

    def counting(self, *args, **kwargs):
        builds[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting)
    result = carter_subgroups(G)
    assert [R.order() for R in result.representatives] == [16]
    assert builds[0] <= 425


def test_partition_walk_count(monkeypatch):
    """A perf gate that does not depend on the machine: partition moves.

    The bound is the count of partition-move calls (the moves
    ``Perm._partition_move`` makes, one per generator and walk) that the
    orbit-partition walks of the normalizers and conjugacy tests make
    (2,187 when a candidate inside an extension already built at its
    node was extended again); it is deterministic.
    """
    calls = [0]
    make = Perm._partition_move

    def counting_make(g):
        move = make(g)

        def counting(part):
            calls[0] += 1
            return move(part)
        return counting

    monkeypatch.setattr(Perm, "_partition_move", counting_make)
    result = carter_subgroups(PermGroup.symmetric(6))
    assert [R.order() for R in result.representatives] == [16]
    assert calls[0] <= 1_625
