import hashlib
import random
import tracemalloc

import pytest

from carterlab.permgrp.bruteforce import closure_order
from carterlab.permgrp.group import PermGroup, orbits
from carterlab.permgrp.perm import Perm

from conftest import corpus_upto


def test_named_group_orders():
    assert PermGroup.symmetric(3).order() == 6
    assert PermGroup.symmetric(4).order() == 24
    assert PermGroup.alternating(5).order() == 60
    assert PermGroup.trivial(4).order() == 1


def test_empty_generators_give_trivial_group():
    G = PermGroup((), 4)
    assert G.order() == 1
    assert Perm.identity(4) in G
    assert Perm.from_cycles(4, [(0, 1)]) not in G


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="generator degree 4 != group degree 3"):
        PermGroup([Perm.identity(3), Perm.from_cycles(4, [(0, 1)])], 3)
    G = PermGroup.symmetric(3)
    with pytest.raises(ValueError, match="degree 4 != 3"):
        Perm.identity(4) in G


def test_order_equals_brute_closure_on_random_groups():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randrange(3, 8)
        gens = [Perm(rng.sample(range(n), n)) for _ in range(rng.randrange(1, 4))]
        G = PermGroup(gens, n)
        assert G.order() == closure_order(gens, n)


def test_order_equals_brute_closure_on_corpus(corpus):
    for spec, G in corpus_upto(corpus, 5000).items():
        assert G.order() == closure_order(G.generators, G.degree), spec


def test_generators_sift_to_identity(corpus):
    for G in corpus.values():
        for g in G.generators:
            assert g in G


def test_membership_against_enumeration():
    G = PermGroup([Perm.from_cycles(5, [(0, 1, 2, 3, 4)]),
                   Perm.from_cycles(5, [(0, 1)])], 5)
    els = set(G.elements())
    assert len(els) == 120
    assert all(e in G for e in els)
    assert Perm.from_cycles(5, [(0, 1)]) in G


def test_elements_enumeration_is_complete_and_deterministic(corpus):
    A5 = corpus["Alt(5)"]
    first = list(A5.elements())
    second = list(A5.elements())
    assert first == second
    assert len(set(first)) == 60


def test_construction_is_deterministic():
    gens = [Perm((1, 2, 0, 4, 3)), Perm((0, 2, 1, 3, 4))]
    a = PermGroup(gens, 5)
    b = PermGroup(gens, 5)
    assert a.base == b.base
    assert list(a.elements()) == list(b.elements())


def test_independent_bases_agree_on_order():
    # same group, chains built from deliberately different prescribed bases
    G = PermGroup.symmetric(6)
    rng = random.Random(3)
    for _ in range(4):
        hint = rng.sample(range(6), 6)
        assert G.rebase(hint).order() == 720


def test_random_element_is_uniform_enough():
    G = PermGroup.symmetric(4)
    rng = random.Random(5)
    from collections import Counter
    counts = Counter(G.random_element(rng) for _ in range(4800))
    assert len(counts) == 24
    assert all(100 < c < 300 for c in counts.values())


def test_orbits_start_at_the_first_unseen_point_as_given():
    g = Perm.from_cycles(6, [(0, 1, 2), (3, 4)])
    points = iter([4, 2, 3, 5, 0, 2, 1])     # one-shot, out of order, a repeat
    assert list(orbits(points, [g], lambda p, s: s[p])) == [[4, 3], [2, 0, 1], [5]]
    assert next(points, None) is None


def test_natural_orbits_least_point_first_and_sorted():
    assert PermGroup.trivial(4161).natural_orbits() == [[p] for p in range(4161)]
    H = PermGroup([Perm.from_cycles(9, [(7, 0, 3), (5, 2)]),
                   Perm.from_cycles(9, [(3, 8)])], 9)
    assert H.natural_orbits() == [[0, 3, 7, 8], [1], [2, 5], [4], [6]]
    assert H.orbit_signature() == (1, 1, 1, 2, 4)


def test_walk_generators_are_short_and_generate_the_group(corpus):
    from carterlab.linear.groupspec import realize
    from carterlab.verify import REGISTRY
    specs = [spec for case in REGISTRY.list_cases() for spec in case.group_specs]
    specs += list(corpus) + ["PSU(3,3)", "PSL(3,4)", "Ext(PSL(2,8), frob)", "W(D4)"]
    assert "W(E6)" in specs and "PSL(3,2)" in specs
    for spec in dict.fromkeys(specs):
        G = realize(spec).group
        realized = G.generators
        walk = G.walk_generators
        assert G.generators is realized, spec
        assert all(g in G for g in walk), spec
        assert PermGroup(walk, G.degree).order() == G.order(), spec
        if spec == "W(D4)":
            # 2-generated, but no pair of the rule generates it
            assert walk == realized and len(walk) == 4
        else:
            assert len(walk) <= 2, spec
        fresh = realize(spec).group
        assert fresh.generators == realized, spec
        assert fresh.walk_generators == walk, spec
        assert PermGroup(realized, G.degree).walk_generators == walk, spec
    assert PermGroup.trivial(5).walk_generators == ()


def _chain(G):
    return (G.base, G.order(),
            [(lv.beta, list(lv.transversal.items()), list(lv.gens))
             for lv in G._levels])


def _rebuild_hinted_builds(monkeypatch) -> list:
    """Rebuild every chain built with ``_known_order`` without it, and
    require the same chain: base, order, and per level the base point,
    the transversal in order, and the generators.  The hint must bound
    the true order.  Returns the hints seen."""
    init = PermGroup.__init__
    hints = []

    def checking(self, generators, degree, base_hint=None, _known_order=None):
        generators = list(generators)
        base_hint = None if base_hint is None else list(base_hint)
        init(self, generators, degree, base_hint, _known_order)
        if _known_order is not None:
            hints.append(_known_order)
            full = PermGroup.__new__(PermGroup)
            init(full, generators, degree, base_hint)
            assert full.order() <= _known_order
            assert _chain(self) == _chain(full)

    monkeypatch.setattr(PermGroup, "__init__", checking)
    return hints


@pytest.mark.parametrize("spec", ["Sym(6)", "Ext(PSL(2,8), frob)", "W(F4)"])
def test_known_order_builds_equal_unhinted_builds(monkeypatch, spec):
    """A chain build that stops once its orbit lengths multiply to a
    known bound on the order is the build that runs to the end."""
    from carterlab.linear.groupspec import realize
    from carterlab.permgrp.carter import carter_subgroups
    from carterlab.permgrp.search import (conjugacy_classes,
                                          element_centralizer_with_known_index)
    realized = realize(spec).group      # W(F4) may be cached, chain and all
    hints = _rebuild_hinted_builds(monkeypatch)
    G = PermGroup(realized.generators, realized.degree)
    if spec == "W(F4)":
        classes = conjugacy_classes(G)
        assert len(classes) == 25
        for rep, size in classes:
            C = element_centralizer_with_known_index(G, rep, size)
            assert C.order() * size == 1152
        assert G.rebase(reversed(range(G.degree))).order() == 1152
    else:
        carter_subgroups(G)
    assert len(hints) >= 10, hints


def test_known_order_below_the_true_order_fails(monkeypatch):
    S6 = PermGroup.symmetric(6)
    # 719 is no product of orbit lengths at most 6, so the levels pass it
    with pytest.raises(AssertionError):
        PermGroup(S6.generators, 6, _known_order=719)
    assert PermGroup(S6.generators, 6, _known_order=721).order() == 720
    _rebuild_hinted_builds(monkeypatch)
    for bound in (360, 240, 120, 24, 6, 1):
        with pytest.raises(AssertionError):
            PermGroup(S6.generators, 6, _known_order=bound)


def _digest(chains) -> str:
    """sha256 of chains as ``_chain`` gives them, permutations as tuples
    of images, so narrow and wide layouts hash alike."""
    h = hashlib.sha256()
    for base, order, levels in chains:
        h.update(repr((base, order, [
            (beta, [(p, tuple(u)) for p, u in items], [tuple(g) for g in gens])
            for beta, items, gens in levels])).encode())
    return h.hexdigest()


# Digests of the chains the Schreier-Sims build made before a chain
# level extended its orbit from the generator just added rather than
# re-walking it, taken then and pinned: base, order, and per level the
# base point, the transversal in order and the generators.
CHAIN_DIGESTS = {
    "Sym(6)": "6f0f8c8bab729ee6fd00939a17f9323e562a5b9d0521436127a608c68f65d8e7",
    "W(E6)": "369cba4f1e2d187dd4d2836a4fa2bf88aed34a9f11a1ec98c4559d8526ab8473",
    "Ext(PSL(2,27), frob)":
        "52c1d9a49249cfd06178e11c107ae0c8fc9af63fdb0bad9d1184e36a15e9f0a5",
    "PSL(2,257)": "5624a3f7f15decbabca772b4c634c98876d35b866105a2a29202d30f2c822135",
}
# The search's 110 chains, pinned when a stabilizer harvest started
# from its seed subgroup's own chain instead of rebuilding it.  Their
# per-chain digests are, in order, a subsequence of the 133 it built
# before (pinned when it stopped extending a candidate inside an
# extension already built at its node, themselves a subsequence of the
# 164 before that); each of the 23 dropped was the rebuild of a seed
# subgroup's chain, equal to an earlier chain's digest.
SEARCH_CHAINS_DIGEST = (
    "96d7481c4f01d945374b775fbbbcbded97be201e73d36805e84728496e586202")


@pytest.mark.parametrize("spec", list(CHAIN_DIGESTS))
def test_realized_chains_are_pinned(spec):
    """The realized chain hashes as it did when each chain level
    re-walked its whole orbit after every new generator."""
    from carterlab.linear.groupspec import realize
    G = realize(spec).group
    assert _digest([_chain(G)]) == CHAIN_DIGESTS[spec], spec


def test_search_chains_are_pinned(monkeypatch):
    """Every chain built by the ``Ext(PSL(2,8), frob)`` Carter search,
    the stabilizers its walks harvest and the walk-generator tests
    included, in the order they are built."""
    from carterlab.linear.groupspec import realize
    from carterlab.permgrp.carter import carter_subgroups
    realized = realize("Ext(PSL(2,8), frob)").group
    G = PermGroup(realized.generators, realized.degree)
    chains = []
    init = PermGroup.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        chains.append(_chain(self))

    monkeypatch.setattr(PermGroup, "__init__", recording)
    carter_subgroups(G)
    assert _digest(chains) == SEARCH_CHAINS_DIGEST


def test_wide_chain_keeps_one_permutation_per_orbit_point():
    """A memory gate that does not depend on the machine.  PSL(2,509)
    acts on 510 points, so its permutations are wide tuples; realized
    with one permutation per orbit point it peaks at 5.5 MB under
    tracemalloc, and a chain that also kept each one's inverse at 19.7 MB."""
    from carterlab.linear.groupspec import realize
    tracemalloc.start()
    try:
        G = realize("PSL(2,509)").group
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.degree == 510 and G.order() == 509 * (509 ** 2 - 1) // 2
    assert peak < 10_000_000
