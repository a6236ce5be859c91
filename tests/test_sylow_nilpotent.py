import pytest

from carterlab.linear.groupspec import realize
from carterlab.permgrp.group import PermGroup
from carterlab.permgrp.perm import Perm
from carterlab.permgrp.search import subgroup_normalizer
from carterlab.permgrp.sylow import (is_nilpotent, lower_central_series,
                                     p_part, prime_factors, sylow_subgroup)


def dihedral(n):
    """Dihedral group of order 2n on n points."""
    rot = Perm.from_cycles(n, [tuple(range(n))])
    flip = Perm([(n - i) % n for i in range(n)])
    return PermGroup([rot, flip], n)


def test_sylow_orders_match_p_part(corpus):
    for spec, G in corpus.items():
        for p in (2, 3, 5, 7):
            S = sylow_subgroup(G, p)
            assert S.order() == p_part(G.order(), p), (spec, p)
            assert S.is_subgroup_of(G)


def test_sylow_subgroup_is_p_group():
    G = PermGroup.symmetric(6)
    S = sylow_subgroup(G, 2)
    assert S.order() == 16
    assert all(e.order() & (e.order() - 1) == 0 for e in S.elements())


def test_sylow_trivial_when_p_misses_order():
    assert sylow_subgroup(PermGroup.symmetric(3), 5).order() == 1


def test_sylow_rejects_composite_p():
    with pytest.raises(ValueError):
        sylow_subgroup(PermGroup.symmetric(4), 4)


def test_sylow_subgroup_is_deterministic():
    G = PermGroup.symmetric(6)
    assert sylow_subgroup(G, 2).generators == sylow_subgroup(G, 2).generators


def _reference_sylow_subgroup(G, p):
    """The ascent that takes the p-part of every element of N_G(H) in
    turn, p'-elements included, and adjoins the first that is not the
    identity and lies outside H."""
    def p_element_part(g):
        o = g.order()
        return g ** (o // p_part(o, p))

    H = PermGroup.trivial(G.degree)
    while H.order() < p_part(G.order(), p):
        z = next(z for z in map(p_element_part,
                                subgroup_normalizer(G, H).elements())
                 if not z.is_identity() and z not in H)
        H = PermGroup(H.generators + (z,), G.degree)
    return H


@pytest.fixture(scope="module")
def flagship():
    return realize("Ext(PSL(2,27), frob)").group


def test_sylow_subgroups_match_the_reference_ascent(corpus, flagship):
    """Passing over p'-elements before taking a power changes no step:
    their p-part is the identity, which the reference rejects too.  The
    generators are the same for every prime of every group."""
    groups = dict(corpus, flagship=flagship)
    cases = 0
    for spec, G in groups.items():
        for p in prime_factors(G.order()):
            assert (sylow_subgroup(G, p).generators
                    == _reference_sylow_subgroup(G, p).generators), (spec, p)
            cases += 1
    assert cases >= 70, cases


def test_flagship_sylow_product_count(products, flagship):
    """A perf gate that does not depend on the machine: products made
    building the flagship's Sylow subgroups, one per prime.

    An element of order prime to p is passed over before any power is
    taken (8,359 products when the p-part of every normalizer element
    read was taken); it is deterministic.
    """
    flagship.walk_generators        # derived once per group, before the gate
    products.clear()
    orders = [sylow_subgroup(flagship, p).order()
              for p in prime_factors(flagship.order())]
    assert orders == [4, 81, 7, 13]
    assert sum(products.values()) <= 2_724


def nilpotent_by_lower_central_series(G):
    return lower_central_series(G)[-1].order() == 1


def test_nilpotency_basics():
    cyclic = PermGroup([Perm.from_cycles(6, [tuple(range(6))])], 6)
    for G, expected in [(PermGroup.symmetric(3), False),
                        (PermGroup.trivial(3), True),
                        (dihedral(4), True),        # order 8
                        (dihedral(3), False),       # Sym(3)
                        (dihedral(6), False),       # order 12
                        (cyclic, True)]:
        assert is_nilpotent(G) == expected
        assert nilpotent_by_lower_central_series(G) == expected


def test_nilpotency_characterizations_agree_on_corpus(corpus):
    groups = dict(corpus)
    groups |= {f"Syl2({spec})": sylow_subgroup(G, 2) for spec, G in corpus.items()}
    verdicts = {spec: is_nilpotent(G) for spec, G in groups.items()}
    for spec, G in groups.items():
        assert verdicts[spec] == nilpotent_by_lower_central_series(G), spec
    assert sum(verdicts.values()) == 28  # W(C2) and the 27 Sylow 2-subgroups


def test_nilpotent_2_group_of_order_65536():
    # Syl2(Sym(16)) x <(16 17)>: swaps of adjacent blocks of sizes 1, 2, 4, 8
    gens = [Perm.from_cycles(18, [(i, i + k) for i in range(k)]) for k in (1, 2, 4, 8)]
    P = PermGroup(gens + [Perm.from_cycles(18, [(16, 17)])], 18)
    assert P.order() == 65536
    assert is_nilpotent(P)


def test_lower_central_series_of_dihedral8():
    series = lower_central_series(dihedral(4))
    assert [g.order() for g in series] == [8, 2, 1]


def test_prime_factors():
    assert prime_factors(51840) == [2, 3, 5]
    assert prime_factors(1) == []
    assert p_part(168, 2) == 8
