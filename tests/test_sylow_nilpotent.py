import pytest

from carterlab.permgrp.group import PermGroup
from carterlab.permgrp.perm import Perm
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
