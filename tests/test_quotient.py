import random

import pytest

from conftest import corpus_upto
from carterlab.errors import CapExceeded
from carterlab.permgrp.bruteforce import (brute_carter_classes,
                                          brute_subgroup_conjugator)
from carterlab.permgrp.carter import carter_subgroups, is_carter_witness
from carterlab.permgrp.group import PermGroup
from carterlab.permgrp import quotient
from carterlab.permgrp.perm import Perm
from carterlab.permgrp.quotient import is_normal, quotient_group
from carterlab.permgrp.sylow import normal_closure


def V4():
    return PermGroup([Perm.from_cycles(4, [(0, 1), (2, 3)]),
                      Perm.from_cycles(4, [(0, 2), (1, 3)])], 4)


def test_sym4_mod_v4_is_sym3():
    S4 = PermGroup.symmetric(4)
    Q, proj = quotient_group(S4, V4())
    assert Q.order() == 6
    rng = random.Random(0)
    for _ in range(50):
        a, b = S4.random_element(rng), S4.random_element(rng)
        assert proj.element(a * b) == proj.element(a) * proj.element(b)
    assert all(proj.element(v).is_identity() for v in V4().elements())


def test_quotient_by_whole_group_is_trivial():
    S4 = PermGroup.symmetric(4)
    Q, _ = quotient_group(S4, S4)
    assert Q.order() == 1


def test_sl23_mod_center_has_order_12():
    from carterlab.linear.groupspec import realize
    G = realize("SL(2,3)").group
    center = PermGroup(
        [g for g in G.elements()
         if not g.is_identity() and all(g * h == h * g for h in G.generators)],
        G.degree)
    assert center.order() == 2
    Q, _ = quotient_group(G, center)
    assert Q.order() == 12


def test_non_normal_subgroup_rejected():
    S4 = PermGroup.symmetric(4)
    H = PermGroup([Perm.from_cycles(4, [(0, 1)])], 4)
    assert not is_normal(S4, H)
    with pytest.raises(ValueError, match="N is not a normal subgroup of G"):
        quotient_group(S4, H)


def test_index_cap(monkeypatch):
    monkeypatch.setattr(quotient, "INDEX_CAP", 10)
    S5 = PermGroup.symmetric(5)
    with pytest.raises(CapExceeded, match="index 120 exceeds cap 10"):
        quotient_group(S5, PermGroup.trivial(5))


def test_carter_image_is_carter_downstairs():
    S4 = PermGroup.symmetric(4)
    Q, proj = quotient_group(S4, V4())
    for K in carter_subgroups(S4).representatives:
        assert is_carter_witness(Q, proj.subgroup(K))


def test_quotients_by_random_normal_closures(corpus):
    """G/N for N the normal closure of a seeded random element: its order
    is |G|/|N|, the projection is a homomorphism with kernel N, and the
    engine's Carter representatives of G map onto Carter subgroups of
    G/N, each conjugate to exactly one of the oracle's."""
    rng = random.Random(18)
    proper = images = 0
    for spec, G in corpus_upto(corpus, 200).items():
        reps = carter_subgroups(G).representatives
        for _ in range(3):
            N = normal_closure(G, [G.random_element(rng)])
            Q, proj = quotient_group(G, N)
            assert Q.order() * N.order() == G.order(), spec
            assert all(proj.element(n).is_identity() for n in N.generators), spec
            for _ in range(5):
                a, b = G.random_element(rng), G.random_element(rng)
                assert proj.element(a * b) == proj.element(a) * proj.element(b), spec
            proper += 1 < N.order() < G.order()
            oracle = brute_carter_classes(Q)
            for K in reps:
                image = proj.subgroup(K)
                found = [C for C in oracle
                         if brute_subgroup_conjugator(Q, image, C) is not None]
                assert len(found) == 1, (spec, N.order(), K.generators)
                images += 1 < Q.order()
    assert proper >= 20 and images >= 25, (proper, images)
