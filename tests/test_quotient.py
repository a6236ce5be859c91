import random

import pytest

from carterlab.permgrp.carter import carter_subgroups, is_carter_witness
from carterlab.permgrp.group import PermGroup
from carterlab.permgrp import quotient
from carterlab.permgrp.perm import Perm
from carterlab.permgrp.quotient import (IndexCapExceeded, NotNormalError,
                                        is_normal, quotient_group)


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
        assert proj(a * b) == proj(a) * proj(b)
    assert all(proj(v).is_identity() for v in V4().elements())


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
    with pytest.raises(NotNormalError):
        quotient_group(S4, H)


def test_index_cap(monkeypatch):
    monkeypatch.setattr(quotient, "INDEX_CAP", 10)
    S5 = PermGroup.symmetric(5)
    with pytest.raises(IndexCapExceeded):
        quotient_group(S5, PermGroup.trivial(5))


def test_carter_image_is_carter_downstairs():
    S4 = PermGroup.symmetric(4)
    Q, proj = quotient_group(S4, V4())
    for K in carter_subgroups(S4).representatives:
        assert is_carter_witness(Q, proj.subgroup(K))
