"""Relabelling tests: answers that name no points ignore the labels.

Each group's generators are conjugated by a seeded random permutation r
of its points, which gives the same abstract group on relabelled points.
Every answer that names no points must stay the same: the Carter class
count and representative orders, the Sylow-2 criterion, the class sizes
(with the order and cycle type of each class), and centralizer and
normalizer orders.  Representatives may differ, and every conjugator the
relabelled group returns must replay.  These groups are beyond the
brute-force oracles' reach, and the searches walk them through walk
generators derived from the relabelled generators.
"""

import functools
import random
from types import SimpleNamespace

import pytest

from carterlab.linear.groupspec import realize
from carterlab.permgrp.carter import carter_subgroups, check_syl2_criterion
from carterlab.permgrp.group import PermGroup
from carterlab.permgrp.perm import Perm
from carterlab.permgrp.search import (are_conjugate_elements,
                                      are_conjugate_subgroups,
                                      conjugacy_classes, element_centralizer,
                                      subgroup_normalizer)
from carterlab.permgrp.sylow import sylow_subgroup
from carterlab.rootsys import e6scan

SPECS = ["Ext(PSL(2,27), frob)", "PSp(4,3)", "PSL(3,4)", "W(E6)"]


def _class_invariants(classes) -> list:
    return sorted((size, rep.order(), rep.cycle_type()) for rep, size in classes)


@functools.cache
def _answers(spec: str):
    """The answers on the group as realized, computed once per spec."""
    G = realize(spec).group
    S = sylow_subgroup(G, 2)
    return (G, conjugacy_classes(G), check_syl2_criterion(G), S,
            subgroup_normalizer(G, S).order(), carter_subgroups(G).representatives)


def _conjugate_group(H: PermGroup, r: Perm) -> PermGroup:
    return PermGroup([h.conjugate(r) for h in H.generators], H.degree)


def _relabelling(degree: int, rng) -> Perm:
    points = list(range(degree))
    rng.shuffle(points)
    return Perm(points)


def _check_relabelled(spec: str, seed: int):
    G, classes, criterion, S, n_order, carter = _answers(spec)
    rng = random.Random(seed)
    r = _relabelling(G.degree, rng)
    Gr = _conjugate_group(G, r)
    assert Gr.order() == G.order()

    classes_r = conjugacy_classes(Gr)
    assert _class_invariants(classes_r) == _class_invariants(classes)
    assert check_syl2_criterion(Gr) == criterion

    for x, size in classes:
        xr = x.conjugate(r)
        assert element_centralizer(Gr, xr).order() * size == G.order()
        y = xr.conjugate(Gr.random_element(rng))
        g = are_conjugate_elements(Gr, xr, y)
        assert g in Gr and xr.conjugate(g) == y

    # Sylow 2-subgroups are conjugate, so a conjugator must be found
    Sr, S2 = _conjugate_group(S, r), sylow_subgroup(Gr, 2)
    assert subgroup_normalizer(Gr, S2).order() == n_order
    g = are_conjugate_subgroups(Gr, Sr, S2)
    assert g in Gr and _conjugate_group(Sr, g).same_group_as(S2)

    found = carter_subgroups(Gr).representatives
    assert [R.order() for R in found] == [R.order() for R in carter]
    for R, Q in zip(carter, found):
        Rr = _conjugate_group(R, r)
        assert subgroup_normalizer(Gr, Rr).order() == R.order()
        g = are_conjugate_subgroups(Gr, Rr, Q)
        assert g in Gr and _conjugate_group(Rr, g).same_group_as(Q)


@pytest.mark.parametrize("spec", SPECS)
def test_relabelled_group_gives_the_same_answers(spec):
    _check_relabelled(spec, seed=1)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("spec", SPECS)
def test_relabelled_group_gives_the_same_answers_for_more_seeds(spec, seed):
    _check_relabelled(spec, seed)


def test_relabelled_weyl_e6_gives_the_same_scan(monkeypatch):
    """The W(E6) centralizer scan on relabelled points: each class keeps
    its size and its number of order-3 subgroup classes (classes may come
    in another order), and every class passes with no offender."""
    def sizes(results):
        return sorted((r.class_size, r.order3_subgroup_classes) for r in results)
    expected = sizes(e6scan.e6_centralizer_scan())
    G = realize("W(E6)").group
    Gr = _conjugate_group(G, _relabelling(G.degree, random.Random(1)))
    assert Gr.generators != G.generators
    monkeypatch.setattr(e6scan, "weyl_group",
                        lambda Phi: SimpleNamespace(perm_group=Gr))
    results = e6scan.e6_centralizer_scan()
    assert sizes(results) == expected
    assert all(r.passed and r.self_normalizing == [] for r in results)
