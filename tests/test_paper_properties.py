"""Property-level checks for the remaining claim instances.

These cover the catalog instances that do not live in the registry:
the power-conjugacy consequence for Carter centers, the direct-product
factor property, and odd-element centralization of Sylow 2-subgroups
in direct products.
"""

import pytest

from carterlab.linear.groupspec import realize
from carterlab.permgrp.carter import carter_subgroups, is_carter_witness
from carterlab.permgrp.group import PermGroup
from carterlab.permgrp.perm import Perm
from carterlab.permgrp.quotient import quotient_group
from carterlab.permgrp.search import (are_conjugate_elements,
                                      subgroup_centralizer,
                                      subgroup_normalizer)
from carterlab.permgrp.sylow import sylow_subgroup


@pytest.mark.parametrize("spec", ["Sym(4)", "PGammaL(2,8)", "PGU(3,2)", "PSL(2,7)"])
def test_carter_center_not_conjugate_to_proper_powers(spec):
    G = realize(spec).group
    K = carter_subgroups(G).representatives[0]
    Z = subgroup_centralizer(K, K)
    for z in Z.elements():
        if z.is_identity():
            continue
        for k in range(2, z.order()):
            zk = z ** k
            if zk != z:
                assert are_conjugate_elements(G, z, zk) is None, (spec, k)


def _shift(p, off, deg):
    images = list(range(deg))
    for i, j in enumerate(p):
        images[i + off] = j + off
    return Perm(images)


@pytest.fixture(scope="module")
def wreath():
    """(PSL(2,7) x PSL(2,7)) : C2 with the swap acting on two 8-point blocks."""
    T = realize("PSL(2,7)").group
    deg = 16
    gens = [_shift(g, 0, deg) for g in T.generators] + \
           [_shift(g, 8, deg) for g in T.generators]
    swap = Perm([(i + 8) % 16 for i in range(16)])
    G = PermGroup(gens + [swap], deg)
    assert G.order() == 168 * 168 * 2
    return T, G


def test_direct_product_factor_action_is_carter(wreath):
    # H Carter in G = H(T1 x T2) forces the induced action on a factor
    # to be Carter in <induced action, factor>
    T, G = wreath
    K = sylow_subgroup(G, 2)
    assert K.order() == 128
    assert is_carter_witness(G, K)
    blockwise = PermGroup(
        [g for g in K.elements() if all(g[i] < 8 for i in range(8))], 16)
    assert blockwise.order() == 64
    induced = PermGroup(
        [Perm(tuple(g[i] for i in range(8))) for g in blockwise.generators], 8)
    assert induced.is_subgroup_of(T)
    assert is_carter_witness(T, induced)


def test_odd_normalizer_elements_centralize_sylow2_in_products():
    # G = PSL(2,7) x C3: with both factors normal and meeting S trivially,
    # odd-order normalizer elements whose factor images centralize the
    # factor images of S must centralize S itself
    T = realize("PSL(2,7)").group
    deg = 11
    gens = [_shift(g, 0, deg) for g in T.generators]
    c3 = Perm.from_cycles(deg, [(8, 9, 10)])
    G = PermGroup(gens + [c3], deg)
    assert G.order() == 168 * 3
    T_embedded = PermGroup(gens, deg)
    C3_embedded = PermGroup([c3], deg)
    S = sylow_subgroup(G, 2)
    N = subgroup_normalizer(G, S)
    proj1 = quotient_group(G, T_embedded)[1].element   # image of the C3 part
    proj2 = quotient_group(G, C3_embedded)[1].element  # image of the PSL part
    checked = 0
    for x in N.elements():
        if x.order() % 2 == 0:
            continue
        img1_central = all(proj1(x) * proj1(s) == proj1(s) * proj1(x)
                           for s in S.generators)
        img2_central = all(proj2(x) * proj2(s) == proj2(s) * proj2(x)
                           for s in S.generators)
        if img1_central and img2_central:
            assert all(x * s == s * x for s in S.generators), str(x)
            checked += 1
    assert checked >= 3  # the C3 elements at least


def test_odd_centralization_negative_control():
    # Alt(4) fails the hypothesis (S = V4 is not central in its normalizer)
    # and indeed has odd elements normalizing but not centralizing S
    A4 = PermGroup.alternating(4)
    S = sylow_subgroup(A4, 2)
    N = subgroup_normalizer(A4, S)
    assert N.order() == 12
    Z = subgroup_centralizer(N, N)
    assert not S.is_subgroup_of(Z)  # hypothesis violated
    x = next(g for g in N.elements() if g.order() == 3)
    assert any(x * s != s * x for s in S.generators)  # conclusion fails too


def test_two_extension_inheritance_beyond_registry():
    # Sym(4) over Alt(4) has 2-power index but Alt(4) fails the hypothesis,
    # while PGL(2,9) over PSL(2,9) satisfies it end to end
    H = realize("PSL(2,9)").group
    G = realize("PGL(2,9)").group
    assert H.is_subgroup_of(G) and G.order() // H.order() == 2
    T = sylow_subgroup(H, 2)
    NT = subgroup_normalizer(H, T)
    CT = subgroup_centralizer(H, T)
    TC = PermGroup(T.generators + CT.generators, H.degree)
    assert NT.order() == TC.order()          # hypothesis in H
    from carterlab.permgrp.carter import check_syl2_criterion
    assert check_syl2_criterion(G)           # inherited conclusion in G
