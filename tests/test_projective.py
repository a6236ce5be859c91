import itertools
import random
import tracemalloc

import pytest

from carterlab.linear.classical import ClassicalGroupSpec, classical_group
from carterlab.linear.gf import field_make
from carterlab.linear.matrix import Matrix
from carterlab.linear.groupspec import realize
from carterlab.linear.projective import (ProjectiveAction, extend_by_autos,
                                         frobenius_perm, graph_auto_perm,
                                         nonzero_vectors, projective_points)


def test_points_are_the_sorted_vectors_with_a_leading_one():
    for q, n in [(2, 3), (3, 3), (4, 2), (5, 1), (9, 2), (2, 4)]:
        F = field_make(*{4: (2, 2), 9: (3, 2)}.get(q, (q, 1)))
        vectors = nonzero_vectors(F, n)
        assert vectors == sorted(itertools.product(range(q), repeat=n))[1:]
        assert projective_points(F, n) == [v for v in vectors
                                           if next(filter(None, v)) == 1]


def test_projective_points_are_built_without_the_vectors():
    # P^1(GF(1021)) has 1022 points but F^2 has 1,042,441 vectors: listing
    # the vectors first would cost tens of MB here, and GB near DEGREE_CAP
    F = field_make(1021, 1)
    tracemalloc.start()
    try:
        pts = projective_points(F, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pts) == 1022 and pts[0] == (0, 1) and pts[-1] == (1, 1020)
    assert peak < 1_000_000


def test_psl23_on_four_points():
    act = ProjectiveAction(ClassicalGroupSpec("SL", 2, 3))
    assert act.degree == 4
    assert act.group().order() == 12


def test_scalar_maps_to_identity():
    act = ProjectiveAction(ClassicalGroupSpec("SL", 2, 3))
    assert act.perm_of(Matrix.scalar(act.spec.field, 2, 2)).is_identity()


def test_psu32_on_21_points():
    act = ProjectiveAction(ClassicalGroupSpec("SU", 3, 2))
    assert act.degree == 21
    assert act.group().order() == 72


def test_image_order_times_scalars_is_matrix_order():
    for family, n, q in [("SL", 2, 7), ("SL", 3, 2), ("SU", 3, 2), ("Sp", 4, 3)]:
        from carterlab.linear.classical import matrix_group_order, scalar_count
        spec = ClassicalGroupSpec(family, n, q)
        act = ProjectiveAction(spec)
        assert act.group().order() * scalar_count(spec) == matrix_group_order(spec)


def test_homomorphism_on_random_words():
    spec = ClassicalGroupSpec("SL", 2, 9)
    act = ProjectiveAction(spec)
    mats = classical_group(spec)
    rng = random.Random(2)
    for _ in range(100):
        a, b = mats[rng.randrange(len(mats))], mats[rng.randrange(len(mats))]
        assert act.perm_of(a * b) == act.perm_of(a) * act.perm_of(b)


def test_linear_action_is_faithful_for_sl23():
    act = ProjectiveAction(ClassicalGroupSpec("SL", 2, 3), linear=True)
    assert act.degree == 8
    assert act.group().order() == 24


def test_frobenius_fixes_prime_subline():
    act = ProjectiveAction(ClassicalGroupSpec("SL", 2, 4))
    fr = frobenius_perm(act)
    assert sum(1 for i, j in enumerate(fr) if i == j) == 3  # P1(GF(2))
    assert fr.order() == 2


def entrywise_power(M):
    """The matrix of p-th powers of M's entries."""
    F = M.field
    return Matrix(F, [[F.frobenius(a) for a in row] for row in M.rows])


def test_frobenius_conjugation_is_entrywise_power():
    spec = ClassicalGroupSpec("SL", 2, 8)
    act = ProjectiveAction(spec)
    fr = frobenius_perm(act)
    mats = classical_group(spec)
    rng = random.Random(3)
    word = Matrix.identity(spec.field, 2)
    for _ in range(100):
        word = word * mats[rng.randrange(len(mats))]
        assert act.perm_of(word).conjugate(fr) == act.perm_of(entrywise_power(word))


def test_pgammal28_order():
    act = ProjectiveAction(ClassicalGroupSpec("SL", 2, 8))
    G = act.group()
    fr = frobenius_perm(act)
    ext = extend_by_autos(G, [fr])
    assert G.order() == 504 and ext.order() == 1512


def test_psl2_27_frobenius_extension():
    act = ProjectiveAction(ClassicalGroupSpec("SL", 2, 27))
    G = act.group()
    fr = frobenius_perm(act)
    assert G.order() == 9828 and fr.order() == 3
    assert extend_by_autos(G, [fr]).order() == 29484


def test_graph_automorphism_duality():
    spec = ClassicalGroupSpec("SL", 3, 2)
    act = ProjectiveAction(spec, include_hyperplanes=True)
    assert act.degree == 14
    tau = graph_auto_perm(act)
    assert (tau * tau).is_identity()
    # swaps the blocks
    assert all(tau[i] >= 7 for i in range(7)) and all(tau[i] < 7 for i in range(7, 14))
    G = act.group()
    assert G.order() == 168
    assert extend_by_autos(G, [tau]).order() == 336
    for m in classical_group(spec):
        assert act.perm_of(m).conjugate(tau) == act.perm_of(m.transpose().inverse())


def test_graph_auto_needs_dual_block_and_rank():
    with pytest.raises(ValueError):
        graph_auto_perm(ProjectiveAction(ClassicalGroupSpec("SL", 3, 2)))
    with pytest.raises(ValueError):
        graph_auto_perm(ProjectiveAction(ClassicalGroupSpec("SL", 2, 3),
                                         include_hyperplanes=True))


def test_hyperplanes_need_the_projective_domain():
    with pytest.raises(ValueError):
        ProjectiveAction(ClassicalGroupSpec("SL", 3, 2), include_hyperplanes=True,
                         linear=True)


def test_frobenius_acts_on_both_blocks():
    rg = realize("Ext(PGammaL(3,4), graph)")
    assert (rg.group.degree, rg.group.order()) == (42, 241_920)
    act = rg.action
    fr = frobenius_perm(act)
    assert fr.order() == 2
    # it keeps each block and moves points in both
    assert all((fr[i] < 21) == (i < 21) for i in range(42))
    assert any(fr[i] != i for i in range(21))
    assert any(fr[i] != i for i in range(21, 42))
    tau = graph_auto_perm(act)
    assert fr * tau == tau * fr
    for m in classical_group(act.spec):
        assert act.perm_of(m).conjugate(fr) == act.perm_of(entrywise_power(m))


def test_extend_by_autos_validates_normalization():
    from carterlab.permgrp.perm import Perm
    act = ProjectiveAction(ClassicalGroupSpec("SL", 2, 3))
    G = act.group()
    bad = Perm.from_cycles(G.degree, [(0, 1)])
    if any(g.conjugate(bad) not in G for g in G.generators):
        with pytest.raises(ValueError):
            extend_by_autos(G, [bad])
    assert extend_by_autos(G, [G.identity()]) is G
