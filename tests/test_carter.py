import pytest

from carterlab.permgrp.bruteforce import brute_carter_classes
from carterlab.permgrp.carter import (SearchCapError,
                                      carter_class_containing_sylow2,
                                      carter_subgroups, check_syl2_criterion,
                                      is_carter_witness)
from carterlab.permgrp.group import PermGroup
from carterlab.permgrp.perm import Perm
from carterlab.permgrp.search import are_conjugate_subgroups
from carterlab.permgrp.sylow import p_part, sylow_subgroup


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


def test_search_cap():
    from carterlab.linear.groupspec import realize
    G = realize("Sp(4,3)").group
    with pytest.raises(SearchCapError):
        carter_subgroups(G, cap=10_000)


def test_criterion_examples(groups):
    assert check_syl2_criterion(groups["PSL(2,7)"]) is True
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


def test_flagship_like_search_conjugation_count(monkeypatch):
    """A perf gate that does not depend on the machine: Perm.conjugate calls.

    The bound is the count the search makes with the normalizer and
    conjugacy walks refined by orbit partitions; it is deterministic.
    """
    from carterlab.linear.groupspec import realize
    G = realize("Ext(PSL(2,8), frob)").group
    calls = [0]
    conjugate = Perm.conjugate

    def counting(self, g):
        calls[0] += 1
        return conjugate(self, g)

    monkeypatch.setattr(Perm, "conjugate", counting)
    result = carter_subgroups(G)
    assert [R.order() for R in result.representatives] == [6]
    assert calls[0] <= 21_955
