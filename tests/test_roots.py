import pytest

from carterlab.rootsys.roots import (SUPPORTED, highest_root, is_closed_abelian,
                                     omega_fixed_roots, pairing, root_system)

ROOT_COUNTS = {"A": lambda n: n * (n + 1), "B": lambda n: 2 * n * n,
               "C": lambda n: 2 * n * n, "D": lambda n: 2 * n * (n - 1),
               "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
               "F": lambda n: 48, "G": lambda n: 12}


def all_supported():
    return [(t, n) for t, ranks in SUPPORTED.items() for n in ranks]


@pytest.mark.parametrize("t,n", all_supported())
def test_reflection_closure_counts(t, n):
    system = root_system(t, n)
    assert len(system.roots) == ROOT_COUNTS[t](n)
    assert len(system.positive_roots()) * 2 == len(system.roots)


@pytest.mark.parametrize("t,n", all_supported())
def test_negation_and_reflection_closure(t, n):
    system = root_system(t, n)
    roots = set(system.roots)
    assert all(tuple(-a for a in r) in roots for r in roots)
    for alpha in system.simples:
        for r in system.roots:
            assert system.reflect(r, alpha) in roots


@pytest.mark.parametrize("t,n", all_supported())
def test_length_classes(t, n):
    system = root_system(t, n)
    expected = 2 if t in "BCFG" else 1
    assert len(system.norms()) == expected


@pytest.mark.parametrize("t,n", all_supported())
def test_simple_coords_rebuild_each_root(t, n):
    system = root_system(t, n)
    assert set(system.simple_coords) == set(system.roots)
    for r in system.roots:
        coords = system.simple_coords[r]
        assert len(coords) == n
        rebuilt = tuple(sum(c * a[k] for c, a in zip(coords, system.simples))
                        for k in range(len(r)))
        assert rebuilt == r
        assert all(c >= 0 for c in coords) or all(c <= 0 for c in coords)


def test_c2_has_four_long_roots():
    C2 = root_system("C", 2)
    assert len(C2.roots) == 8
    assert sorted(C2.long_roots()) == [(-2, 0), (0, -2), (0, 2), (2, 0)]


def test_unsupported_types_rejected():
    for t, n in [("A", 8), ("H", 3), ("E", 5), ("G", 3), ("B", 1)]:
        with pytest.raises(ValueError):
            root_system(t, n)


def test_pairing_values():
    C2 = root_system("C", 2)
    assert pairing((1, -1), (0, 2)) == -1
    assert pairing((0, 2), (1, -1)) == -2
    for r in C2.roots:
        assert pairing(r, r) == 2


@pytest.mark.parametrize("rank", range(2, 8))
def test_long_roots_pair_evenly_in_c_series(rank):
    system = root_system("C", rank)
    for r in system.long_roots():
        for s in system.roots:
            assert abs(pairing(r, s)) in (0, 2)


def test_omega_fixed_roots_match_the_claims():
    empties = [("A", r) for r in range(2, 8)] + \
        [("B", r) for r in range(3, 8)] + \
        [("D", r) for r in range(3, 8)] + \
        [("E", 6), ("E", 7), ("E", 8)]
    for t, r in empties:
        assert omega_fixed_roots(root_system(t, r)) == [], (t, r)
    for rank in range(2, 8):
        system = root_system("C", rank)
        fixed = omega_fixed_roots(system)
        longs = sorted(x for x in system.long_roots() if system.height(x) > 0)
        assert fixed == longs and len(fixed) == rank
    assert len(omega_fixed_roots(root_system("A", 1))) == 1


def test_highest_roots():
    _, coeff = highest_root(root_system("A", 2))
    assert coeff == (1, 1)
    root, coeff = highest_root(root_system("C", 3))
    assert root == (2, 0, 0) and coeff == (2, 2, 1)
    _, coeff = highest_root(root_system("G", 2))
    assert sorted(coeff) == [2, 3]
    _, coeff = highest_root(root_system("E", 8))
    assert sum(coeff) == 29  # height of the E8 highest root


def test_closed_abelian():
    for rank in range(2, 8):
        system = root_system("C", rank)
        longs = [r for r in system.long_roots() if system.height(r) > 0]
        assert is_closed_abelian(system, longs)
    A2 = root_system("A", 2)
    assert not is_closed_abelian(A2, list(A2.simples))
    assert is_closed_abelian(A2, [A2.simples[0]])
    with pytest.raises(ValueError):
        is_closed_abelian(A2, [(5, 5, 5)])
