import random

import pytest

from carterlab.linear.classical import (ClassicalGroupSpec, classical_group,
                                        form_matrix, lie_order,
                                        long_root_element, matrix_group_order,
                                        preserves_form, scalar_count)
from carterlab.linear.gf import field_make
from carterlab.linear.matrix import Matrix


def closure(gens, cap=100_000):
    F, n = gens[0].field, gens[0].n
    seen = {Matrix.identity(F, n)}
    frontier = list(seen)
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    new.append(h)
                    assert len(seen) <= cap
        frontier = new
    return seen


@pytest.mark.parametrize("family,n,q,order", [
    ("SL", 2, 3, 24), ("SL", 2, 4, 60), ("SL", 2, 5, 120), ("SL", 3, 2, 168),
    ("GL", 2, 3, 48), ("Sp", 2, 3, 24), ("Sp", 4, 2, 720),
    ("SU", 3, 2, 216), ("GU", 3, 2, 648),
])
def test_generators_produce_the_right_order(family, n, q, order):
    spec = ClassicalGroupSpec(family, n, q)
    assert matrix_group_order(spec) == order
    assert len(closure(classical_group(spec))) == order


@pytest.mark.parametrize("family,n,q", [
    ("Sp", 4, 3), ("Sp", 6, 2), ("SU", 3, 2), ("SU", 3, 3), ("GU", 3, 2),
])
def test_generators_preserve_their_form(family, n, q):
    spec = ClassicalGroupSpec(family, n, q)
    J = form_matrix(spec)
    assert J is not None
    for g in classical_group(spec):
        assert preserves_form(spec, g)
    # a random word also preserves the form
    gens = classical_group(spec)
    rng = random.Random(1)
    w = Matrix.identity(spec.field, n)
    for _ in range(12):
        w = w * gens[rng.randrange(len(gens))]
    assert preserves_form(spec, w)


def test_determinants_are_one_for_special_families():
    for family, n, q in [("SL", 3, 4), ("Sp", 4, 3), ("SU", 3, 2)]:
        for g in classical_group(ClassicalGroupSpec(family, n, q)):
            assert g.det() == 1


def test_long_root_elements():
    F3 = field_make(3)
    x = long_root_element(2, 3, 1, 1)
    assert x * x == long_root_element(2, 3, 1, 2)          # additivity
    assert long_root_element(2, 3, 1, 0) == Matrix.identity(F3, 4)
    assert preserves_form(ClassicalGroupSpec("Sp", 4, 3), x)
    # slot position: identity plus t at (i-1, 2n-i)
    assert x.rows[0][3] == 1
    y = long_root_element(2, 3, 2, 1)
    assert y.rows[1][2] == 1
    with pytest.raises(ValueError):
        long_root_element(2, 3, 3, 1)


def test_scalar_counts():
    assert scalar_count(ClassicalGroupSpec("SL", 2, 3)) == 2
    assert scalar_count(ClassicalGroupSpec("SL", 3, 4)) == 3
    assert scalar_count(ClassicalGroupSpec("Sp", 4, 3)) == 2
    assert scalar_count(ClassicalGroupSpec("SU", 3, 2)) == 3
    assert scalar_count(ClassicalGroupSpec("GU", 3, 2)) == 3


def test_lie_orders():
    assert lie_order("A", 1, 7) == 336
    assert lie_order("A", 1, 7, projective=True) == 168
    assert lie_order("C", 2, 3) == 51840
    assert lie_order("C", 2, 3, projective=True) == 25920
    assert lie_order("A", 2, 2, twisted=True) == 216
    assert lie_order("A", 2, 2, twisted=True, projective=True) == 72
    assert lie_order("A", 1, 27, projective=True) == 9828
    with pytest.raises(ValueError):
        lie_order("E", 6, 2)


def test_unsupported_specs_rejected():
    with pytest.raises(ValueError):
        ClassicalGroupSpec("Sp", 3, 3)
    with pytest.raises(ValueError):
        ClassicalGroupSpec("SU", 4, 2)
    with pytest.raises(ValueError):
        ClassicalGroupSpec("SO", 3, 3)
    for q in (0, 1, 6, 12):
        with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
            ClassicalGroupSpec("SL", 2, q).field


def test_q_is_split_once_per_spec(monkeypatch):
    """Realizing PSU(3,3) reads its spec's field for every matrix entry
    it conjugates, but factors q on the first read only (415 times when
    every read factored it)."""
    from carterlab.linear import classical
    from carterlab.linear.groupspec import realize
    calls = [0]
    split = classical._split_prime_power

    def counting(q):
        calls[0] += 1
        return split(q)
    monkeypatch.setattr(classical, "_split_prime_power", counting)
    assert realize("PSU(3,3)").group.order() == 6048
    assert calls[0] == 1
