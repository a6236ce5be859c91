import itertools

import pytest

from carterlab.linear.gf import FiniteField, field_make

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (3, 3),
          (5, 2), (2, 4), (7, 2), (13, 1)]


@pytest.mark.parametrize("p,k", FIELDS)
def test_field_axioms_exhaustively(p, k):
    F = field_make(p, k)
    els = list(F.elements())
    assert len(els) == p ** k
    for a in els:
        assert F.add(a, 0) == a
        assert F.add(a, F.neg(a)) == 0
        assert F.mul(a, 1) == a
        if a:
            assert F.mul(a, F.inv(a)) == 1
    if p ** k <= 64:
        for a, b in itertools.product(els, els):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
        for a, b, c in itertools.product(els, els, els):
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
            assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)


@pytest.mark.parametrize("p,k", FIELDS)
def test_multiplicative_group_cyclic(p, k):
    F = field_make(p, k)
    seen, cur = set(), 1
    for _ in range(p ** k - 1):
        cur = F.mul(cur, F.generator)
        seen.add(cur)
    assert len(seen) == p ** k - 1


@pytest.mark.parametrize("p,k", FIELDS)
def test_frobenius_is_order_k_automorphism_fixing_prime_field(p, k):
    F = field_make(p, k)
    els = list(F.elements())
    fixed = [a for a in els if F.frobenius(a) == a]
    assert sorted(fixed) == list(range(p))  # the prime field's codes
    for a in els[:16]:
        for b in els[:16]:
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
    orbit_lengths = set()
    for a in els:
        cur, n = F.frobenius(a), 1
        while cur != a:
            cur = F.frobenius(cur)
            n += 1
        orbit_lengths.add(n)
    assert max(orbit_lengths) == k


def test_gf27_generator_has_order_26():
    F = field_make(3, 3)
    cur, order = F.generator, 1
    while cur != 1:
        cur = F.mul(cur, F.generator)
        order += 1
    assert order == 26


def test_modulus_is_deterministic():
    assert field_make(2, 2).modulus == FiniteField(2, 2).modulus == [1, 1, 1]
    assert field_make(3, 3).modulus == FiniteField(3, 3).modulus


# The canonical moduli, [c0, ..., c_{k-1}, 1], of every GF(q) with q = p^k,
# k >= 2 and q <= 256.  Every projective domain and permutation image
# depends on them, so a change here changes reports.
MODULI = {
    (2, 2): [1, 1, 1],
    (2, 3): [1, 1, 0, 1],
    (2, 4): [1, 1, 0, 0, 1],
    (2, 5): [1, 0, 1, 0, 0, 1],
    (2, 6): [1, 1, 0, 0, 0, 0, 1],
    (2, 7): [1, 1, 0, 0, 0, 0, 0, 1],
    (2, 8): [1, 0, 1, 1, 1, 0, 0, 0, 1],
    (3, 2): [2, 1, 1],
    (3, 3): [1, 2, 0, 1],
    (3, 4): [2, 1, 0, 0, 1],
    (3, 5): [1, 2, 0, 0, 0, 1],
    (5, 2): [2, 1, 1],
    (5, 3): [2, 3, 0, 1],
    (7, 2): [3, 1, 1],
    (11, 2): [7, 1, 1],
    (13, 2): [2, 1, 1],
}


@pytest.mark.parametrize("p,k", sorted(MODULI))
def test_modulus_pinned(p, k):
    F = FiniteField(p, k)
    assert F.modulus == MODULI[p, k]
    assert F.generator == p  # the code of x


def test_prime_field_modulus_is_x_minus_largest_primitive_root():
    def order(a, p):
        o, cur = 1, a
        while cur != 1:
            cur, o = cur * a % p, o + 1
        return o

    for p in (n for n in range(2, 101) if all(n % d for d in range(2, n))):
        g = max(a for a in range(1, p) if order(a, p) == p - 1)
        F = FiniteField(p)
        assert F.modulus == [p - g, 1], p
        assert F.generator == g, p


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        FiniteField(4, 1)
    with pytest.raises(ValueError):
        FiniteField(2, 17)
    F = field_make(5, 1)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
