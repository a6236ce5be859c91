import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import carterlab
from carterlab.linear.groupspec import realize
from carterlab.permgrp import perm, search
from carterlab.permgrp.group import PermGroup, orbit
from carterlab.permgrp.perm import Perm
from carterlab.permgrp.quotient import quotient_group


def test_identity_and_validation():
    e = Perm.identity(4)
    assert e.is_identity() and e.degree == 4
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


def test_from_cycles_and_str():
    p = Perm.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert str(p) == "(0 1 2)(3 4)"
    assert p.order() == 6
    assert p.cycle_type() == (2, 3)
    with pytest.raises(ValueError):
        Perm.from_cycles(3, [(0, 1), (1, 2)])  # overlapping cycles


def test_product_applies_left_then_right():
    a = Perm.from_cycles(3, [(0, 1)])
    b = Perm.from_cycles(3, [(1, 2)])
    # product a*b sends 0 -> a(0)=1 -> b(1)=2
    assert (a * b)[0] == 2
    assert (b * a)[0] == 1


def test_associativity_and_inverse():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randrange(2, 9)
        ps = [Perm(rng.sample(range(n), n)) for _ in range(3)]
        a, b, c = ps
        assert (a * b) * c == a * (b * c)
        assert (a * a.inverse()).is_identity()
        assert a.inverse().inverse() == a


def test_pow_matches_repeated_product(products):
    """k = 0, 1, 2, powers of two and negative k, against repeated
    products; a power k >= 1 squares up to its highest bit and multiplies
    once per further set bit, so it makes no product that nothing reads."""
    p = Perm.from_cycles(11, [(0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10)])  # order 30
    powers = [Perm.identity(11)]
    for _ in range(29):
        powers.append(powers[-1] * p)
    assert powers[-1] * p == powers[0]
    for k in [*range(13), 16, 31, 32, 64, *range(-13, 0), -16, -32, -64]:
        products.clear()
        assert p ** k == powers[k % 30], k
        m = abs(k)
        made = m.bit_length() + m.bit_count() - 2 if m else 0
        assert sum(products.values()) == made, k
    assert p ** -1 == p.inverse()


def test_conjugate_is_right_conjugation():
    x = Perm.from_cycles(4, [(0, 1)])
    g = Perm.from_cycles(4, [(0, 2), (1, 3)])
    assert x.conjugate(g) == g.inverse() * x * g
    # conjugation preserves cycle type
    assert x.conjugate(g).cycle_type() == x.cycle_type()


@pytest.mark.parametrize("n", [1, 2, 3, 28, 72, 200, 257, 300])
def test_kernel_matches_index_formulas(n):
    rng = random.Random(n)
    e = Perm.identity(n)
    assert e.is_identity() and e * e == e and e.inverse() == e
    for _ in range(20):
        a, b, x, g = (Perm(rng.sample(range(n), n)) for _ in range(4))
        ab, xg = a * b, x.conjugate(g)
        assert type(ab) is type(a) and type(xg) is type(a)
        assert all(ab[i] == b[a[i]] for i in range(n))
        assert all(xg[g[i]] == g[x[i]] for i in range(n))
        assert (a * a.inverse()).is_identity() and (a.inverse() * a).is_identity()
        assert a * e == a == e * a
        assert a.is_identity() == (tuple(a) == tuple(range(n)))
        acc = e
        for k in range(7):
            assert a ** k == acc and a ** -k == acc.inverse()
            acc = acc * a
    if n >= 2:
        assert not Perm.from_cycles(n, [(n - 2, n - 1)]).is_identity()


@pytest.mark.parametrize("narrow_degree", [perm.NARROW_DEGREE, 1])
@pytest.mark.parametrize("n", [1, 2, 28, 256, 257, 1000])
def test_division_is_the_product_by_the_inverse(monkeypatch, n, narrow_degree):
    """g / u == g * u⁻¹ in either layout: with NARROW_DEGREE = 1 every
    permutation of degree 2 or more is wide.  No identity is built here,
    since identities are cached per degree."""
    monkeypatch.setattr(perm, "NARROW_DEGREE", narrow_degree)
    kind = Perm if n <= narrow_degree else perm._WidePerm
    rng = random.Random(n)
    for _ in range(10):
        g, u = (Perm(rng.sample(range(n), n)) for _ in range(2))
        q = g / u
        assert type(g) is type(q) is kind
        assert q == g * u.inverse() and q * u == g
        assert tuple(g / g) == tuple(range(n))


@pytest.mark.parametrize("narrow_degree", [perm.NARROW_DEGREE, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 28, 72, 255, 256])
def test_conjugation_walks_match_the_reference(monkeypatch, n, narrow_degree):
    """The class walk and the fingerprint image against ``group.orbit``
    and ``Perm.conjugate``, in either layout.  The generators move at
    most six points, so each class has at most 720 members."""
    monkeypatch.setattr(perm, "NARROW_DEGREE", narrow_degree)
    kind = Perm if n <= narrow_degree else perm._WidePerm
    rng = random.Random(n)
    for _ in range(5):
        moved = rng.sample(range(n), min(n, 6))
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(n))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                images[a] = b
            gens.append(Perm(images))
        x, g, h = (Perm(rng.sample(range(n), n)) for _ in range(3))
        members = x._conjugation_orbit(gens)
        assert members == orbit([x], gens, type(x).conjugate)
        assert all(type(y) is kind for y in members)
        fp = frozenset(members)
        image = search._conj_fingerprint(fp, g)
        expected = frozenset(y.conjugate(g) for y in fp)
        assert image == expected and {expected: True}[image]
        # a walk conjugates fingerprint images too, not only sets of Perms
        again = search._conj_fingerprint(image, h)
        expected = frozenset(y.conjugate(h) for y in expected)
        assert again == expected and {expected: True}[again]


def test_products_of_degree_below_two():
    for n in (0, 1):
        e = Perm.identity(n)
        assert e * e == e and type(e * e) is Perm
        assert e.conjugate(e) == e and e ** 5 == e and e.order() == 1
    # G/G acts on its one coset: a group of degree 1
    G = PermGroup.symmetric(4)
    Q, proj = quotient_group(G, G)
    assert Q.degree == 1 and Q.order() == 1
    assert [tuple(q) for q in Q.elements()] == [(0,)]
    images = [proj.element(g) for g in G.generators]
    assert all(tuple(x) == (0,) for x in images)
    assert tuple(images[0] * images[1]) == (0,)
    assert proj.subgroup(G).order() == 1


def test_order_and_cycle_type_match_cycles():
    rng = random.Random(7)
    for n in (0, 1, 2, 3, 5, 8, 13, 28):
        for _ in range(40):
            x = Perm(rng.sample(range(n), n))
            lengths = [len(c) for c in x.cycles()]
            assert x.cycle_type() == tuple(sorted(lengths)), x
            assert x.order() == math.lcm(*lengths), x
            assert (x ** x.order()).is_identity(), x
    assert Perm.identity(0).order() == Perm.identity(1).order() == 1
    assert Perm.identity(1).cycle_type() == ()


def _cycle_lcm(x) -> int:
    return math.lcm(*(len(c) for c in x.cycles()))


@pytest.fixture
def counted_cycle_walks(monkeypatch):
    """Counts ``_cycle_lengths`` calls; ``Perm.__mul__`` raises, since
    ``order()`` must leave the traced product counts as they are."""
    calls = []
    walk = perm._PermMethods._cycle_lengths

    def counting(self):
        calls.append(len(self))
        return walk(self)

    def no_product(self, other):
        raise AssertionError("order() multiplied through Perm.__mul__")

    monkeypatch.setattr(perm._PermMethods, "_cycle_lengths", counting)
    monkeypatch.setattr(Perm, "__mul__", no_product)
    return calls


@pytest.mark.parametrize("spec", ["Sym(5)", "Ext(PSL(2,8), frob)"])
def test_order_of_every_element_is_the_cycle_lcm(spec):
    G = realize(spec).group
    elements = list(G.elements())
    assert len(elements) == G.order()
    for x in elements:
        assert x.order() == _cycle_lcm(x), (spec, x)


def test_small_orders_take_powers_without_products(counted_cycle_walks):
    for n in (0, 1, 2):
        assert Perm.identity(n).order() == 1
    assert Perm.from_cycles(2, [(0, 1)]).order() == 2
    assert Perm.identity(256).order() == 1
    assert Perm.from_cycles(8, [(0, 1, 2, 3, 4, 5, 6, 7)]).order() == 8
    assert Perm.from_cycles(12, [(0, 1, 2), (3, 4), (5, 6, 7, 8)]).order() == 12
    assert counted_cycle_walks == [0]       # degree 0 walks no power


def test_orders_above_the_degree_fall_back_to_cycle_lengths(counted_cycle_walks):
    x = Perm.from_cycles(8, [(0, 1, 2), (3, 4, 5, 6, 7)])
    assert x.order() == 15 == _cycle_lcm(x)
    assert counted_cycle_walks == [8]
    # prime cycles 2, 3, 5, ..., 41 fill 238 of 256 points
    primes = [p for p in range(2, 42) if all(p % d for d in range(2, p))]
    cycles, start = [], 0
    for p in primes:
        cycles.append(range(start, start + p))
        start += p
    y = Perm.from_cycles(256, cycles)
    assert type(y) is Perm and start == 238
    began = time.perf_counter()
    for _ in range(100):
        assert y.order() == math.prod(primes) == _cycle_lcm(y)
    assert time.perf_counter() - began < 1.0
    assert counted_cycle_walks == [8] + [256] * 100


@pytest.mark.parametrize("n", [257, 300])
def test_wide_orders_walk_the_cycles(n, counted_cycle_walks):
    rng = random.Random(n)
    for _ in range(20):
        x = Perm(rng.sample(range(n), n))
        assert type(x) is not Perm and x.order() == _cycle_lcm(x)
    assert Perm.identity(n).order() == 1
    assert counted_cycle_walks == [n] * 21


# Prints the Carter representatives of the groups named on the command
# line, as generator strings and bases, and the twisted classes of W(D4)
# under the flip and the classes of W(F4), after setting NARROW_DEGREE
# from the first argument: before any permutation is built, because
# ``_identity`` and the Weyl cache keep the ones built before.
CARTER_REPS_SCRIPT = """
import json, sys
from carterlab.permgrp import perm
perm.NARROW_DEGREE = int(sys.argv[1])
assert perm._identity.cache_info().currsize == 0
from carterlab.linear.groupspec import realize
from carterlab.permgrp.carter import carter_subgroups
from carterlab.permgrp.search import conjugacy_classes
from carterlab.rootsys import f_conjugacy_classes, flip_twist, root_system, weyl_group
kinds, reps = set(), {}
for spec in sys.argv[2:]:
    G = realize(spec).group
    kinds |= {type(g).__name__ for g in G.generators}
    reps[spec] = [([str(g) for g in K.generators], list(K.base))
                  for K in carter_subgroups(G).representatives]
D4 = root_system("D", 4)
reps["W(D4) flip"] = [(str(c.rep), c.rep_word, c.size)
                      for c in f_conjugacy_classes(weyl_group(D4), flip_twist(D4))]
reps["W(F4)"] = [(str(rep), size) for rep, size in
                 conjugacy_classes(realize("W(F4)").group)]
print(json.dumps([sorted(kinds), reps]))
"""


def test_wide_kernel_finds_the_same_carter_representatives():
    """With NARROW_DEGREE = 1 every permutation of degree 2 or more is a
    tuple-backed _WidePerm; the searches must not notice."""
    src = pathlib.Path(carterlab.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    specs = ["Sym(6)", "GL(2,3)", "Ext(PSL(2,8), frob)"]

    def run(narrow_degree):
        done = subprocess.run(
            [sys.executable, "-c", CARTER_REPS_SCRIPT, str(narrow_degree), *specs],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        return json.loads(done.stdout)

    (wide_kinds, wide), (narrow_kinds, narrow) = run(1), run(256)
    assert (wide_kinds, narrow_kinds) == (["_WidePerm"], ["Perm"])
    assert wide == narrow
    assert [len(narrow[spec]) for spec in specs] == [1, 1, 1]
    assert (len(narrow["W(D4) flip"]), len(narrow["W(F4)"])) == (9, 25)
