"""Shared corpus fixtures.

The corpus is every concrete group the checks exercise, each realized
deterministically from its spec string.  Oracle-backed tests filter by
order so exhaustive scans stay fast.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from carterlab.linear.groupspec import realize
from carterlab.permgrp.group import PermGroup
from carterlab.permgrp.perm import PERM_TYPES, Perm
from carterlab.verify import REGISTRY

CORPUS_SPECS = [
    "Sym(3)", "Sym(4)", "Sym(5)", "Sym(6)",
    "Alt(4)", "Alt(5)", "Alt(6)",
    "SL(2,3)", "GL(2,3)",
    "PSL(2,3)", "PGL(2,3)", "PSL(2,5)", "PGL(2,5)", "PSL(2,7)", "PGL(2,7)",
    "PSL(2,9)", "PSL(2,11)", "PSL(2,13)",
    "PSU(3,2)", "PGU(3,2)", "PSL(3,2)",
    "PGammaL(2,8)",
    "W(A2)", "W(C2)", "W(A3)", "W(C3)", "W(G2)",
]


@pytest.fixture(scope="session")
def corpus():
    return {spec: realize(spec).group for spec in CORPUS_SPECS}


@pytest.fixture
def conjugations(monkeypatch):
    """Counts the conjugations made on narrow permutations, by where they
    are made: ``Perm.conjugate`` calls, class-walk edges (members times
    generators) and fingerprint images (one per element)."""
    counts = Counter()
    conjugate = Perm.conjugate
    walk = Perm._conjugation_orbit
    images = Perm._conjugate_all

    def counting_conjugate(self, g):
        counts["conjugate"] += 1
        return conjugate(self, g)

    def counting_walk(self, gens):
        members = walk(self, gens)
        counts["class walk"] += len(members) * len(gens)
        return members

    def counting_images(self, xs):
        counts["fingerprint"] += len(xs)
        return images(self, xs)

    monkeypatch.setattr(Perm, "conjugate", counting_conjugate)
    monkeypatch.setattr(Perm, "_conjugation_orbit", counting_walk)
    monkeypatch.setattr(Perm, "_conjugate_all", counting_images)
    return counts


@pytest.fixture
def products(monkeypatch):
    """Counts the products made, by layout: ``Perm.__mul__`` and
    ``_WidePerm.__mul__`` calls.  Division and conjugation are not
    products here."""
    counts = Counter()
    for cls in PERM_TYPES:
        def counting(self, g, mul=cls.__mul__, name=cls.__name__):
            counts[name] += 1
            return mul(self, g)

        monkeypatch.setattr(cls, "__mul__", counting)
    return counts


def corpus_upto(corpus, cap):
    return {spec: G for spec, G in corpus.items() if G.order() <= cap}


def random_subgroups(corpus, seed, per_group):
    """Seeded draws of proper subgroups <1 to 3 random elements> of the
    corpus groups of order at most 2000, as (spec, G, H, rng)."""
    rng = random.Random(seed)
    for spec, G in corpus_upto(corpus, 2000).items():
        drawn = 0
        while drawn < per_group:
            gens = [G.random_element(rng) for _ in range(rng.randint(1, 3))]
            H = PermGroup(gens, G.degree)
            if H.order() < G.order():
                drawn += 1
                yield spec, G, H, rng


@pytest.fixture(scope="session")
def quick_reports():
    return REGISTRY.run_all("quick")
