"""Quotient groups realized as permutations of right cosets.

For a normal N in G, the cosets Ng are labelled by their minimal
representative (the lexicographically least image tuple in the coset),
the domain is those labels sorted, and G acts by right multiplication.
Normality makes the action's kernel exactly N, so the image is a
faithful copy of G/N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..errors import CapExceeded
from .perm import Perm
from .group import PermGroup, orbit


INDEX_CAP = 100_000


def is_normal(G: PermGroup, N: PermGroup) -> bool:
    return N.is_subgroup_of(G) and all(
        n.conjugate(g) in N for n in N.generators for g in G.generators)


def _coset_key(n_elements, g: Perm) -> Perm:
    """The label of the coset Ng: its least element."""
    return min(n * g for n in n_elements)


@dataclass(frozen=True)
class QuotientProjection:
    """Maps elements/subgroups of G onto the coset realization of G/N."""

    G: PermGroup
    _keys: tuple          # coset labels, in domain order
    _coset_index: dict    # label -> domain point
    _N_elements: tuple

    def element(self, g: Perm) -> Perm:
        if g not in self.G:
            raise ValueError("element not in G")
        return Perm(self._coset_index[_coset_key(self._N_elements, key * g)]
                    for key in self._keys)

    def subgroup(self, H: PermGroup) -> PermGroup:
        return PermGroup([self.element(h) for h in H.generators], len(self._keys))


def quotient_group(G: PermGroup, N: PermGroup) -> tuple[PermGroup, QuotientProjection]:
    """The quotient G/N as a faithful PermGroup, plus its projection map."""
    if not is_normal(G, N):
        raise ValueError("N is not a normal subgroup of G")
    index = G.order() // N.order()
    if index > INDEX_CAP:
        raise CapExceeded(f"index {index} exceeds cap {INDEX_CAP}")
    n_elements = tuple(sorted(N.elements()))
    coset_key = partial(_coset_key, n_elements)
    keys = orbit([coset_key(Perm.identity(G.degree))], G.generators,
                 lambda key, s: coset_key(key * s))
    assert len(keys) == index
    ordered = tuple(sorted(keys))
    coset_index = {key: i for i, key in enumerate(ordered)}
    projection = QuotientProjection(G, ordered, coset_index, n_elements)
    quotient = projection.subgroup(G)
    assert quotient.order() == index
    return quotient, projection
