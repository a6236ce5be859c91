"""Permutation realizations of matrix groups and their automorphisms.

Matrices act on row vectors (v -> v*M), which makes the matrix-to-
permutation map a homomorphism under the left-to-right permutation
product used throughout.

A domain is one sorted list of points: the nonzero vectors of F^n
(``linear``), or the projective points, whose first nonzero coordinate
is 1.  Sorting is by field element codes, so every run of the same
construction produces the identical permutation group.  A projective
domain may add a block of hyperplanes, indexed by the same list:
hyperplane v is the kernel of the form v, and M moves it by (M^T)^-1.

One builder makes every permutation of a domain, sending point v to
point_map(v) and hyperplane v to hyperplane_map(v): matrix images, and
the field automorphism (entrywise p-th powers on both blocks).  The
graph automorphism of SL(n, q), n >= 3, is the duality swapping the
two blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from ..errors import CapExceeded
from ..permgrp import io as permio
from ..permgrp.perm import Perm
from ..permgrp.group import PermGroup
from .classical import ClassicalGroupSpec, classical_group
from .gf import FiniteField
from .matrix import Matrix


def _normalize(F: FiniteField, v: tuple) -> tuple:
    for c in v:
        if c:
            if c == 1:
                return v
            inv = F.inv(c)
            return tuple(F.mul(inv, a) for a in v)
    raise ValueError("zero vector has no projective normalization")


def nonzero_vectors(F: FiniteField, n: int) -> list[tuple]:
    """Every nonzero vector of F^n, sorted."""
    return list(itertools.islice(itertools.product(range(F.size), repeat=n), 1, None))


def projective_points(F: FiniteField, n: int) -> list[tuple]:
    """Normalized representatives of P^{n-1}(F), sorted: the later the
    leading 1, the earlier the point."""
    return [(0,) * lead + (1,) + t for lead in reversed(range(n))
            for t in itertools.product(range(F.size), repeat=n - 1 - lead)]


@dataclass
class ProjectiveAction:
    """A matrix group realized on one block of points (projective points, or
    nonzero vectors when ``linear``), plus a dual block of hyperplanes."""

    spec: ClassicalGroupSpec
    include_hyperplanes: bool = False
    linear: bool = False  # act on nonzero vectors instead (faithful for SL etc.)
    points: list = dc_field(init=False)
    _index: dict = dc_field(init=False)

    def __post_init__(self):
        if self.linear and self.include_hyperplanes:
            raise ValueError("hyperplane block requires the projective domain")
        F, n = self.spec.field, self.spec.n
        size = (F.size ** n - 1) // (1 if self.linear else F.size - 1)
        size *= 2 if self.include_hyperplanes else 1
        if size > permio.DEGREE_CAP:
            raise CapExceeded(f"domain size {size} exceeds {permio.DEGREE_CAP}")
        self.points = nonzero_vectors(F, n) if self.linear else projective_points(F, n)
        self._index = {v: i for i, v in enumerate(self.points)}

    @property
    def degree(self) -> int:
        return len(self.points) * (2 if self.include_hyperplanes else 1)

    def _block_perm(self, point_map, hyperplane_map) -> Perm:
        """Point v goes to point_map(v), hyperplane v to hyperplane_map(v)."""
        index = self._index
        images = [index[point_map(v)] for v in self.points]
        if self.include_hyperplanes:
            off = len(self.points)
            images += [off + index[hyperplane_map(v)] for v in self.points]
        return Perm(images)

    def _mover(self, M: Matrix):
        """The map sending a point v to the point of v*M."""
        if self.linear:
            return M.apply_to_row_vector
        F = self.spec.field
        return lambda v: _normalize(F, M.apply_to_row_vector(v))

    def perm_of(self, M: Matrix) -> Perm:
        """The permutation induced by M (hyperplanes move by the inverse transpose)."""
        hyperplane_map = None
        if self.include_hyperplanes:
            hyperplane_map = self._mover(M.inverse().transpose())
        return self._block_perm(self._mover(M), hyperplane_map)

    def group(self) -> PermGroup:
        gens = [self.perm_of(M) for M in classical_group(self.spec)]
        return PermGroup(gens, self.degree)


def frobenius_perm(action: ProjectiveAction) -> Perm:
    """The permutation of the domain induced by entrywise p-th powers."""
    F = action.spec.field

    def image(v):
        return tuple(map(F.frobenius, v))

    return action._block_perm(image, image)


def graph_auto_perm(action: ProjectiveAction) -> Perm:
    """Duality swapping points with hyperplanes; conjugation by it maps the
    image of g to the image of (g^T)^-1.  Needs n >= 3 and the dual block."""
    if action.spec.n < 3:
        raise ValueError("graph automorphism needs dimension >= 3")
    if not action.include_hyperplanes:
        raise ValueError("build the action with include_hyperplanes=True")
    n_pts = len(action.points)
    images = [n_pts + i for i in range(n_pts)] + list(range(n_pts))
    return Perm(images)


def extend_by_autos(G: PermGroup, autos) -> PermGroup:
    """<G, autos>; every automorphism must normalize G."""
    autos = [a for a in autos if not a.is_identity()]
    for a in autos:
        if len(a) != G.degree:
            raise ValueError("automorphism degree mismatch")
        if any(g.conjugate(a) not in G for g in G.generators):
            raise ValueError("permutation does not normalize the group")
    if not autos:
        return G
    return PermGroup(G.generators + tuple(autos), G.degree)

