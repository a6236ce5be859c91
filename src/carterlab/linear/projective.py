"""Permutation realizations of matrix groups and their automorphisms.

Matrices act on row vectors (v -> v*M), which makes the matrix-to-
permutation map a homomorphism under the left-to-right permutation
product used throughout.  Domains are deterministic: vectors and
projective points are normalized (first nonzero coordinate scaled to 1)
and sorted lexicographically by their field element codes, so every
run of the same construction produces the identical permutation group.

The graph automorphism of SL(n, q), n >= 3, is realized as the duality
swapping the point block with the hyperplane block; the field
automorphism as the entrywise p-th power map on coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..errors import CapExceeded
from ..permgrp.perm import Perm
from ..permgrp.group import PermGroup
from .classical import (ClassicalGroupSpec, classical_group, matrix_group_order,
                        scalar_count)
from .gf import FiniteField
from .matrix import Matrix

DOMAIN_CAP = 10_000


class DomainCapExceeded(CapExceeded):
    pass


def _normalize(F: FiniteField, v: tuple) -> tuple:
    for c in v:
        if c:
            if c == 1:
                return v
            inv = F.inv(c)
            return tuple(F.mul(inv, a) for a in v)
    raise ValueError("zero vector has no projective normalization")


def projective_points(F: FiniteField, n: int) -> list[tuple]:
    """Normalized representatives of P^{n-1}(F), sorted."""
    points = []
    for lead in range(n):
        # first nonzero coordinate at position `lead`, scaled to 1
        tail = n - lead - 1
        for code in range(F.size ** tail):
            v = [0] * lead + [1]
            c = code
            for _ in range(tail):
                v.append(c % F.size)
                c //= F.size
            points.append(tuple(v))
    return sorted(points)


def nonzero_vectors(F: FiniteField, n: int) -> list[tuple]:
    out = []
    for code in range(1, F.size ** n):
        v = []
        c = code
        for _ in range(n):
            v.append(c % F.size)
            c //= F.size
        out.append(tuple(v))
    return sorted(out)


@dataclass
class ProjectiveAction:
    """A matrix group realized on projective points (plus dual hyperplanes)."""

    spec: ClassicalGroupSpec
    include_hyperplanes: bool = False
    linear: bool = False  # act on nonzero vectors instead (faithful for SL etc.)
    domain: list = dc_field(init=False)
    _index: dict = dc_field(init=False)
    _n_points: int = dc_field(init=False)

    def __post_init__(self):
        F = self.spec.field
        n = self.spec.n
        if self.linear:
            pts = nonzero_vectors(F, n)
            if self.include_hyperplanes:
                raise ValueError("hyperplane block requires the projective domain")
        else:
            pts = projective_points(F, n)
        self._n_points = len(pts)
        domain = list(pts)
        if self.include_hyperplanes:
            domain += list(pts)  # dual block, same coordinate set
        if len(domain) > DOMAIN_CAP:
            raise DomainCapExceeded(f"domain size {len(domain)} exceeds {DOMAIN_CAP}")
        self.domain = domain
        self._index = {v: i for i, v in enumerate(pts)}

    @property
    def degree(self) -> int:
        return len(self.domain)

    def _point_image(self, v: tuple, M: Matrix) -> tuple:
        w = M.apply_to_row_vector(v)
        return w if self.linear else _normalize(self.spec.field, w)

    def perm_of(self, M: Matrix) -> Perm:
        """The permutation induced by M (hyperplanes move by the inverse)."""
        images = [self._index[self._point_image(v, M)]
                  for v in self.domain[:self._n_points]]
        if self.include_hyperplanes:
            Minv_t = M.inverse().transpose()
            off = self._n_points
            images += [off + self._index[self._point_image(v, Minv_t)]
                       for v in self.domain[:self._n_points]]
        return Perm(images)

    def group(self) -> PermGroup:
        gens = [self.perm_of(M) for M in classical_group(self.spec)]
        return PermGroup(gens, self.degree)

    def image_order(self) -> int:
        order = matrix_group_order(self.spec)
        if self.linear:
            return order
        return order // scalar_count(self.spec)


def projective_rep(spec: ClassicalGroupSpec,
                   include_hyperplanes: bool = False) -> ProjectiveAction:
    return ProjectiveAction(spec, include_hyperplanes=include_hyperplanes)


def linear_rep(spec: ClassicalGroupSpec) -> ProjectiveAction:
    return ProjectiveAction(spec, linear=True)


def frobenius_perm(action: ProjectiveAction) -> Perm:
    """The permutation of the domain induced by entrywise p-th powers."""
    F = action.spec.field
    n_pts = action._n_points

    def image(v):
        return tuple(F.frobenius(a) for a in v)

    images = [action._index[image(v)] for v in action.domain[:n_pts]]
    if action.include_hyperplanes:
        images += [n_pts + action._index[image(v)] for v in action.domain[:n_pts]]
    return Perm(images)


def graph_auto_perm(action: ProjectiveAction) -> Perm:
    """Duality swapping points with hyperplanes; conjugation by it maps the
    image of g to the image of (g^T)^-1.  Needs n >= 3 and the dual block."""
    if action.spec.n < 3:
        raise ValueError("graph automorphism needs dimension >= 3")
    if not action.include_hyperplanes:
        raise ValueError("build the action with include_hyperplanes=True")
    n_pts = action._n_points
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


def coset_exponent(G: PermGroup, zeta: Perm, zeta_order: int, g: Perm) -> int:
    """The power of zeta carried by g in <G, zeta>: least i with g*zeta^-i in G."""
    z_inv = zeta.inverse()
    cur = g
    for i in range(zeta_order):
        if cur in G:
            return i
        cur = cur * z_inv
    raise ValueError("element does not lie in <G, zeta> with the given order")
