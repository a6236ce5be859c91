"""The W(E6) centralizer scan for self-normalizing order-3 subgroups.

For every conjugacy class representative y of W(E6), the scan checks
that the centralizer C = C_W(y) contains no self-normalizing subgroup
of order 3.  The subgroup <x> is self-normalizing exactly when its
conjugation orbit among the order-3 subgroups of C has |C|/3 members,
so one orbit partition of those subgroups (each named by its least
generator) settles every class, with no subgroup-normalizer machinery
per element.

W's order-3 subgroups are listed once, in the scan of W itself, the
centralizer of the identity, whose class comes first: every one is
conjugate to a subgroup generated by a representative of one of W's
classes of order-3 elements, so the orbits through those list them all.
The order-3 subgroups of any other C = C_W(y) are those whose generator
commutes with y.  ``scan_order3_self_normalizers`` instead cubes every
element of the C it is given; a C with fewer elements than W has
order-3 subgroups is scanned that way, which takes fewer products.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..permgrp.group import PermGroup, orbits
from ..permgrp.perm import Perm
from ..permgrp.search import conjugacy_classes, element_centralizer_with_known_index
from .roots import root_system
from .weyl import weyl_group


@dataclass
class ClassScanResult:
    class_size: int
    order3_subgroup_classes: int
    self_normalizing: list        # offending generators, empty on pass

    @property
    def passed(self) -> bool:
        return not self.self_normalizing


def _canonical(y: Perm) -> Perm:
    """The generator naming <y>: the lesser of y and y*y."""
    return min(y, y * y)


def _order3_orbits(C: PermGroup, subgroups):
    """Yield the C-conjugation orbits through ``subgroups``, order-3
    subgroups of C each named by ``_canonical``."""
    return orbits(subgroups, C.walk_generators,
                  lambda x, s: _canonical(x.conjugate(s)))


def _tally(C: PermGroup, subgroup_orbits) -> tuple[int, list[Perm]]:
    """(number of orbits, least members of the orbits of length |C|/3)."""
    n_classes, offenders = 0, []
    for found in subgroup_orbits:
        n_classes += 1
        if 3 * len(found) == C.order():     # |N_C(<x>)| = 3
            offenders.append(min(found))
    return n_classes, sorted(offenders)


def scan_order3_self_normalizers(C: PermGroup) -> tuple[int, list[Perm]]:
    """(number of order-3 subgroup classes, offending generators) in C."""
    if C.order() % 3:
        return 0, []

    def order3_subgroups():
        # cubing takes two products and yields y*y, the other generator of
        # <y>; y.order() steps through the powers of y up to its order
        one = C.identity()
        for y in C.elements():
            sq = y * y
            if sq * y == one and y != one:
                yield min(y, sq)

    return _tally(C, _order3_orbits(C, order3_subgroups()))


def e6_centralizer_scan() -> list[ClassScanResult]:
    """Run the scan over all conjugacy classes of W(E6)."""
    W = weyl_group(root_system("E", 6)).perm_group
    classes = conjugacy_classes(W)
    subgroups = None        # W's order-3 subgroups, once listed
    results = []
    for rep, size in classes:
        C = element_centralizer_with_known_index(W, rep, size)
        assert C.order() == W.order() // size
        if subgroups is None:
            # the identity's class comes first, and its C is W: every
            # order-3 subgroup is conjugate to one generated by a class rep
            assert rep.is_identity()
            found = list(_order3_orbits(C, (_canonical(r) for r, _ in classes
                                            if r.order() == 3)))
            subgroups = [y for f in found for y in f]
            n_classes, offenders = _tally(C, found)
        elif C.order() < len(subgroups):
            # cubing C's elements takes fewer products than testing W's
            # subgroups for commuting with rep
            n_classes, offenders = scan_order3_self_normalizers(C)
        else:
            n_classes, offenders = _tally(C, _order3_orbits(
                C, (y for y in subgroups if y * rep == rep * y)))
        results.append(ClassScanResult(
            class_size=size,
            order3_subgroup_classes=n_classes,
            self_normalizing=offenders,
        ))
    return results
