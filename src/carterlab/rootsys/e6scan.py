"""The W(E6) centralizer scan for self-normalizing order-3 subgroups.

For every conjugacy class representative y of W(E6), the scan checks
that the centralizer C = C_W(y) contains no self-normalizing subgroup
of order 3.  The subgroup <x> is self-normalizing exactly when its
conjugation orbit among the order-3 subgroups of C has |C|/3 members,
so one orbit partition of those subgroups (each named by its least
generator) settles every class, with no subgroup-normalizer machinery
per element.
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


def scan_order3_self_normalizers(C: PermGroup) -> tuple[int, list[Perm]]:
    """(number of order-3 subgroup classes, offending generators) in C."""
    if C.order() % 3:
        return 0, []

    def canonical(y: Perm) -> Perm:     # one generator per subgroup <y>
        return min(y, y * y)

    def order3_subgroups():
        # cubing takes two products and yields y*y, the other generator of
        # <y>; y.order() steps through the powers of y up to its order
        one = C.identity()
        for y in C.elements():
            sq = y * y
            if sq * y == one and y != one:
                yield min(y, sq)

    n_classes, offenders = 0, []
    for found in orbits(order3_subgroups(), C.walk_generators,
                        lambda x, s: canonical(x.conjugate(s))):
        n_classes += 1
        if 3 * len(found) == C.order():     # |N_C(<x>)| = 3
            offenders.append(min(found))
    return n_classes, sorted(offenders)


def e6_centralizer_scan() -> list[ClassScanResult]:
    """Run the scan over all conjugacy classes of W(E6)."""
    W = weyl_group(root_system("E", 6)).perm_group
    results = []
    for rep, size in conjugacy_classes(W):
        C = element_centralizer_with_known_index(W, rep, size)
        assert C.order() == W.order() // size
        n_classes, offenders = scan_order3_self_normalizers(C)
        results.append(ClassScanResult(
            class_size=size,
            order3_subgroup_classes=n_classes,
            self_normalizing=offenders,
        ))
    return results
