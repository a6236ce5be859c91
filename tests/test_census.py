"""A census of almost simple groups under the full-search cap.

Each spec is realized and searched once, and three things are checked
that need no table of expected answers: the paper's claim that there is
at most one class of Carter subgroups, a witness replay of each
representative, and CritSyl2Carter (a Carter subgroup holds a Sylow
2-subgroup S exactly when N(S) = S·C(S)).  For PSL(2, q) with q odd,
Norm2Syl adds that N(S) = S·C(S) exactly when q ≡ ±1 (mod 8).

No count or order found here is pinned.  Left out for time, each taking
0.5 s or more in process: Alt(8), Sym(8), PSL(2,32), PGL(2,31),
PGL(2,41), PSL(3,4), PGL(3,4), Ext(PSL(3,4), frob), Ext(PSL(3,4), graph),
Ext(PSU(3,3), frob) and PSU(3,4).
"""

import pytest

from carterlab.linear.groupspec import realize
from carterlab.permgrp.carter import (carter_class_containing_sylow2,
                                      carter_subgroups, check_syl2_criterion,
                                      is_carter_witness)

PSL2_Q = (4, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47,
          49, 53)

CENSUS = (
    [f"Alt({n})" for n in (5, 6, 7)]
    + [f"Sym({n})" for n in (5, 6, 7)]
    + [f"PSL(2,{q})" for q in PSL2_Q]
    + [f"PGL(2,{q})" for q in (5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 37,
                               43)]
    + [f"PGammaL(2,{q})" for q in (4, 8, 9, 16, 25, 27)]
    + [f"Ext(PSL(2,{q}), frob)" for q in (9, 16, 25, 27)]
    + ["Ext(PSL(2,16), frob^2)", "PSL(3,3)", "Ext(PSL(3,3), graph)",
       "PSU(3,3)", "PSp(4,3)"]
)


@pytest.mark.parametrize("spec", CENSUS)
def test_census_group(spec):
    G = realize(spec).group
    classes = carter_subgroups(G)
    assert classes.class_count <= 1
    for rep in classes.representatives:
        assert is_carter_witness(G, rep)
    criterion = check_syl2_criterion(G)
    assert criterion == (carter_class_containing_sylow2(classes) is not None)
    if spec.startswith("PSL(2,"):
        q = int(spec[6:-1])
        if q % 2:
            assert criterion == (q % 8 in (1, 7))
