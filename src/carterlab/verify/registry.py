"""The normative case registry.

Quick-tier cases finish in seconds to a few minutes; full-tier cases
run searches that take serious time (or are registered skips, so the
coverage gap is explicit).  Each runner checks its expectations with
``expect``.  The provenance column of ``CARTER_CATALOG`` says how each
expected class count and representative order was found; those marked
"derived" were computed once with the brute-force oracles in
``carterlab.permgrp.bruteforce`` and frozen here, and
``regenerate_derived`` recomputes every one that is oracle-sized.

Cases share work within one process: each group spec is realized once,
and each spec's Carter classes and Sylow-2 criterion are computed once,
by whichever case first needs them.  So ``check run all`` does each of
these once however many cases read it, and a later case's ``ms`` leaves
out the work an earlier case did.  A call that raises is not
remembered, so a cap overrun or a crash reaches every case that needs
that result.
"""

from __future__ import annotations

import functools

from ..errors import CapExceeded
from ..linear.classical import ClassicalGroupSpec, classical_group, long_root_element
from ..linear.groupspec import realize
from ..linear.projective import frobenius_perm
from ..permgrp.bruteforce import brute_carter_classes
from ..permgrp.carter import (carter_class_containing_sylow2, carter_subgroups,
                              check_syl2_criterion, is_carter_witness)
from ..permgrp.group import PermGroup, orbits
from ..permgrp.quotient import quotient_group
from ..permgrp.search import (are_conjugate_elements, element_centralizer,
                              subgroup_normalizer)  # perfbench's self-test reads it
from ..permgrp.sylow import p_part, sylow_subgroup
from ..rootsys.e6scan import e6_centralizer_scan
from ..rootsys.roots import (highest_root, is_closed_abelian, omega_fixed_roots,
                             root_system)
from ..rootsys.subsystems import borel_de_siebenthal
from ..rootsys.weyl import (f_conjugacy_classes, flip_twist, identity_twist,
                            weyl_group)
from .report import CheckCase, Registry, SkipCase, expect

REGISTRY = Registry()


# The bodies read ``realize``, ``carter_subgroups`` and
# ``check_syl2_criterion`` from this module's globals when called, so a
# caller that rebinds those names (a tracer, a test) is still obeyed.
@functools.cache
def _realized(spec):
    return realize(spec)


@functools.cache
def _carter_classes(spec):
    return carter_subgroups(_realized(spec).group)


@functools.cache
def _criterion(spec):
    return check_syl2_criterion(_realized(spec).group)


def _case(case_id, description, anchor, tier, group_specs, budget_s):
    def wrap(fn):
        REGISTRY.add(CheckCase(case_id, description, anchor, tier,
                               tuple(group_specs), budget_s, fn))
        return fn
    return wrap


# ---------------------------------------------------------------- norm2syl

NORM2SYL_QS = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25)


def _register_norm2syl():
    for q in NORM2SYL_QS:
        expected = q % 8 in (1, 7)

        def runner(q=q, expected=expected):
            G = _realized(f"PSL(2,{q})").group
            got = _criterion(f"PSL(2,{q})")
            expect(got == expected,
                   f"criterion for PSL(2,{q}) gave {got}, expected {expected}")
            return {"order": G.order(), "criterion": got}, \
                f"q = {q} = {q % 8} mod 8"

        _case(f"norm2syl-psl2-{q}",
              f"Sylow-2 normalizer criterion in PSL(2,{q})",
              "Norm2Syl: N(S) = S C(S) iff q = +-1 mod 8",
              "quick", [f"PSL(2,{q})"], 30.0)(runner)

    def psp_runner():
        G = _realized("PSp(4,3)").group
        got = _criterion("PSp(4,3)")
        expect(got is False, f"criterion for PSp(4,3) gave {got}, expected False")
        return {"order": G.order(), "criterion": got}, "PSp(4,3), q = 3"

    _case("norm2syl-psp4-3",
          "Sylow-2 normalizer criterion fails in PSp(4,3)",
          "Norm2Syl: N(S) = S C(S) iff q = +-1 mod 8 (C-series case)",
          "quick", ["PSp(4,3)"], 120.0)(psp_runner)


# ---------------------------------------------------------------- carter catalog

# expected class counts and representative orders; counts/orders not pinned
# by a named claim were derived with the subgroup-lattice oracle (small
# groups) or the engine's own cross-validated search, then frozen
CARTER_CATALOG = {
    "carter-sym3": ("Sym(3)", 1, 2, "derived: subgroup-lattice oracle"),
    "carter-sym4": ("Sym(4)", 1, 8, "derived: subgroup-lattice oracle"),
    "carter-sym5": ("Sym(5)", 1, 8, "derived: subgroup-lattice oracle"),
    "carter-sym6": ("Sym(6)", 1, 16, "derived: self-normalizing Sylow 2"),
    "carter-alt4": ("Alt(4)", 1, 3, "derived: subgroup-lattice oracle"),
    "carter-alt5": ("Alt(5)", 0, None, "derived: subgroup-lattice oracle"),
    "carter-sl23": ("SL(2,3)", 1, 6, "derived: subgroup-lattice oracle"),
    "carter-gl23": ("GL(2,3)", 1, 16, "derived: subgroup-lattice oracle"),
    # the order-2*3 claim for the unitary case belongs to the inner-diagonal
    # group PGU(3,2), where it holds (next entry); PSU(3,2) itself has the
    # quaternion Sylow 2 as its single Carter class
    "carter-psu32": ("PSU(3,2)", 1, 8, "derived: subgroup-lattice oracle"),
    "carter-pgu32": ("PGU(3,2)", 1, 6, "derived: subgroup-lattice oracle; "
                                       "matches the order-2*3 claim"),
    "carter-psl27": ("PSL(2,7)", 1, 8, "derived: subgroup-lattice oracle"),
}


def _register_carter_catalog():
    for case_id, (spec, count, order, _) in CARTER_CATALOG.items():
        def runner(spec=spec, count=count, order=order):
            G = _realized(spec).group
            classes = _carter_classes(spec)
            expect(classes.class_count == count,
                   f"{spec}: found {classes.class_count} Carter classes, "
                   f"expected {count}")
            if count and order is not None:
                got = classes.representatives[0].order()
                expect(got == order,
                       f"{spec}: Carter representative order {got}, expected {order}")
            for rep in classes.representatives:
                expect(is_carter_witness(G, rep),
                       f"{spec}: representative fails the witness replay")
            return {"order": G.order(), "classes": classes.class_count}, \
                f"{spec}: {classes.class_count} class(es)" + \
                (f", representative order {order}" if count else "")

        _case(case_id,
              f"Full Carter-class search in {spec}",
              "solvable groups have one Carter class; almost simple ones at most one",
              "quick", [spec], 300.0)(runner)


# ---------------------------------------------------------------- suites

def _register_suites():
    @_case("carter-quotient-suite",
           "Carter images in quotients remain Carter",
           "HomImageOfCarter: K N/N is a Carter subgroup of G/N",
           "quick", ["Sym(4)", "SL(2,3)", "PGammaL(2,8)"], 300.0)
    def quotient_suite():
        pairs = []
        S4 = _realized("Sym(4)").group
        V4 = PermGroup([p for p in S4.elements()
                        if p.cycle_type() == (2, 2)], 4)
        pairs.append(("Sym(4)/V4", "Sym(4)", S4, V4))
        sl23 = _realized("SL(2,3)").group
        center = PermGroup([g for g in sl23.elements()
                            if all(g * h == h * g for h in sl23.generators)
                            and not g.is_identity()], sl23.degree)
        pairs.append(("SL(2,3)/Z", "SL(2,3)", sl23, center))
        gl28 = _realized("PGammaL(2,8)")
        pairs.append(("PGammaL(2,8)/PSL(2,8)", "PGammaL(2,8)", gl28.group,
                      gl28.inner))
        details = []
        for label, spec, G, N in pairs:
            Q, proj = quotient_group(G, N)
            reps = _carter_classes(spec).representatives
            expect(bool(reps), f"{label}: no Carter subgroup found upstairs")
            for K in reps:
                KQ = proj.subgroup(K)
                expect(is_carter_witness(Q, KQ),
                       f"{label}: projected Carter subgroup is not Carter")
            details.append(f"{label}: |G/N| = {Q.order()}, {len(reps)} class(es)")
        return {"pairs": len(pairs)}, "; ".join(details)

    @_case("criterion-equivalence-suite",
           "The Sylow-2 criterion matches Carter classes containing a Sylow 2-subgroup",
           "CritSyl2Carter: a Carter subgroup contains S iff N(S) = S C(S)",
           "quick", [spec for spec, *_ in CARTER_CATALOG.values()], 600.0)
    def criterion_suite():
        details = []
        for spec, *_ in CARTER_CATALOG.values():
            criterion = _criterion(spec)
            classes = _carter_classes(spec)
            holder = carter_class_containing_sylow2(classes)
            expect(criterion == (holder is not None),
                   f"{spec}: criterion {criterion} but Sylow-2-bearing class "
                   f"{'exists' if holder else 'missing'}")
            details.append(f"{spec}:{'T' if criterion else 'F'}")
        return {"groups": len(CARTER_CATALOG)}, " ".join(details)

    @_case("inh-2ext-suite",
           "Criterion inherited along 2-power-index extensions",
           "InhBy2-ext: N_H(T) = T C_H(T) forces N_G(S) = S C_G(S)",
           "quick", ["PSL(2,7)", "PGL(2,7)", "Alt(6)", "Sym(6)"], 300.0)
    def inh_suite():
        details = []
        for h_spec, g_spec in [("PSL(2,7)", "PGL(2,7)"), ("Alt(6)", "Sym(6)")]:
            G = _realized(g_spec).group
            H = _realized(h_spec).group
            expect(H.is_subgroup_of(G), f"{h_spec} is not inside {g_spec}")
            index = G.order() // H.order()
            expect(index & (index - 1) == 0, f"index {index} is not a 2-power")
            expect(_criterion(h_spec),
                   f"{h_spec}: hypothesis N_H(T) = T C_H(T) fails")
            expect(_criterion(g_spec),
                   f"{g_spec}: inherited criterion fails")
            details.append(f"{h_spec} <= {g_spec} (index {index})")
        return {"pairs": 2}, "; ".join(details)


# ---------------------------------------------------------------- elementwise

def _register_element_cases():
    @_case("graph-inverse-psl32",
           "Odd-order elements meet their inverses under the duality extension",
           "ConjInverseInGraph: semisimple elements are conjugate to inverses "
           "under the graph extension",
           "quick", ["Ext(PSL(3,2), graph)"], 120.0)
    def graph_inverse():
        ext = _realized("Ext(PSL(3,2), graph)")
        G, Gamma = ext.inner, ext.group
        expect(Gamma.order() == 336, f"extension order {Gamma.order()} != 336")
        odd = [g for g in G.elements() if g.order() % 2 == 1]
        for x in odd:
            expect(are_conjugate_elements(Gamma, x, x.inverse()) is not None,
                   f"element {x} of order {x.order()} misses its inverse")
        return {"order": Gamma.order(), "odd_elements": len(odd)}, \
            f"checked {len(odd)} odd-order elements exhaustively"

    @_case("psl23-power",
           "Order-3 conjugacy with the inverse: canonical vs extended group",
           "an element of order 3 is not conjugate to its inverse in PSL2(3) "
           "but is in PGL2(3)",
           "quick", ["PSL(2,3)", "PGL(2,3)"], 30.0)
    def psl23_power():
        psl = _realized("PSL(2,3)").group
        pgl = _realized("PGL(2,3)").group
        x = next(g for g in psl.elements() if g.order() == 3)
        in_psl = are_conjugate_elements(psl, x, x.inverse()) is not None
        in_pgl = are_conjugate_elements(pgl, x, x.inverse()) is not None
        expect(in_psl is False, "order-3 element meets its inverse in PSL(2,3)")
        expect(in_pgl is True, "order-3 element misses its inverse in PGL(2,3)")
        return {"psl_order": psl.order(), "pgl_order": pgl.order()}, \
            "conjugator exists only after extending by the diagonal part"

    @_case("sp43-longroot-conj",
           "The long-root product v meets its inverse inside Sp(4,3)",
           "v = x_{2e1}(1) x_{2e2}(1) and v^-1 are conjugate in the group",
           "quick", ["Sp(4,3)"], 300.0)
    def sp43_longroot():
        rg = _realized("Sp(4,3)")
        G, act = rg.group, rg.action
        v_mat = long_root_element(2, 3, 1, 1) * long_root_element(2, 3, 2, 1)
        v = act.perm_of(v_mat)
        g = are_conjugate_elements(G, v, v.inverse())
        expect(g is not None, "no conjugator between v and its inverse")
        expect(v.conjugate(g) == v.inverse(), "returned conjugator fails replay")
        return {"order": G.order(), "v_order": v.order()}, \
            f"conjugator found; |v| = {v.order()}"


# ---------------------------------------------------------------- root data

def _register_root_cases():
    @_case("omega-roots-all-types",
           "Involution-fixed root coordinates across all supported types",
           "centUH / centUHsymp: C_U(Omega(H)) is trivial except in the "
           "C-series, where the long roots survive",
           "quick", [], 60.0)
    def omega_all():
        empty_expected = [("A", r) for r in range(2, 8)] + \
            [("B", r) for r in range(3, 8)] + \
            [("D", r) for r in range(3, 8)] + [("E", 6), ("E", 7), ("E", 8)]
        for t, r in empty_expected:
            got = omega_fixed_roots(root_system(t, r))
            expect(got == [], f"{t}{r}: expected empty, got {len(got)} roots")
        for r in range(2, 8):
            system = root_system("C", r)
            got = omega_fixed_roots(system)
            longs = sorted(x for x in system.long_roots() if system.height(x) > 0)
            expect(got == longs and len(got) == r,
                   f"C{r}: expected the {r} long positive roots")
        a1 = omega_fixed_roots(root_system("A", 1))
        expect(len(a1) == 1, "A1 keeps its single positive root")
        return {"empty_types": len(empty_expected), "c_types": 6}, \
            "A2-A7, B3-B7, D3-D7, E6-E8 empty; C2-C7 keep the long positive roots"

    for rank in range(2, 8):
        def runner(rank=rank):
            system = root_system("C", rank)
            longs = [r for r in system.long_roots() if system.height(r) > 0]
            expect(is_closed_abelian(system, longs),
                   f"C{rank}: long positive roots are not sum-free")
            return {"long_roots": len(longs)}, \
                f"no sum of two long positive roots is a root (rank {rank})"
        _case(f"long-roots-abelian-C{rank}",
              f"Long-root subgroup of C{rank} is abelian at the root level",
              "the span of long-root subgroups is abelian (commutator criterion)",
              "quick", [], 30.0)(runner)

    bds_expect = {
        "G2": ["A2", "A1+A1~"],
        "C2": ["A1+A1"],
        "E6": ["A2+A2+A2"],
    }
    for label, wanted in bds_expect.items():
        def runner(label=label, wanted=wanted):
            system = root_system(label[0], int(label[1:]))
            subs = borel_de_siebenthal(system)
            labels = {s.label for s in subs}
            for w in wanted:
                expect(w in labels, f"{label}: missing subsystem {w} in {sorted(labels)}")
            for s in subs:
                roots = s.roots
                expect(all(tuple(-a for a in r) in roots for r in roots),
                       f"{label}: subsystem {s.label} is not symmetric")
            return {"classes": len(subs)}, \
                f"{label}: {len(subs)} classes incl. {', '.join(wanted)}"
        _case(f"bds-{label}",
              f"Extended-diagram subsystem enumeration in {label}",
              "every subsystem arises by removing nodes from extended diagrams",
              "quick", [], 120.0)(runner)

    @_case("torus-A1",
           "Maximal torus orders of the rank-1 split group",
           "split tori have orders q-1 and q+1",
           "quick", ["W(A1)"], 30.0)
    def torus_a1():
        system = root_system("A", 1)
        W = weyl_group(system)
        classes = f_conjugacy_classes(W, identity_twist(system))
        orders = sorted(c.order_at(5) for c in classes)
        expect(orders == [4, 6], f"A1 torus orders at q=5: {orders}")
        expect(sum(c.size for c in classes) == 2, "class sizes must sum to |W|")
        return {"classes": len(classes)}, "orders q-1 and q+1 at q = 5"

    @_case("torus-A2",
           "Maximal torus orders of the rank-2 split group",
           "twisted-conjugacy classes of W classify the maximal tori",
           "quick", ["W(A2)"], 30.0)
    def torus_a2():
        system = root_system("A", 2)
        W = weyl_group(system)
        classes = f_conjugacy_classes(W, identity_twist(system))
        expect(len(classes) == 3, f"A2 split: {len(classes)} classes, expected 3")
        orders = sorted(c.order_at(4) for c in classes)
        expect(orders == [9, 15, 21], f"A2 torus orders at q=4: {orders}")
        return {"classes": 3}, "(q-1)^2, q^2-1, q^2+q+1"

    @_case("torus-2A2",
           "The twisted rank-2 torus of order (q+1)^2 exists",
           "InvolutionsAndTori: the twisted group has a torus of order (q+1)^n",
           "quick", ["W(A2)"], 30.0)
    def torus_2a2():
        system = root_system("A", 2)
        W = weyl_group(system)
        classes = f_conjugacy_classes(W, flip_twist(system))
        for q in (2, 3, 5, 7):
            orders = {c.order_at(q) for c in classes}
            expect((q + 1) ** 2 in orders,
                   f"2A2 at q={q}: no torus of order (q+1)^2 in {sorted(orders)}")
        expect(sum(c.size for c in classes) == 6, "class sizes must sum to |W|")
        return {"classes": len(classes)}, "orders include (q+1)^2 for q in 2,3,5,7"

    @_case("highest-root-C3",
           "Highest root of C3 in fundamental coordinates",
           "long positive roots of the C-series are r_n + 2r_{n-1} + ... = 2e_k",
           "quick", [], 30.0)
    def highest_c3():
        system = root_system("C", 3)
        root, coeff = highest_root(system)
        expect(root == (2, 0, 0) and coeff == (2, 2, 1),
               f"highest root {root} with coefficients {coeff}")
        return {}, "2e1 = 2r1 + 2r2 + r3"

    @_case("e6-scan",
           "No W(E6) centralizer holds a self-normalizing order-3 subgroup",
           "NormOfRegularElementIsNotCentr: centralizers in W(E6) carry no "
           "Carter subgroup of order 3",
           "quick", ["W(E6)"], 420.0)
    def e6_case():
        results = e6_centralizer_scan()
        expect(len(results) == 25, f"{len(results)} classes, expected 25")
        expect(sum(r.class_size for r in results) == 51840,
               "class sizes must sum to 51840")
        bad = [r for r in results if not r.passed]
        expect(not bad, f"{len(bad)} classes expose a self-normalizing "
               "order-3 subgroup")
        return {"order": 51840, "classes": 25}, \
            "all 25 centralizers pass the order-3 scan"


# ---------------------------------------------------------------- semilinear

def _register_semilinear_cases():
    @_case("pgammal-2-8-carter",
           "Full Carter search in the order-1512 semilinear group",
           "CarterSemilinear case 2: K = S : <zeta> with S Sylow 2 in the "
           "fixed subgroup; order derived as 2 * 3",
           "quick", ["PGammaL(2,8)"], 600.0)
    def pgammal8():
        G = _realized("PGammaL(2,8)").group
        expect(G.order() == 1512, f"order {G.order()} != 1512")
        classes = _carter_classes("PGammaL(2,8)")
        expect(classes.class_count == 1,
               f"{classes.class_count} Carter classes, expected 1")
        rep = classes.representatives[0]
        expect(rep.order() == 6, f"representative order {rep.order()}, expected 6")
        return {"order": 1512, "classes": 1}, "one class of order 6"

    @_case("syl2-fieldaut-psl2-8",
           "Sylow 2-subgroups against an odd-order field automorphism, q = 8",
           "Syl2InCentrOfFieldAut (requires odd characteristic)",
           "quick", ["PSL(2,8)"], 30.0)
    def fieldaut8():
        raise SkipCase("the claim requires odd characteristic; PSL(2,8) has "
                       "p = 2, where |fixed subgroup|_2 < |G|_2")

    @_case("syl2-fieldaut-psl2-27",
           "Sylow 2-subgroup of the Frobenius-fixed subgroup is Sylow in PSL(2,27)",
           "Syl2InCentrOfFieldAut: a Sylow 2-subgroup of G_psi is one of G",
           "quick", ["PSL(2,27)"], 120.0)
    def fieldaut27():
        rg = _realized("PSL(2,27)")
        G = rg.group
        frob = frobenius_perm(rg.action)
        fixed = element_centralizer(G, frob)
        expect(fixed.order() == 12, f"fixed subgroup order {fixed.order()} != 12")
        S = sylow_subgroup(fixed, 2)
        expect(S.order() == p_part(G.order(), 2) == 4,
               f"|S| = {S.order()} vs |G|_2 = {p_part(G.order(), 2)}")
        expect(S.is_subgroup_of(G), "S must embed in the big group")
        return {"order": G.order(), "fixed": fixed.order()}, \
            "Sylow 2 of the fixed PSL(2,3) is Sylow 2 of PSL(2,27)"

    @_case("conj-automorphisms-pgammal28",
           "All order-3 complements to PSL(2,8) are conjugate under it",
           "ConjAutomorphisms: <phi>^g = <phi'> with g in the socle",
           "quick", ["PGammaL(2,8)"], 300.0)
    def conj_autos():
        rg = _realized("PGammaL(2,8)")
        Gamma, G = rg.group, rg.inner
        outer3 = [g for g in Gamma.elements()
                  if g.order() == 3 and g not in G]
        subgroups = {tuple(sorted((g, g * g))) for g in outer3}
        n_orbits = sum(1 for _ in orbits(
            subgroups, G.generators,
            lambda fp, s: tuple(sorted(x.conjugate(s) for x in fp))))
        expect(n_orbits == 1, f"{n_orbits} socle-orbits of order-3 complements")
        return {"complements": len(subgroups), "orbits": n_orbits}, \
            f"{len(subgroups)} cyclic complements form a single orbit"

    @_case("carter-semilinear-2g2",
           "The rank-1 Ree family case",
           "CarterSemilinear case 4 (Ree groups of characteristic 3)",
           "quick", [], 1.0)
    def ree_case():
        raise SkipCase("construction out of scope: no Ree-family realization")

    @_case("pgammal-2-27-witness",
           "The order-81 subgroup S : <phi> is Carter in PSL(2,27) : <phi>",
           "CarterSemilinear case 3: K = S : <zeta> with S a Sylow 3-subgroup "
           "of the zeta-fixed part; order derived as 27 * 3",
           "full", ["Ext(PSL(2,27), frob)"], 1200.0)
    def witness27():
        rg = _realized("Ext(PSL(2,27), frob)")
        Gamma, act = rg.group, rg.action
        expect(Gamma.order() == 29484, f"order {Gamma.order()} != 29484")
        spec = ClassicalGroupSpec("SL", 2, 27)
        unipotent = [act.perm_of(m) for m in classical_group(spec)
                     if m.rows[0][0] == 1 and m.rows[1][0] == 0 and m.rows[1][1] == 1]
        frob = frobenius_perm(act)
        K = PermGroup(tuple(unipotent) + (frob,), Gamma.degree)
        expect(K.order() == 81, f"|K| = {K.order()}, expected 81")
        expect(is_carter_witness(Gamma, K), "K fails the Carter witness check")
        return {"order": Gamma.order(), "witness_order": K.order()}, \
            "K = (Sylow 3) : <frobenius> is nilpotent and self-normalizing"

    @_case("pgammal-2-27-search",
           "Full Carter search in the order-29484 semilinear group",
           "the main conjugacy statement: Carter subgroups form one class",
           "full", ["Ext(PSL(2,27), frob)"], 7200.0)
    def search27():
        Gamma = _realized("Ext(PSL(2,27), frob)").group
        classes = _carter_classes("Ext(PSL(2,27), frob)")
        expect(classes.class_count == 1,
               f"{classes.class_count} Carter classes, expected 1")
        rep = classes.representatives[0]
        expect(rep.order() == 81, f"representative order {rep.order()}")
        return {"order": Gamma.order(), "classes": 1}, \
            f"single class, representative order {rep.order()}"

    @_case("carter-semilinear-2a2-witness",
           "The twisted rank-2 case over GF(2^6)",
           "CarterSemilinear case 1 needs odd t > 1; the smallest instance "
           "is the unitary group over GF(2^6)",
           "full", [], 1.0)
    def su_2a2_case():
        raise SkipCase("smallest instance has ambient order ~5.5e6 on 4161 "
                       "points; beyond desk-scale search caps")

    for q in (7, 9, 11, 13, 17):
        def runner(q=q):
            G = _realized(f"PSL(2,{q})").group
            classes = _carter_classes(f"PSL(2,{q})")
            expect(classes.class_count <= 1,
                   f"PSL(2,{q}): {classes.class_count} Carter classes")
            criterion = _criterion(f"PSL(2,{q})")
            holder = carter_class_containing_sylow2(classes)
            expect(criterion == (holder is not None),
                   f"PSL(2,{q}): criterion/carter mismatch")
            return {"order": G.order(), "classes": classes.class_count,
                    "criterion": criterion}, \
                f"classes = {classes.class_count}, criterion = {criterion}"
        _case(f"carter-psl2q-scan-{q}",
              f"Carter classes and the Sylow-2 criterion in PSL(2,{q})",
              "Carter subgroups of the group are conjugate",
              "full", [f"PSL(2,{q})"], 1800.0)(runner)


_register_norm2syl()
_register_carter_catalog()
_register_suites()
_register_element_cases()
_register_root_cases()
_register_semilinear_cases()


def regenerate_derived() -> dict:
    """Recompute the oracle-sized derived values from scratch.

    Returns {case_id: {"classes": n, "rep_order": m}} for every Carter
    catalog entry whose group fits the subgroup-lattice oracle.
    """
    out = {}
    for case_id, (spec, *_rest) in CARTER_CATALOG.items():
        G = _realized(spec).group
        try:
            reps = brute_carter_classes(G)
        except CapExceeded:
            continue
        orders = sorted(r.order() for r in reps)
        out[case_id] = {"classes": len(reps),
                        "rep_order": orders[0] if orders else None}
    return out
