import pytest

from carterlab.errors import InputError
from carterlab.linear.groupspec import realize, realize_group
from carterlab.permgrp.io import group_to_json


@pytest.mark.parametrize("spec,order", [
    ("Sym(5)", 120), ("Alt(5)", 60), ("SL(2,3)", 24), ("PSL(2,3)", 12),
    ("PGL(2,3)", 24), ("Sp(4,3)", 51840), ("PSp(4,3)", 25920),
    ("SU(3,2)", 216), ("PSU(3,2)", 72), ("PGU(3,2)", 216),
    ("PGammaL(2,8)", 1512), ("W(C2)", 8), ("W(E6)", 51840),
    ("Ext(PSL(2,27), frob)", 29484), ("Ext(PSL(3,2), graph)", 336),
])
def test_spec_orders(spec, order):
    assert realize_group(spec).order() == order


def test_whitespace_tolerated():
    assert realize_group(" Sym( 5 ) ".replace(" ", "")) .order() == 120
    assert realize_group("PSL( 2 , 7 )").order() == 168


def test_ext_frob_power():
    # frob^3 is trivial on GF(27), so the extension collapses to PSL(2,27)
    assert realize_group("Ext(PSL(2,27), frob^3)").order() == 9828
    assert realize_group("Ext(PSL(2,27), frob^2)").order() == 29484


def test_pgammal_of_prime_field_collapses():
    assert realize_group("PGammaL(2,7)").order() == 336  # = PGL(2,7)


def test_pgammal_is_pgl_extended_by_frobenius():
    rg = realize("PGammaL(2,8)")
    ext = realize("Ext(PGL(2,8), frob)")
    assert rg.label == "PGammaL(2,8)"
    assert rg.group.generators == ext.group.generators
    assert rg.inner.generators == ext.inner.generators


def test_file_source(tmp_path):
    from carterlab.permgrp.group import PermGroup
    path = tmp_path / "group.json"
    path.write_text(group_to_json(PermGroup.alternating(4)))
    rg = realize(f"File({path})")
    assert rg.group.order() == 12


@pytest.mark.parametrize("bad", [
    "Bogus(3)", "Sym(x)", "Sym(3", "Ext(Sym(3), frob)", "Ext(PSL(2,3), swirl)",
    "W(H3)", "SL(2)", "PSL(2,6)", "Sym(3,4)",
])
def test_malformed_specs_rejected(bad):
    with pytest.raises(InputError):
        realize(bad)


def test_labels_round_trip():
    rg = realize("PSL(2,7)")
    assert rg.label == "PSL(2,7)"
    assert realize("Ext(PSL(3,2), graph)").label == "Ext(PSL(3,2), graph)"
