import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import carterlab
from carterlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_run_single_case(capsys):
    code, out, _ = run_cli(capsys, "check", "run", "norm2syl-psl2-7")
    assert code == 0 and "PASS" in out


def test_check_run_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "check", "run", "psl23-power",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["id"] == "psl23-power"
    assert payload[0]["status"] == "pass"
    assert set(payload[0]) >= {"id", "status", "anchor", "metrics", "details"}


def test_check_list(capsys):
    code, out, _ = run_cli(capsys, "check", "list", "--tier", "quick")
    assert code == 0 and "norm2syl-psl2-7" in out
    code, out, _ = run_cli(capsys, "check", "list", "--tier", "full")
    assert "pgammal-2-27-witness" in out


def test_crashing_case_exits_4(capsys, monkeypatch):
    from carterlab.verify import registry

    def crash():
        raise RuntimeError("scan crashed")

    monkeypatch.setattr(registry, "e6_centralizer_scan", crash)
    code, out, _ = run_cli(capsys, "check", "run", "e6-scan", "--format", "json")
    assert code == 4
    (report,) = json.loads(out)
    assert (report["status"], report["details"]) == \
        ("error", "RuntimeError: scan crashed")


def test_unknown_case_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "check", "run", "nosuch")
    assert (code, out, err) == (2, "", "error: unknown case id 'nosuch'\n")


def test_unknown_tier_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "check", "run", "all", "--tier", "weekly")
    assert code == 2


def test_carter_command(capsys):
    code, out, _ = run_cli(capsys, "carter", "Alt(5)")
    assert code == 0 and "0 Carter class(es)" in out
    code, out, _ = run_cli(capsys, "carter", "Sym(4)", "--format", "json")
    payload = json.loads(out)
    assert payload["classes"] == 1 and payload["representative_orders"] == [8]


# The representative generators are part of the report, so their exact
# text is pinned here.  The flagship search takes about 1.5 s.
CARTER_TEXT = {
    "Ext(PSL(2,27), frob)": """\
Ext(PSL(2,27), frob): order 29484, 1 Carter class(es)
  order 81: <(1 2 3)(4 5 6)(7 8 9)(10 11 12)(13 14 15)(16 17 18)(19 20 21)\
(22 23 24)(25 26 27), (4 5 6)(7 9 8)(10 17 14)(11 18 15)(12 16 13)(19 24 27)\
(20 22 25)(21 23 26), (1 4 7)(2 5 8)(3 6 9)(10 13 16)(11 14 17)(12 15 18)\
(19 22 25)(20 23 26)(21 24 27), (1 10 19)(2 11 20)(3 12 21)(4 13 22)\
(5 14 23)(6 15 24)(7 16 25)(8 17 26)(9 18 27)>
""",
    "Sym(4)": """\
Sym(4): order 24, 1 Carter class(es)
  order 8: <(0 1)(2 3), (2 3), (0 2)(1 3)>
""",
    "PSU(3,2)": """\
PSU(3,2): order 72, 1 Carter class(es)
  order 8: <(5 6)(7 8)(9 10)(11 12)(13 14)(15 16)(17 18)(19 20), \
(1 2)(3 4)(5 11 6 12)(7 9 8 10)(13 17 14 18)(15 19 16 20), \
(1 3)(2 4)(5 19 6 20)(7 17 8 18)(9 13 10 14)(11 15 12 16)>
""",
    "PGammaL(2,8)": """\
PGammaL(2,8): order 1512, 1 Carter class(es)
  order 6: <(1 2)(3 4)(5 6)(7 8), (3 5 7)(4 6 8)>
""",
}


@pytest.mark.parametrize("spec", sorted(CARTER_TEXT))
def test_carter_text_report_is_pinned(capsys, spec):
    assert run_cli(capsys, "carter", spec) == (0, CARTER_TEXT[spec], "")


def run_cli_process(*argv, hash_seed):
    """The CLI in a fresh interpreter, whose str and bytes hashes are
    salted by ``hash_seed``."""
    src = pathlib.Path(carterlab.__file__).parents[1]
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "carterlab.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_carter_text_does_not_depend_on_the_hash_seed():
    """Permutations hash like bytes, salted per process: no report may
    depend on the iteration order of a set of them."""
    runs = [run_cli_process("carter", "Ext(PSL(2,8), frob)", hash_seed=seed)
            for seed in (0, 1)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1].startswith(
        "Ext(PSL(2,8), frob): order 1512, 1 Carter class(es)")


def test_carter_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "carter", "Sp(4,3)", "--cap", "100")
    assert code == 3 and "cap" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_carter_cap_below_one_exits_2(capsys, cap):
    code, out, err = run_cli(capsys, "carter", "Sym(4)", "--cap", cap)
    assert (code, out, err) == (2, "", "error: --cap must be at least 1\n")


def test_carter_beyond_class_cap_exits_3(capsys, monkeypatch):
    from carterlab.permgrp import carter, search
    monkeypatch.setattr(search, "CLASS_ENUMERATION_CAP", 100)     # |Sym(5)| = 120
    code, _, err = run_cli(capsys, "carter", "Sym(5)")
    assert code == 3 and "cap" in err

    # the cap is checked once, before any node is expanded: no normalizer
    # is computed and no Sylow subgroup is built for a first layer
    def refuse(*args):
        raise AssertionError("the search began")
    monkeypatch.setattr(carter, "subgroup_normalizer", refuse)
    monkeypatch.setattr(carter, "SYLOW_SEED_ORDER", 1)
    monkeypatch.setattr(carter, "sylow_subgroup", refuse)
    code, _, err = run_cli(capsys, "carter", "Sym(5)")
    assert code == 3 and "cap" in err


def test_malformed_spec_exit_code(capsys):
    code, _, err = run_cli(capsys, "carter", "Borel(3)")
    assert code == 2 and "Borel" in err


def test_roots_omega(capsys):
    code, out, _ = run_cli(capsys, "roots", "omega", "C4")
    assert code == 0
    assert "4 involution-fixed" in out
    code, out, _ = run_cli(capsys, "roots", "omega", "E6", "--format", "json")
    assert json.loads(out)["omega_fixed_roots"] == []


def test_roots_subsystems(capsys):
    code, out, _ = run_cli(capsys, "roots", "subsystems", "G2")
    assert code == 0 and "A2" in out
    code, out, _ = run_cli(capsys, "roots", "subsystems", "C2", "--format", "json")
    payload = json.loads(out)
    assert any(s["label"] == "A1+A1" for s in payload["subsystems"])


def test_torus_command(capsys):
    code, out, _ = run_cli(capsys, "torus", "A1", "--q", "7")
    assert code == 0 and "|T| =" in out
    code, out, _ = run_cli(capsys, "torus", "A2", "--twist", "flip", "--q", "3",
                           "--format", "json")
    payload = json.loads(out)
    assert {c["order"] for c in payload["classes"]} >= {16, 8, 7}


# SHA-256 of the full `torus E6 --q 2` JSON.  The golden torus cases stop
# at F4, so these pin E6's split and twisted classes.
TORUS_E6_SHA256 = {
    "id": "5911381be1a0932379ed27d9ecba799116a50a5b302f2d389ebc9b45bbf3c4ba",
    "flip": "c13d7ca999898e4e8d255e10ef3feead8b1b478ff7766048a5fd86e53c34aa0f",
}


@pytest.mark.parametrize("twist", sorted(TORUS_E6_SHA256))
def test_torus_e6_json_is_pinned(capsys, twist):
    code, out, _ = run_cli(capsys, "torus", "E6", "--twist", twist, "--q", "2",
                           "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TORUS_E6_SHA256[twist]


def test_torus_2e6_has_q_plus_one_to_the_sixth_torus(capsys):
    """The 2E6 counterpart of the torus-2A2 check: the diagram flip of E6."""
    code, out, _ = run_cli(capsys, "torus", "E6", "--twist", "flip", "--q", "2",
                           "--format", "json")
    classes = json.loads(out)["classes"]
    assert code == 0 and len(classes) == 25
    assert sum(c["size"] for c in classes) == 51840
    (central,) = [c for c in classes if c["size"] == 1]
    assert central["order_poly"] == [1, 6, 15, 20, 15, 6, 1]
    assert central["order"] == 3 ** 6


def test_failing_check_exits_1(capsys, monkeypatch):
    from carterlab import cli
    from carterlab.verify import CheckCase, Registry, SkipCase, expect

    def fail():
        expect(False, "2 classes, expected 1")

    def skip():
        raise SkipCase("needs the full tier")

    registry = Registry()
    for case_id, runner in [("fails", fail), ("passes", lambda: ({}, "fine")),
                            ("skips", skip)]:
        registry.add(CheckCase(case_id, case_id, "anchor", "quick", (), 1.0, runner))
    monkeypatch.setattr(cli, "REGISTRY", registry)
    code, out, _ = run_cli(capsys, "check", "run", "all")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 3
    assert lines[0].startswith("FAIL! fails  (")
    assert lines[0].endswith("  2 classes, expected 1")
    assert lines[1].startswith("PASS  passes  (")
    assert lines[2] == "SKIP  skips  [needs the full tier]"
    code, out, _ = run_cli(capsys, "check", "run", "all", "--format", "json")
    assert code == 1
    assert [r["status"] for r in json.loads(out)] == ["fail", "pass", "skip"]


def test_deeply_nested_group_file_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text('{"degree": 3, "generators": ' + "[" * depth + "]" * depth + "}")
    code, out, err = run_cli(capsys, "group", "info", f"File({path})")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_deeply_nested_spec_exits_2(capsys):
    depth = sys.getrecursionlimit()
    spec = "Ext(" * depth + "PSL(2,3)" + ", frob)" * depth
    code, out, err = run_cli(capsys, "group", "info", spec)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# only InputError means bad input: the builtin types it derives from are
# crashes when anything else raises them
@pytest.mark.parametrize("exc_type", [RuntimeError, ValueError, KeyError, OSError])
def test_crashing_command_exits_4_without_traceback(capsys, monkeypatch, exc_type):
    from carterlab import cli
    exc = exc_type("realize crashed")

    def crash(spec):
        raise exc

    monkeypatch.setattr(cli, "realize", crash)
    code, out, err = run_cli(capsys, "group", "info", "PSL(2,7)")
    assert (code, out, err) == (4, "", f"error: {exc_type.__name__}: {exc}\n")


def test_group_info(capsys):
    code, out, _ = run_cli(capsys, "group", "info", "PSL(2,7)")
    assert code == 0 and "order 168" in out


def test_group_info_above_degree_256(capsys):
    """Permutations of degree above 256 do not fit in bytes; they take
    the tuple kernel."""
    code, out, _ = run_cli(capsys, "group", "info", "PSL(2,257)", "--format", "json")
    assert code == 0
    info = json.loads(out)
    assert (info["degree"], info["order"], info["base"], info["orbit_lengths"]) == \
        (258, 8487168, [1, 0, 2], [258])


@pytest.mark.parametrize("text", ["A2", "c3", "g 2", "E6x", "6E", "Q3", "E", "", "2"])
def test_root_types_parse_alike_in_roots_and_weyl_specs(capsys, text):
    code, _, _ = run_cli(capsys, "roots", "omega", text)
    assert code == (0 if text in ("A2", "c3", "g 2") else 2)
    assert run_cli(capsys, "group", "info", f"W({text})")[0] == code


def test_weyl_spec_label_reads_the_parsed_type(capsys):
    code, out, _ = run_cli(capsys, "group", "info", "W(e6)", "--format", "json")
    assert code == 0 and json.loads(out)["label"] == "W(E6)"


def test_check_run_has_no_parallelism_option(capsys):
    code, _, _ = run_cli(capsys, "check", "run", "psl23-power", "-j", "2")
    assert code == 2
    code, out, _ = run_cli(capsys, "check", "run", "psl23-power")
    assert code == 0 and "PASS" in out


def test_seed_flag_is_a_usage_error(capsys):
    code, _, _ = run_cli(capsys, "--seed", "1", "carter", "Sym(4)")
    assert code == 2
    code, out, _ = run_cli(capsys, "carter", "Sym(4)", "--format", "json")
    assert code == 0 and json.loads(out)["classes"] == 1


def test_identical_invocations_identical_output(capsys):
    _, out1, _ = run_cli(capsys, "torus", "C2", "--q", "5", "--format", "json")
    _, out2, _ = run_cli(capsys, "torus", "C2", "--q", "5", "--format", "json")
    assert out1 == out2
    _, info1, _ = run_cli(capsys, "group", "info", "Sp(4,3)", "--format", "json")
    _, info2, _ = run_cli(capsys, "group", "info", "Sp(4,3)", "--format", "json")
    assert info1 == info2


def test_torus_beyond_class_cap_exits_3(capsys, monkeypatch):
    from carterlab.rootsys import weyl
    monkeypatch.setattr(weyl, "F_CLASS_CAP", 5)     # |W(A2)| = 6
    code, _, err = run_cli(capsys, "torus", "A2", "--q", "3")
    assert code == 3 and "cap" in err


def test_every_cap_exits_3(capsys, monkeypatch):
    from carterlab.permgrp import io
    code, out, err = run_cli(capsys, "carter", "Sym(5)", "--cap", "100")
    assert (code, out) == (3, "") and "full-search cap 100" in err
    monkeypatch.setattr(io, "DEGREE_CAP", 5)     # PSL(2,7) acts on 8 points
    code, _, err = run_cli(capsys, "group", "info", "PSL(2,7)")
    assert code == 3 and "cap" in err


def test_missing_group_file_exits_2(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(capsys, "group", "info", f"File({missing})")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_unreadable_group_files_exit_2(capsys, tmp_path):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"degree": 3, "generators": [], "name": "\xe9"}')
    for path in (latin, tmp_path):      # not UTF-8, and a directory
        code, out, err = run_cli(capsys, "group", "info", f"File({path})")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("payload", [
    '{"degree": 3, "generators": [[["a", 1]]]}',
    '[1, 2]',
    '{"degree": 3, "generators": 5}',
    '{"degree": 3, "generators": [[[0, 1.5]]]}',
    '{"degree": 3, "generators": [[[0, 5]]]}',
    '{"degree": 3, "generators": [[[0, 1], [1, 2]]]}',
    '{"degree": 3, "generators": [[[0, 1, 0]]]}',
    '{"degree": 3,',
])
def test_malformed_group_file_exits_2(capsys, tmp_path, payload):
    path = tmp_path / "group.json"
    path.write_text(payload)
    code, out, err = run_cli(capsys, "group", "info", f"File({path})")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_group_file_above_degree_cap_exits_3(capsys, tmp_path, monkeypatch):
    from carterlab.permgrp import io
    path = tmp_path / "group.json"
    path.write_text('{"degree": 6, "generators": [[[0, 5]]]}')
    code, _, _ = run_cli(capsys, "group", "info", f"File({path})")
    assert code == 0
    monkeypatch.setattr(io, "DEGREE_CAP", 5)
    code, out, err = run_cli(capsys, "group", "info", f"File({path})")
    assert code == 3 and out == ""
    assert err == "cap exceeded: degree 6 exceeds 5\n"


def _no_group_is_built(monkeypatch):
    from carterlab.permgrp.group import PermGroup

    def refuse(self, *args, **kwargs):
        raise AssertionError("a group was built")
    monkeypatch.setattr(PermGroup, "__init__", refuse)


@pytest.mark.parametrize("template", ["Sym({})", "Alt({})", "PSL(2,{})",
                                      "Ext(PSL(2,8), frob^{})"])
def test_spec_integer_past_the_digit_limit_exits_2(capsys, monkeypatch, template):
    """int() refuses strings of more than 4,300 digits with a ValueError."""
    _no_group_is_built(monkeypatch)
    code, out, err = run_cli(capsys, "group", "info", template.format("9" * 5000))
    assert code == 2 and out == ""
    assert err.startswith("error: integer in ") and err.endswith(" has 5000 digits\n")


def test_unknown_ext_automorphism_exits_2_before_realizing(capsys, monkeypatch):
    """The automorphism is parsed first: a bad one costs no inner group."""
    from carterlab.linear import groupspec

    def refuse(*args, **kwargs):
        raise AssertionError("the inner group was realized")
    monkeypatch.setattr(groupspec, "realize", refuse)
    code, out, err = run_cli(capsys, "group", "info", "Ext(PSL(2,1024), bogus)")
    assert (code, out, err) == (2, "", "error: unknown Ext automorphism 'bogus'\n")


@pytest.mark.parametrize("spec", ["Ext(PSL(2,1024), graph)",
                                  "Ext(PGammaL(2,8), graph)"])
def test_graph_automorphism_in_dimension_two_exits_2_before_any_chain(
        capsys, monkeypatch, spec):
    """The dimension is checked once the action is built, before its group."""
    _no_group_is_built(monkeypatch)
    code, out, err = run_cli(capsys, "group", "info", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert err.endswith(": graph automorphism needs dimension >= 3\n")


@pytest.mark.parametrize("family", ["SL", "GL"])
def test_graph_automorphism_of_a_linear_group_exits_2_before_any_chain(
        capsys, monkeypatch, family):
    """A linear group acts on vectors, which has no hyperplane block."""
    _no_group_is_built(monkeypatch)
    code, out, err = run_cli(capsys, "group", "info", f"Ext({family}(3,2), graph)")
    assert (code, out) == (2, "")
    assert err == (f"error: {family}(3,2): "
                   "hyperplane block requires the projective domain\n")


def test_large_q_is_rejected_before_it_is_factored(capsys, monkeypatch):
    from carterlab.linear import classical

    def refuse(n):
        raise AssertionError(f"factored {n}")
    monkeypatch.setattr(classical, "prime_factors", refuse)
    _no_group_is_built(monkeypatch)
    code, out, err = run_cli(capsys, "group", "info", "PSL(2,1000000000000000003)")
    assert code == 2 and out == ""
    assert err == ("error: PSL(2,1000000000000000003): "
                   "field size must be between p and 2^16\n")


@pytest.mark.parametrize("name", ["Sym", "Alt"])
def test_sym_and_alt_above_degree_cap_exit_3(capsys, monkeypatch, name):
    from carterlab.permgrp import io
    monkeypatch.setattr(io, "DEGREE_CAP", 5)
    code, out, _ = run_cli(capsys, "group", "info", f"{name}(5)")
    assert code == 0 and out.startswith(f"{name}(5): degree 5")
    _no_group_is_built(monkeypatch)
    code, out, err = run_cli(capsys, "group", "info", f"{name}(6)")
    assert code == 3 and out == ""
    assert err == "cap exceeded: degree 6 exceeds 5\n"


@pytest.mark.parametrize("q", ["1", "0", "-3"])
def test_torus_q_below_two_exits_2(capsys, q):
    code, out, err = run_cli(capsys, "torus", "G2", "--q", q)
    assert code == 2 and out == ""
    assert err == "error: q must be at least 2\n"


@pytest.mark.parametrize("argv,message", [
    (("torus", "B3", "--twist", "flip", "--q", "2"),
     "no order-2 diagram symmetry for B3"),
    (("torus", "A2", "--twist", "triality", "--q", "2"), "triality lives on D4"),
    (("group", "info", "Ext(PSL(2,7), graph)"),
     "graph automorphism needs dimension >= 3"),
])
def test_unsupported_diagram_symmetries_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


def test_torus_checks_q_before_walking_classes(capsys, monkeypatch):
    from carterlab.rootsys import weyl
    monkeypatch.setattr(weyl, "F_CLASS_CAP", 5)     # |W(A2)| = 6
    code, out, err = run_cli(capsys, "torus", "A2", "--q", "1")
    assert code == 2 and out == ""
    assert err == "error: q must be at least 2\n"


@pytest.mark.parametrize("argv", [("group", "info", "GL(0,2)"),
                                  ("group", "info", "SL(0,3)"),
                                  ("group", "info", "Sp(0,3)"),
                                  ("carter", "SL(0,3)")])
def test_classical_dimension_zero_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("spec,order", [("PSL(1,2)", 1), ("GL(1,4)", 3)])
def test_classical_dimension_one_stays_valid(capsys, spec, order):
    code, out, _ = run_cli(capsys, "group", "info", spec, "--format", "json")
    assert code == 0 and json.loads(out)["order"] == order
