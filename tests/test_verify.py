import json

import pytest

from carterlab.errors import CapExceeded, InputError
from carterlab.verify import (CARTER_CATALOG, REGISTRY, CheckReport,
                              regenerate_derived, render_reports)


def test_case_ids_unique_and_anchored():
    cases = REGISTRY.list_cases()
    ids = [c.id for c in cases]
    assert len(ids) == len(set(ids))
    assert all(c.anchor for c in cases)
    assert all(c.tier in ("quick", "full") for c in cases)


def test_tier_filtering():
    quick = {c.id for c in REGISTRY.list_cases("quick")}
    full = {c.id for c in REGISTRY.list_cases("full")}
    assert "norm2syl-psl2-7" in quick
    assert "pgammal-2-27-witness" in full
    assert not quick & full
    with pytest.raises(InputError, match="unknown tier 'weekly'"):
        REGISTRY.list_cases("weekly")


def test_unknown_case_id():
    with pytest.raises(InputError,
                       match="unknown case id 'definitely-not-a-case'"):
        REGISTRY.run_case("definitely-not-a-case")


def test_empty_registry_runs_to_empty_list():
    from carterlab.verify.report import Registry
    assert Registry().run_all() == []


def test_duplicate_case_ids_rejected():
    from carterlab.verify.report import CheckCase, Registry
    reg = Registry()
    case = CheckCase("x", "d", "a", "quick", (), 1.0, lambda: ({}, ""))
    reg.add(case)
    with pytest.raises(ValueError):
        reg.add(case)


def test_crashing_case_is_an_error_and_the_rest_still_run():
    from carterlab.verify.report import CheckCase, Registry

    def crash():
        raise ZeroDivisionError("division by zero")

    reg = Registry()
    reg.add(CheckCase("crash", "d", "a", "quick", (), 1.0, crash))
    reg.add(CheckCase("fine", "d", "a", "quick", (), 1.0, lambda: ({}, "ok")))
    crashed, fine = reg.run_all()
    assert (crashed.status, crashed.details) == \
        ("error", "ZeroDivisionError: division by zero")
    assert fine.status == "pass"
    assert render_reports([crashed]).startswith("ERROR crash  (")


def test_single_case_runs_and_replays():
    r = REGISTRY.run_case("norm2syl-psl2-7")
    assert r.status == "pass"
    assert r.metrics["order"] == 168
    assert r.metrics["ms"] >= 0


def test_explicit_skips_carry_reasons():
    for cid in ("carter-semilinear-2g2", "syl2-fieldaut-psl2-8",
                "carter-semilinear-2a2-witness"):
        r = REGISTRY.run_case(cid)
        assert r.status == "skip" and r.reason, cid


def test_every_cap_overrun_is_a_skip(monkeypatch):
    from carterlab.verify import registry

    def over_cap(G, N):
        raise CapExceeded("index 7 exceeds cap 6")

    monkeypatch.setattr(registry, "quotient_group", over_cap)
    r = REGISTRY.run_case("carter-quotient-suite")
    assert (r.status, r.reason) == ("skip", "index 7 exceeds cap 6")


def test_report_json_round_trip():
    reports = [REGISTRY.run_case("psl23-power"),
               REGISTRY.run_case("carter-semilinear-2g2")]
    payload = [r.to_dict() for r in reports]
    assert json.loads(json.dumps(payload)) == payload


def test_text_rendering_marks_failures_distinctly():
    ok = CheckReport("a", "pass", "anchor", {"ms": 1}, "fine")
    bad = CheckReport("b", "fail", "anchor", {"ms": 2}, "broken")
    text = render_reports([ok, bad])
    lines = text.splitlines()
    assert lines[0].startswith("PASS") and lines[1].startswith("FAIL!")


def _without_ms(report):
    out = report.to_dict()
    out["metrics"] = {k: v for k, v in out["metrics"].items() if k != "ms"}
    return out


def test_run_all_matches_run_case(quick_reports):
    assert [r.id for r in quick_reports] == [c.id for c in REGISTRY.list_cases("quick")]
    for r in quick_reports:
        assert _without_ms(REGISTRY.run_case(r.id)) == _without_ms(r), r.id


@pytest.mark.slow
def test_catalog_expectations_match_oracle_regeneration():
    regenerated = regenerate_derived()
    assert regenerated  # at least the oracle-sized groups
    for case_id, values in regenerated.items():
        _, count, order, _ = CARTER_CATALOG[case_id]
        assert values["classes"] == count, case_id
        if count:
            assert values["rep_order"] == order, case_id


def test_catalog_group_specs_present():
    for c in REGISTRY.list_cases():
        assert isinstance(c.group_specs, tuple)


def test_quick_cases_stay_within_five_times_budget(quick_reports):
    by_id = {c.id: c for c in REGISTRY.list_cases("quick")}
    for r in quick_reports:
        if r.status == "skip":
            continue
        assert r.metrics["ms"] <= 5000 * by_id[r.id].budget_s, \
            (r.id, r.metrics["ms"])
