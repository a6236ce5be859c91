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


# ---------------------------------------------------------------- shared work

def _clear_memos():
    from carterlab.verify import registry
    for memo in (registry._realized, registry._carter_classes,
                 registry._criterion):
        memo.cache_clear()


def _logging(fn, log):
    def wrapper(G):
        log.append(G)
        return fn(G)
    return wrapper


def test_quick_tier_searches_and_checks_each_group_once(monkeypatch):
    """Gate: the 26 Carter searches of the quick tier cover 12 groups and
    its 26 criterion checks 23; each is computed once.  The counts are
    taken through the registry's module names, which is also how the
    benchmark's tracer counts them."""
    from carterlab.verify import registry
    _clear_memos()
    searched, checked = [], []
    monkeypatch.setattr(registry, "carter_subgroups",
                        _logging(registry.carter_subgroups, searched))
    monkeypatch.setattr(registry, "check_syl2_criterion",
                        _logging(registry.check_syl2_criterion, checked))
    reports = REGISTRY.run_all("quick")
    assert all(r.status in ("pass", "skip") for r in reports)
    assert len(searched) == len({id(G) for G in searched}) == 12
    assert len(checked) == len({id(G) for G in checked}) == 23


def test_a_failed_search_is_not_remembered(monkeypatch):
    from carterlab.verify import registry
    _clear_memos()
    search = registry.carter_subgroups
    message = "|G| = 24 exceeds the full-search cap 23"

    def capped(G):
        if G is registry._realized("Sym(4)").group:
            raise CapExceeded(message)
        return search(G)

    monkeypatch.setattr(registry, "carter_subgroups", capped)
    for case_id in ("carter-sym4", "carter-quotient-suite"):
        r = REGISTRY.run_case(case_id)
        assert (r.status, r.reason) == ("skip", message), case_id
    monkeypatch.undo()
    for case_id in ("carter-sym4", "carter-quotient-suite"):
        assert REGISTRY.run_case(case_id).status == "pass", case_id


def test_shared_work_never_shows_in_a_report(quick_reports):
    """Cases run alone on cold memos report what they report inside
    the whole tier, where earlier cases filled the memos."""
    _clear_memos()
    by_id = {r.id: r for r in quick_reports}
    for case_id in ("criterion-equivalence-suite", "carter-quotient-suite",
                    "inh-2ext-suite", "pgammal-2-8-carter"):
        assert _without_ms(REGISTRY.run_case(case_id)) == \
            _without_ms(by_id[case_id]), case_id
