"""CLI reports against the golden file that ``tests/golden.py`` writes."""

import json

import pytest

import golden
GOLDEN = json.loads(golden.GOLDEN_PATH.read_text())


def test_quick_tier_matches_golden(quick_reports):
    # a JSON round trip copies the metrics, which without_ms edits
    quick = json.loads(json.dumps([r.to_dict() for r in quick_reports]))
    assert golden.without_ms(quick) == GOLDEN["check quick"]


@pytest.mark.parametrize("name", sorted(golden.SECTIONS))
def test_report_matches_golden(name):
    assert golden.SECTIONS[name]() == GOLDEN[name]
