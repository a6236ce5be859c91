"""CLI reports against the golden file that ``tests/golden.py`` writes."""

import json

import pytest

import golden
from carterlab.verify import render_reports

GOLDEN = json.loads(golden.GOLDEN_PATH.read_text())


def test_quick_tier_matches_golden(quick_reports):
    quick = json.loads(render_reports(quick_reports, "json"))
    assert golden.without_ms(quick) == GOLDEN["check quick"]


@pytest.mark.parametrize("name", sorted(golden.SECTIONS))
def test_report_matches_golden(name):
    assert golden.SECTIONS[name]() == GOLDEN[name]
