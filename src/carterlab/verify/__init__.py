"""Claim-to-check registry with structured reports."""

from .report import (CheckCase, CheckFailure, CheckReport, Registry, SkipCase,
                     expect, render_reports, run_case_obj)
from .registry import (CARTER_CATALOG, NORM2SYL_QS, REGISTRY,
                       regenerate_derived)

__all__ = [
    "CheckCase", "CheckFailure", "CheckReport", "Registry", "SkipCase",
    "expect", "render_reports", "run_case_obj",
    "CARTER_CATALOG", "NORM2SYL_QS", "REGISTRY", "regenerate_derived",
]
