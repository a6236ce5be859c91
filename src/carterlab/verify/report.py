"""Check cases and structured reports.

Each case binds a named claim (its anchor) to an executable check over
concrete groups.  Reports carry pass/fail/skip/error plus metrics; a
case fails only if it ran and an expectation was missed, and skips carry
the reason.  Cap overruns surface as skips and any other exception as an
error, so sibling cases keep running.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import CapExceeded, InputError


class SkipCase(Exception):
    """Raised inside a runner, with the reason, to report a deliberate skip."""


_SKIP_EXCEPTIONS = (SkipCase, CapExceeded)


@dataclass(frozen=True)
class CheckCase:
    id: str
    description: str
    anchor: str
    tier: str                      # "quick" | "full"
    group_specs: tuple
    budget_s: float
    runner: object                 # callable () -> (metrics: dict, details: str)

    def __post_init__(self):
        if self.tier not in ("quick", "full"):
            raise ValueError(f"bad tier {self.tier!r}")


@dataclass
class CheckReport:
    id: str
    status: str                    # "pass" | "fail" | "skip" | "error"
    anchor: str
    metrics: dict = field(default_factory=dict)
    details: str = ""
    reason: str = ""

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "status": self.status,
            "anchor": self.anchor,
            "metrics": self.metrics,
            "details": self.details,
        }
        if self.reason:
            out["reason"] = self.reason
        return out


class CheckFailure(AssertionError):
    """An expectation was missed; the message is the evidence."""


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailure(message)


def run_case_obj(case: CheckCase) -> CheckReport:
    start = time.monotonic()
    try:
        metrics, details = case.runner()
        status, reason = "pass", ""
    except CheckFailure as exc:
        metrics, details = {}, str(exc)
        status, reason = "fail", ""
    except _SKIP_EXCEPTIONS as exc:
        metrics, details = {}, ""
        status, reason = "skip", str(exc)
    except Exception as exc:    # a crashing case must not stop the others
        metrics, details = {}, f"{type(exc).__name__}: {exc}"
        status, reason = "error", ""
    metrics = dict(metrics)
    metrics["ms"] = round(1000 * (time.monotonic() - start), 1)
    return CheckReport(case.id, status, case.anchor, metrics, details, reason)


class Registry:
    def __init__(self):
        self._cases: dict[str, CheckCase] = {}

    def add(self, case: CheckCase):
        if case.id in self._cases:
            raise ValueError(f"duplicate case id {case.id}")
        self._cases[case.id] = case

    def case(self, case_id: str) -> CheckCase:
        if case_id not in self._cases:
            raise InputError(f"unknown case id {case_id!r}")
        return self._cases[case_id]

    def list_cases(self, tier: str | None = None) -> list[CheckCase]:
        if tier is not None and tier not in ("quick", "full"):
            raise InputError(f"unknown tier {tier!r}")
        return [c for c in self._cases.values()
                if tier is None or c.tier == tier]

    def run_case(self, case_id: str) -> CheckReport:
        return run_case_obj(self.case(case_id))

    def run_all(self, tier: str | None = None) -> list[CheckReport]:
        return [run_case_obj(c) for c in self.list_cases(tier)]


def render_reports(reports) -> str:
    """The text report, one line per case."""
    lines = []
    for r in reports:
        ms = r.metrics.get("ms", 0)
        if r.status == "pass":
            lines.append(f"PASS  {r.id}  ({ms} ms)")
        elif r.status == "skip":
            lines.append(f"SKIP  {r.id}  [{r.reason}]")
        else:
            mark = "FAIL!" if r.status == "fail" else "ERROR"
            lines.append(f"{mark} {r.id}  ({ms} ms)  {r.details}")
    return "\n".join(lines)

