"""Correctness gate: does one certificate's report hold up?

A certificate fails when its exit status is not 0, when its report does
not say ``pass: true``, when ``checks.pairs_total`` is not n(n-1)/2, when
a construction-determined field is further than ``REL_TOL`` (relative)
from the reference in :mod:`reference`, or when a repeat of the same
request wrote different bytes.  The first three and the last are checked
here from what the caller observed; each returns the reasons it failed.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-12  # the oracle tolerance of the repository's acceptance suite


def _number(value):
    if value == "unbounded":
        return math.inf
    if value == "-unbounded":
        return -math.inf
    return value


def _close(got, want) -> bool:
    got = _number(got)
    if isinstance(want, int):
        return type(got) is int and got == want
    if type(got) not in (int, float):
        return False
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def _field(report: dict, dotted: str):
    value = report
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def check_report(text: str, n: int, reference: dict) -> list[str]:
    """Reasons the report ``text`` of an n-point request fails, if any."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as err:
        return [f"report is not JSON: {err.msg}"]
    reasons = []
    if report.get("pass") is not True:
        reasons.append("report does not say pass: true")
    pairs = _field(report, "checks.pairs_total")
    if pairs != n * (n - 1) // 2:
        reasons.append(f"checks.pairs_total is {pairs}, expected {n * (n - 1) // 2}")
    for name, want in reference.items():
        got = _field(report, name)
        if isinstance(want, list):
            ok = isinstance(got, list) and len(got) == len(want)
            ok = ok and all(_close(g, w) for g, w in zip(got, want))
        else:
            ok = _close(got, want)
        if not ok:
            reasons.append(f"{name} is {got!r}, reference {want!r}")
    return reasons


def certificate_failures(
    exit_code: int, repeat_identical: bool, report_reasons: list[str]
) -> list[str]:
    """All reasons one certificate fails; empty when it passes the gate."""
    reasons = list(report_reasons)
    if exit_code != 0:
        reasons.insert(0, f"exit status {exit_code}")
    if not repeat_identical:
        reasons.append("repeat of the request wrote different bytes")
    return reasons
