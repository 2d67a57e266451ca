"""Scan design-rule checks (testability DRC) as lint findings.

The paper's S5 gate.  The ``SCAN-001``..``SCAN-004`` checks live in
:mod:`repro.dft.scan`, next to the scan-equivalent map they check
against, because :func:`repro.dft.insert_scan` gates on them.  This
module registers each as a lint rule, so unscannable structures are
reported statically -- with waivers, fingerprints and SARIF -- instead
of blowing up mid-insertion or silently capping coverage.
"""

from __future__ import annotations

from typing import Callable

from ..dft.scan import (
    ScanViolation,
    latch_violations,
    reset_controllability_violations,
    scan_clock_violations,
    scan_equivalent_violations,
)
from ..netlist.netlist import Module
from .core import Finding, Rule, Severity, get_rule, register


def _scan_rule(rule_id: str, title: str,
               violations: Callable[[Module], list[ScanViolation]]) -> None:
    """Register one :mod:`repro.dft.scan` check as a lint rule."""

    @register(rule_id, Severity.ERROR, "scan", title)
    def check(rule: Rule, module: Module) -> list[Finding]:
        return [rule.finding(module.name, instance, message)
                for _, instance, message in violations(module)]


_scan_rule("SCAN-001", "async reset not controllable in capture",
           reset_controllability_violations)
_scan_rule("SCAN-002", "gated or derived clock on scan flop",
           scan_clock_violations)
_scan_rule("SCAN-003", "no scan equivalent for sequential cell",
           scan_equivalent_violations)
_scan_rule("SCAN-004", "latch in scan path", latch_violations)

#: The rule ids :func:`check_scan_drc` runs, in order.
SCAN_RULE_IDS = ("SCAN-001", "SCAN-002", "SCAN-003", "SCAN-004")


def check_scan_drc(module: Module) -> list[Finding]:
    """Run the scan-DRC family over one module, serially."""
    findings: list[Finding] = []
    for rule_id in SCAN_RULE_IDS:
        rule = get_rule(rule_id)
        findings.extend(rule.check(rule, module))
    return findings
