"""Formal property results as lint findings (the ``PROP`` family).

Bounded model checking (:mod:`repro.formal.bmc`) produces structured
reports; sign-off wants them in the same currency as every other
static check -- findings with stable fingerprints that waivers,
SARIF export and fail-on thresholds already understand.  These rules
translate:

* ``PROP-001`` -- an assert property was **falsified**: BMC found a
  concrete stimulus (replayable on both simulator dialects) driving
  the property to zero;
* ``PROP-002`` -- a property passed **vacuously**: its assumes are
  jointly unsatisfiable, so the proof says nothing about the design;
* ``PROP-003`` -- a cover property is **unreachable** within the
  checked bound: the scenario it describes cannot be exercised;
* ``PROP-004`` -- two bus decode windows **overlap**: the CNF
  address-comparator check found a doubly-decoded address (the
  formal twin of the structural ``MAP`` rules).

The rules carry scope ``"property"``: they are registered (so SARIF
metadata, waivers and ``get_rule`` resolve them) but never selected
by the structural engine -- findings enter a report through
:func:`findings_from_bmc` / :func:`findings_from_bus`, applied to a
live BMC result.  ``DesignServiceFlow``'s ``verify_props`` stage does
not produce them: it keeps only the per-block status counts.

A ``PROP`` finding's subject is the property name (or window pair),
never the message, so fingerprints survive diagnostic rewording --
and a waiver pinned to one falsified property keeps gating every
other one.
"""

from __future__ import annotations

from typing import Iterable

from ..formal.bmc import BmcReport, BusExclusivityResult
from .core import Finding, Rule, Severity, get_rule, register

PROP_RULE_IDS = ("PROP-001", "PROP-002", "PROP-003", "PROP-004")


@register(
    "PROP-001", Severity.ERROR, "property",
    "Assert property falsified by bounded model checking",
    scope="property",
)
def check_falsified(rule: Rule, report: BmcReport) -> Iterable[Finding]:
    """One finding per falsified assert, pinned to the cex frame."""
    for check in report.checks:
        if check.kind != "assert" or check.status != "falsified":
            continue
        frame = (
            check.counterexample.frame
            if check.counterexample is not None else -1
        )
        detail = f": {check.message}" if check.message else ""
        yield rule.finding(
            report.module,
            check.name,
            f"assert {check.name} {check.expr} falsified at frame "
            f"{frame} (depth {check.depth}, {report.config})"
            f"{detail}",
        )


@register(
    "PROP-002", Severity.WARNING, "property",
    "Property proven vacuously (assumes unsatisfiable)",
    scope="property",
)
def check_vacuous(rule: Rule, report: BmcReport) -> Iterable[Finding]:
    """One finding per vacuous pass."""
    for check in report.checks:
        if not check.vacuous:
            continue
        yield rule.finding(
            report.module,
            check.name,
            f"{check.kind} {check.name} passed vacuously: its "
            f"assumptions are jointly unsatisfiable at depth "
            f"{check.depth}",
        )


@register(
    "PROP-003", Severity.WARNING, "property",
    "Cover property unreachable within the checked bound",
    scope="property",
)
def check_unreachable(
    rule: Rule, report: BmcReport
) -> Iterable[Finding]:
    """One finding per unreachable cover."""
    for check in report.checks:
        if check.kind != "cover" or check.status != "unreachable":
            continue
        yield rule.finding(
            report.module,
            check.name,
            f"cover {check.name} {check.expr} has no witness within "
            f"{check.depth} frames",
        )


@register(
    "PROP-004", Severity.ERROR, "property",
    "Bus decode windows overlap (doubly-decoded address)",
    scope="property",
)
def check_bus_overlap(
    rule: Rule, result: BusExclusivityResult
) -> Iterable[Finding]:
    """One finding per proven-overlapping window pair."""
    if result.exclusive or result.overlapping is None:
        return
    first, second = result.overlapping
    yield rule.finding(
        "soc",
        f"{first}<->{second}",
        f"windows {first} and {second} both decode address "
        f"{result.witness_address:#x}",
    )


def findings_from_bmc(report: BmcReport) -> list[Finding]:
    """All ``PROP`` findings a BMC report implies, in sort order."""
    findings: list[Finding] = []
    for rule_id in ("PROP-001", "PROP-002", "PROP-003"):
        rule = get_rule(rule_id)
        findings.extend(rule.check(rule, report))
    findings.sort(key=Finding.sort_key)
    return findings


def findings_from_bus(result: BusExclusivityResult) -> list[Finding]:
    """The ``PROP-004`` findings of one bus-exclusivity check."""
    rule = get_rule("PROP-004")
    return list(rule.check(rule, result))
