"""Rule framework for static design-rule analysis.

The machinery every rule family plugs into:

* :class:`Rule` -- one registered check with a stable id, severity and
  category, discovered through the module-level registry;
* :class:`Finding` -- one reported violation with a *stable
  fingerprint* (a hash of the rule id and the structural subject, never
  of the human-readable message) so waivers survive message rewording;
* :class:`Waiver` / :class:`WaiverSet` -- the sign-off escape hatch: a
  JSON file of glob/fingerprint matchers with mandatory reasons;
* :class:`LintReport` -- text and canonical-JSON output.  The JSON form
  is byte-identical for the same design no matter how the rule engine
  was parallelised (the same contract as the coverage database);
* :func:`run_lint` -- the engine: module-scope rules fan out across
  modules via :func:`repro.perf.fanout` (deterministic task-order
  merge), SoC-scope rules run over the bus/catalog view in-process.
"""

from __future__ import annotations

import enum
import fnmatch
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..perf import fanout
from ..store import get_default_store

#: Result-schema/algorithm version of cached per-module lint results.
#: Bump whenever any module-scope rule changes behaviour.
LINT_VERSION = "1"

#: Store domain for per-module finding lists.
LINT_STORE_DOMAIN = "lint.module"


class LintError(Exception):
    """Problem in the lint configuration itself (bad waiver file...)."""


class Severity(enum.IntEnum):
    """Finding severity; comparison follows escalation order."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise LintError(f"unknown severity {text!r}") from None


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    ``subject`` is the structural object at fault (a net, an instance,
    a ``src->dst`` pair, an address window); together with the rule id
    and the module name it determines the :attr:`fingerprint`.  The
    ``message`` is presentation only and deliberately excluded from the
    fingerprint so reworded diagnostics never invalidate waivers.
    """

    rule_id: str
    severity: Severity
    category: str
    module: str
    subject: str
    message: str

    @property
    def fingerprint(self) -> str:
        """Stable 12-hex-digit identity of this violation."""
        key = f"{self.rule_id}|{self.module}|{self.subject}"
        return hashlib.sha1(key.encode()).hexdigest()[:12]

    def to_dict(self) -> dict:
        """Canonical JSON-ready form."""
        return {
            "rule": self.rule_id,
            "severity": self.severity.name.lower(),
            "category": self.category,
            "module": self.module,
            "subject": self.subject,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Finding":
        """Inverse of :meth:`to_dict` (the fingerprint is re-derived)."""
        return cls(
            rule_id=str(data["rule"]),
            severity=Severity.parse(str(data["severity"])),
            category=str(data["category"]),
            module=str(data["module"]),
            subject=str(data["subject"]),
            message=str(data["message"]),
        )

    def sort_key(self) -> tuple:
        return (self.module, self.rule_id, self.subject, self.message)


@dataclass(frozen=True)
class Rule:
    """One registered design-rule check."""

    id: str
    severity: Severity
    category: str
    title: str
    scope: str  # "module" | "soc" | "property"
    check: Callable[..., Iterable[Finding]]

    def finding(self, module: str, subject: str, message: str,
                *, severity: Severity | None = None) -> Finding:
        """Construct a finding attributed to this rule."""
        return Finding(
            rule_id=self.id,
            severity=self.severity if severity is None else severity,
            category=self.category,
            module=module,
            subject=subject,
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def register(
    rule_id: str,
    severity: Severity,
    category: str,
    title: str,
    *,
    scope: str = "module",
) -> Callable[
    [Callable[..., Iterable[Finding]]], Callable[..., Iterable[Finding]]
]:
    """Decorator registering a check function as a :class:`Rule`.

    Module-scope checks receive ``(rule, module)``; SoC-scope checks
    receive ``(rule, view)`` where ``view`` is a
    :class:`repro.lint.socmap.SocView`; property-scope checks receive
    ``(rule, report)`` where ``report`` is a formal result (they are
    registered for metadata/waiver/SARIF purposes but invoked through
    :mod:`repro.lint.properties`, never by the structural engine).
    """
    if scope not in ("module", "soc", "property"):
        raise LintError(f"bad rule scope {scope!r}")

    def decorator(
        fn: Callable[..., Iterable[Finding]]
    ) -> Callable[..., Iterable[Finding]]:
        if rule_id in _REGISTRY:
            raise LintError(f"duplicate rule id {rule_id!r}")
        _REGISTRY[rule_id] = Rule(rule_id, severity, category, title,
                                  scope, fn)
        return fn

    return decorator


def load_builtin_rules() -> None:
    """Import every rule module so the registry is populated.

    Idempotent; called by the engine (including inside worker
    processes, which unpickle the task function without importing the
    ``repro.lint`` package itself).
    """
    from . import (  # noqa: F401
        analysis,
        cdc,
        properties,
        scandrc,
        socmap,
        structural,
        xsource,
    )


def all_rules(scope: str | None = None) -> list[Rule]:
    """Registered rules in id order, optionally filtered by scope."""
    load_builtin_rules()
    rules = [_REGISTRY[rid] for rid in sorted(_REGISTRY)]
    if scope is not None:
        rules = [r for r in rules if r.scope == scope]
    return rules


def get_rule(rule_id: str) -> Rule:
    """Look up one registered rule."""
    load_builtin_rules()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise LintError(f"unknown rule {rule_id!r}") from None


def select_rules(selection: Iterable[str] | None,
                 scope: str | None = None) -> list[Rule]:
    """Filter registered rules by ids or categories.

    ``selection`` entries match either a rule id (``CDC-001``) or a
    whole category (``cdc``); ``None`` selects everything.
    """
    rules = all_rules(None)
    if selection is not None:
        wanted = {entry.strip() for entry in selection if entry.strip()}
        known = {r.id for r in rules} | {r.category for r in rules}
        unknown = wanted - known
        if unknown:
            raise LintError(f"unknown rules/categories: {sorted(unknown)}")
        rules = [r for r in rules if r.id in wanted or r.category in wanted]
    if scope is not None:
        rules = [r for r in rules if r.scope == scope]
    return rules


# ---------------------------------------------------------------------------
# Waivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Waiver:
    """One waiver entry: glob matchers plus a mandatory reason.

    A finding is waived when *every* provided matcher matches; an
    explicit ``fingerprint`` pins exactly one violation, while
    ``rule``/``module``/``subject`` globs waive families (e.g. every
    ``X-001`` in a debug-only block).
    """

    reason: str
    rule: str = "*"
    module: str = "*"
    subject: str = "*"
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if not self.reason.strip():
            raise LintError("waiver must carry a non-empty reason")

    def matches(self, finding: Finding) -> bool:
        if self.fingerprint and self.fingerprint != finding.fingerprint:
            return False
        return (fnmatch.fnmatchcase(finding.rule_id, self.rule)
                and fnmatch.fnmatchcase(finding.module, self.module)
                and fnmatch.fnmatchcase(finding.subject, self.subject))

    def to_dict(self) -> dict:
        entry: dict = {"reason": self.reason}
        for key in ("rule", "module", "subject"):
            if getattr(self, key) != "*":
                entry[key] = getattr(self, key)
        if self.fingerprint:
            entry["fingerprint"] = self.fingerprint
        return entry

    @classmethod
    def from_dict(cls, data: Mapping) -> "Waiver":
        unknown = set(data) - {"reason", "rule", "module", "subject",
                               "fingerprint"}
        if unknown:
            raise LintError(f"unknown waiver keys: {sorted(unknown)}")
        if "reason" not in data:
            raise LintError("waiver entry missing 'reason'")
        return cls(
            reason=str(data["reason"]),
            rule=str(data.get("rule", "*")),
            module=str(data.get("module", "*")),
            subject=str(data.get("subject", "*")),
            fingerprint=str(data.get("fingerprint", "")),
        )


class WaiverSet:
    """An ordered collection of waivers (a waiver *file* in memory)."""

    def __init__(self, waivers: Iterable[Waiver] = ()) -> None:
        self.waivers = list(waivers)

    def __len__(self) -> int:
        return len(self.waivers)

    def __iter__(self) -> Iterator[Waiver]:
        return iter(self.waivers)

    def match(self, finding: Finding) -> Waiver | None:
        """First waiver covering the finding, or None."""
        for waiver in self.waivers:
            if waiver.matches(finding):
                return waiver
        return None

    def to_json(self) -> str:
        return json.dumps(
            {"waivers": [w.to_dict() for w in self.waivers]},
            sort_keys=True, indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "WaiverSet":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LintError(f"bad waiver file: {exc}") from None
        entries = data.get("waivers") if isinstance(data, dict) else None
        if not isinstance(entries, list):
            raise LintError("waiver file must be {'waivers': [...]}")
        return cls(Waiver.from_dict(entry) for entry in entries)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "WaiverSet":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass
class LintReport:
    """The outcome of one lint run: active findings + waived findings.

    ``unused_waivers`` lists waiver entries that matched nothing this
    run -- stale sign-offs that should be pruned (or that silently
    stopped covering what they were written for).
    """

    design: str
    findings: list[Finding] = field(default_factory=list)
    waived: list[tuple[Finding, Waiver]] = field(default_factory=list)
    unused_waivers: list[Waiver] = field(default_factory=list)
    modules_checked: int = 0
    rules_run: int = 0

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity is severity)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def worst(self) -> Severity | None:
        return max((f.severity for f in self.findings), default=None)

    def failed(self, fail_on: Severity | str | None) -> bool:
        """True when any active finding reaches the fail threshold."""
        if fail_on is None:
            return False
        if isinstance(fail_on, str):
            if fail_on.lower() == "none":
                return False
            fail_on = Severity.parse(fail_on)
        return any(f.severity >= fail_on for f in self.findings)

    def to_dict(self) -> dict:
        """Canonical sorted form: a pure function of the findings."""
        return {
            "design": self.design,
            "modules_checked": self.modules_checked,
            "rules_run": self.rules_run,
            "counts": {
                severity.name.lower(): self.count(severity)
                for severity in Severity
            },
            "findings": [
                f.to_dict()
                for f in sorted(self.findings, key=Finding.sort_key)
            ],
            "waived": [
                {**f.to_dict(), "waived_by": w.reason}
                for f, w in sorted(self.waived, key=lambda p: p[0].sort_key())
            ],
            "unused_waivers": [
                w.to_dict() for w in self.unused_waivers
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON: byte-identical across worker counts."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_dict(cls, data: Mapping) -> "LintReport":
        """Rebuild a report from its canonical dict (baseline loading).

        Waived entries come back paired with a wildcard waiver carrying
        the recorded reason; ``counts`` is re-derived from the
        findings.
        """
        report = cls(
            design=str(data.get("design", "design")),
            modules_checked=int(data.get("modules_checked", 0)),
            rules_run=int(data.get("rules_run", 0)),
        )
        for entry in data.get("findings", []):
            report.findings.append(Finding.from_dict(entry))
        for entry in data.get("waived", []):
            report.waived.append((
                Finding.from_dict(entry),
                Waiver(reason=str(entry.get("waived_by", "unknown"))),
            ))
        for entry in data.get("unused_waivers", []):
            report.unused_waivers.append(Waiver.from_dict(entry))
        return report

    @classmethod
    def from_json(cls, text: str) -> "LintReport":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LintError(f"bad lint baseline: {exc}") from None
        if not isinstance(data, Mapping):
            raise LintError("lint baseline must be a JSON object")
        return cls.from_dict(data)

    def delta(self, baseline: "LintReport | Mapping") -> "LintDelta":
        """Diff this run against a prior one by finding fingerprint.

        Waived findings on either side are excluded: waiving is a
        sign-off decision, not a design change, so a newly-waived
        finding reports as *fixed* and an un-waived one as *new*.
        """
        if not isinstance(baseline, LintReport):
            baseline = LintReport.from_dict(baseline)
        base_by_fp = {f.fingerprint: f for f in baseline.findings}
        current_fps = {f.fingerprint for f in self.findings}
        new = [f for f in sorted(self.findings, key=Finding.sort_key)
               if f.fingerprint not in base_by_fp]
        carried = [f for f in sorted(self.findings, key=Finding.sort_key)
                   if f.fingerprint in base_by_fp]
        fixed = [f for f in sorted(baseline.findings, key=Finding.sort_key)
                 if f.fingerprint not in current_fps]
        return LintDelta(
            design=self.design, new=new, carried=carried, fixed=fixed
        )

    def to_sarif(self, *, baseline: dict | None = None) -> dict:
        """SARIF 2.1.0 log object (see :mod:`repro.lint.sarif`)."""
        from .sarif import report_to_sarif

        return report_to_sarif(self, baseline=baseline)

    def to_sarif_json(self, *, baseline: dict | None = None) -> str:
        """Canonical SARIF 2.1.0 JSON for code-scanning upload."""
        from .sarif import report_to_sarif_json

        return report_to_sarif_json(self, baseline=baseline)

    def format_report(self) -> str:
        lines = [
            f"Lint report for {self.design}",
            f"  modules checked : {self.modules_checked}",
            f"  rules run       : {self.rules_run}",
            f"  findings        : {len(self.findings)}"
            f" ({self.count(Severity.ERROR)} error,"
            f" {self.count(Severity.WARNING)} warning,"
            f" {self.count(Severity.INFO)} info),"
            f" {len(self.waived)} waived",
        ]
        for severity in (Severity.ERROR, Severity.WARNING, Severity.INFO):
            group = [f for f in sorted(self.findings, key=Finding.sort_key)
                     if f.severity is severity]
            if not group:
                continue
            lines.append(f"  -- {severity.name} --")
            for f in group:
                lines.append(
                    f"  {f.rule_id} [{f.fingerprint}] {f.module}: {f.message}"
                )
        for f, waiver in sorted(self.waived, key=lambda p: p[0].sort_key()):
            lines.append(
                f"  waived {f.rule_id} [{f.fingerprint}] {f.module}:"
                f" {f.message} ({waiver.reason})"
            )
        if self.unused_waivers:
            lines.append(
                f"  -- UNUSED WAIVERS ({len(self.unused_waivers)}) --"
            )
            for waiver in self.unused_waivers:
                matchers = ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(waiver.to_dict().items())
                    if key != "reason"
                ) or "match-all"
                lines.append(
                    f"  unused waiver [{matchers}] ({waiver.reason})"
                )
        if not self.findings and not self.waived:
            lines.append("  clean: no findings")
        return "\n".join(lines)


@dataclass
class LintDelta:
    """Fingerprint diff of one lint run against a baseline run."""

    design: str
    new: list[Finding] = field(default_factory=list)
    carried: list[Finding] = field(default_factory=list)
    fixed: list[Finding] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "counts": {
                "new": len(self.new),
                "carried": len(self.carried),
                "fixed": len(self.fixed),
            },
            "new": [f.to_dict() for f in self.new],
            "carried": [f.to_dict() for f in self.carried],
            "fixed": [f.to_dict() for f in self.fixed],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def format_report(self) -> str:
        lines = [
            f"Lint delta for {self.design}",
            f"  new     : {len(self.new)}",
            f"  carried : {len(self.carried)}",
            f"  fixed   : {len(self.fixed)}",
        ]
        for label, group in (("new", self.new), ("fixed", self.fixed)):
            for f in group:
                lines.append(
                    f"  {label} {f.rule_id} [{f.fingerprint}]"
                    f" {f.module}: {f.message}"
                )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def _lint_module_task(shared: tuple, index: int) -> list[Finding]:
    """Worker: run the named module-scope rules over one module.

    ``shared`` is ``(modules, rule_ids)``, handed to each pool worker
    once; a task is only the index of its module.  Module-level so it
    pickles into worker processes; the registry is (re)populated on
    first use there.
    """
    modules, rule_ids = shared
    module = modules[index]
    load_builtin_rules()
    findings: list[Finding] = []
    for rule_id in rule_ids:
        rule = _REGISTRY[rule_id]
        findings.extend(rule.check(rule, module))
    return findings


def lint_modules(
    modules: Sequence,
    *,
    rules: Iterable[str] | None = None,
    workers: int | None = None,
) -> list[Finding]:
    """Run every module-scope rule over every module, in parallel.

    Work is partitioned per module before execution and merged in task
    order, so the finding list is a pure function of the inputs
    regardless of ``workers``.

    Per-module results are cached in the ambient
    :class:`repro.store.ArtifactStore` under the module fingerprint and
    the selected rule-id list: a warm rerun (or a post-ECO rerun over
    untouched modules) decodes cached findings and only fans out the
    modules whose content changed.
    """
    chosen = select_rules(rules, scope="module")
    rule_ids = tuple(r.id for r in chosen)
    store = get_default_store()
    config = ["rules", list(rule_ids)]
    per_module: dict[int, list[Finding]] = {}
    missing: list[int] = []
    for index, module in enumerate(modules):
        payload = store.get(
            LINT_STORE_DOMAIN, LINT_VERSION,
            (module.fingerprint(),), config,
        )
        if payload is not None:
            per_module[index] = [Finding.from_dict(e) for e in payload]
        else:
            missing.append(index)
    if missing:
        # The modules travel once per pool worker, not once per task.
        results = fanout(
            _lint_module_task, range(len(missing)), workers=workers,
            stage="lint.modules",
            shared=([modules[index] for index in missing], rule_ids),
        )
        for index, found in zip(missing, results):
            per_module[index] = found
            store.put(
                LINT_STORE_DOMAIN, LINT_VERSION,
                (modules[index].fingerprint(),),
                [f.to_dict() for f in found], config,
            )
    return [
        finding
        for index in range(len(modules))
        for finding in per_module[index]
    ]


def run_lint(
    modules: Sequence = (),
    *,
    soc=None,
    catalog=None,
    binding: Mapping[str, str] | None = None,
    design: str = "design",
    rules: Iterable[str] | None = None,
    workers: int | None = None,
    waivers: WaiverSet | None = None,
) -> LintReport:
    """The full static-analysis pass: modules + optional SoC audit.

    ``soc`` accepts a :class:`repro.soc.SystemBus` or anything with a
    ``bus`` attribute (e.g. :class:`repro.soc.DscSoc`); ``catalog`` and
    ``binding`` feed the dangling-IP audit.  Findings matching a waiver
    are reported separately and never count toward failure.
    """
    findings = lint_modules(modules, rules=rules, workers=workers)

    soc_rules = select_rules(rules, scope="soc")
    if soc is not None and soc_rules:
        from .socmap import soc_view

        view = soc_view(soc, catalog=catalog, binding=binding)
        for rule in soc_rules:
            findings.extend(rule.check(rule, view))

    report = LintReport(
        design=design,
        modules_checked=len(modules) + (1 if soc is not None else 0),
        rules_run=len(select_rules(rules, scope="module"))
        + (len(soc_rules) if soc is not None else 0),
    )
    findings.sort(key=Finding.sort_key)
    used_waivers: set[int] = set()
    for finding in findings:
        waiver = waivers.match(finding) if waivers is not None else None
        if waiver is None:
            report.findings.append(finding)
        else:
            used_waivers.add(id(waiver))
            report.waived.append((finding, waiver))
    if waivers is not None:
        report.unused_waivers = [
            w for w in waivers if id(w) not in used_waivers
        ]
    return report
