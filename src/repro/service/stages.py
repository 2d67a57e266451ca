"""The per-block stage table, shared by the service and the flow.

Each per-block stage is declared once, in :data:`STAGE_DEFS`: its
gating deps, its LPT cost weight, the request knobs that change its
result, and a pure ``body(module, config) -> payload``.
:class:`~repro.service.DesignService` runs the bodies as *work units*
(per block, and per corner for STA) through :func:`execute_unit`,
inline or in a :mod:`repro.perf` pool worker;
:class:`~repro.core.flow.DesignServiceFlow` runs its ``lint_gate``,
``analyze`` and ``verify_props`` stages as loops over the same
bodies.  Both cache a payload under one content key --
``service.<stage>``, :data:`STAGE_VERSION`, :func:`unit_fingerprints`
and :func:`unit_config` -- so the same ``(stage, module fingerprint,
config)`` is computed once, whoever asks::

    assemble --+--> lint_gate --> dft
               +--> analyze ---> verify_props
               +--> sta[corner...]

Worker processes keep a module memo keyed by recipe, so a pool worker
regenerates each block at most once per process lifetime -- the same
amortisation the compiled-sim program cache relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from ..store import ArtifactStore, using_store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..formal import BmcReport
    from ..netlist import Module, StdCellLibrary
    from .request import BlockSpec, FlowRequest

#: Bump to invalidate every cached stage payload (schema change).
STAGE_VERSION = "1"

Payload = dict[str, Any]


# -- stage bodies: pure functions of (module, config) ---------------------

def _assemble(module: "Module", config: Mapping[str, Any]) -> Payload:
    from ..netlist import collect_stats

    stats = collect_stats(module)
    return {
        "fingerprint": module.fingerprint(),
        "gates": int(module.gate_count),
        "instances": int(stats.instance_count),
        "sequential": int(stats.sequential_count),
        "nets": int(stats.net_count),
        "ports": int(stats.port_count),
        "area_um2": float(stats.total_area_um2),
    }


def _lint_gate(module: "Module", config: Mapping[str, Any]) -> Payload:
    from ..lint import Severity, run_lint

    report = run_lint([module], design=module.name, workers=1)
    return {
        "errors": len(report.errors),
        "warnings": report.count(Severity.WARNING),
        "waived": len(report.waived),
        "findings": sorted(f.fingerprint for f in report.findings),
    }


def _analyze(module: "Module", config: Mapping[str, Any]) -> Payload:
    from ..lint import run_lint

    report = run_lint(
        [module], design=module.name,
        rules=["const", "dead", "divergence", "race"], workers=1,
    )
    by_category: dict[str, int] = {}
    for finding in report.findings:
        by_category[finding.category] = (
            by_category.get(finding.category, 0) + 1
        )
    return {
        "findings": len(report.findings),
        "by_category": dict(sorted(by_category.items())),
        "divergent_outputs": sum(
            1 for f in report.findings if f.rule_id == "DIV-001"
        ),
    }


def check_block_props(
    module: "Module", config: Mapping[str, Any],
) -> "BmcReport | None":
    """BMC of the block's auto-derived properties, or ``None`` when
    only assumes were derived (nothing to check)."""
    from ..formal import check_properties, derive_properties

    props = derive_properties(module)
    if not any(p.kind != "assume" for p in props):
        return None
    return check_properties(
        module, props, depth=int(config["depth"]), workers=1,
        seed=int(config["seed"]),
    )


def bmc_payload(report: "BmcReport | None") -> Payload:
    """The ``verify_props`` payload of one :func:`check_block_props`
    result."""
    if report is None:
        return {"checked": 0, "counts": {}, "status": {}}
    return {
        "checked": len(report.checks),
        "counts": {key: int(value)
                   for key, value in sorted(report.counts().items())},
        "status": {check.name: check.status
                   for check in sorted(report.checks,
                                       key=lambda c: c.name)},
    }


def _verify_props(module: "Module", config: Mapping[str, Any]) -> Payload:
    return bmc_payload(check_block_props(module, config))


def _sta(module: "Module", config: Mapping[str, Any]) -> Payload:
    from ..sta import TimingConstraints, analyze_timing

    constraints = TimingConstraints(
        clock_period_ps=float(config["clock_period_ps"])
    )
    report = analyze_timing(
        module, constraints, corners=[str(config["corner"])],
    )
    return {
        "corner": str(config["corner"]),
        "wns_ps": float(report.wns_ps),
        "hold_wns_ps": float(report.hold_wns_ps),
        "setup_clean": bool(report.setup_clean),
        "hold_clean": bool(report.hold_clean),
    }


def _dft(module: "Module", config: Mapping[str, Any]) -> Payload:
    import numpy as np

    from ..dft import (
        CombinationalView,
        collapse_faults,
        enumerate_faults,
        insert_scan,
        random_pattern_fault_sim,
    )

    scanned, scan_report = insert_scan(
        module, n_chains=int(config["chains"])
    )
    view = CombinationalView(scanned)
    faults = collapse_faults(scanned, enumerate_faults(scanned))
    patterns = int(config["patterns"])
    result = random_pattern_fault_sim(
        view, faults, rng=np.random.default_rng(int(config["seed"])),
        max_patterns=patterns, batch_size=min(patterns, 4096),
    )
    return {
        "faults": len(faults),
        "detected": len(result.detected),
        "coverage": float(len(result.detected) / max(len(faults), 1)),
        "patterns": int(result.patterns_applied),
        "scan_flops": int(scan_report.total_scan_flops),
        "chains": len(scan_report.chains),
    }


# -- the table --------------------------------------------------------------

@dataclass(frozen=True)
class StageDef:
    """One per-block stage.

    ``deps`` gate it; ``knobs`` map each config key its result depends
    on to the :class:`~repro.service.request.FlowRequest` field (and
    type) it comes from; ``body`` computes the payload from the
    block's module and that config.
    """

    name: str
    deps: tuple[str, ...]
    #: Estimated cost per gate, used for LPT binning.  Calibrated from
    #: the bench block sweep (lint/analyze ~ linear in gates, fault
    #: sim the heaviest, STA the lightest per corner).
    weight: float
    body: Callable[["Module", Mapping[str, Any]], Payload]
    knobs: tuple[tuple[str, str, type], ...] = ()


#: Every per-block stage, declared after its deps.
STAGE_DEFS: dict[str, StageDef] = {stage.name: stage for stage in (
    StageDef("assemble", (), 0.3, _assemble),
    StageDef("lint_gate", ("assemble",), 1.2, _lint_gate),
    StageDef("analyze", ("assemble",), 1.1, _analyze),
    StageDef("verify_props", ("analyze",), 0.8, _verify_props,
             (("depth", "bmc_depth", int), ("seed", "seed", int))),
    StageDef("sta", ("assemble",), 0.4, _sta,
             (("clock_period_ps", "clock_period_ps", float),)),
    StageDef("dft", ("lint_gate",), 2.2, _dft,
             (("patterns", "dft_patterns", int), ("seed", "seed", int),
              ("chains", "scan_chains", int))),
)}

#: The stages a request may ask for, in declared order.
DEFAULT_STAGES: tuple[str, ...] = tuple(STAGE_DEFS)


def stage_closure(stages: Iterable[str]) -> tuple[str, ...]:
    """Dependency-closed stage set, in declared order."""
    wanted: set[str] = set()
    frontier = list(stages)
    while frontier:
        name = frontier.pop()
        if name in wanted:
            continue
        if name not in STAGE_DEFS:
            raise ValueError(
                f"unknown stage {name!r}; known: {sorted(STAGE_DEFS)}"
            )
        wanted.add(name)
        frontier.extend(STAGE_DEFS[name].deps)
    return tuple(name for name in STAGE_DEFS if name in wanted)


def unit_config(
    stage: str, request: "FlowRequest", corner: str | None = None,
) -> dict[str, Any]:
    """The configuration slice of ``request`` that ``stage`` sees.

    Only the stage's knobs appear here -- the config is half of the
    unit's content address, so anything irrelevant (tenant name, other
    stages' knobs) must stay out or dedup silently degrades.
    """
    config = {key: cast(getattr(request, attr))
              for key, attr, cast in STAGE_DEFS[stage].knobs}
    if stage == "sta":
        if corner is None:
            raise ValueError("sta units are per corner")
        config["corner"] = corner
    return config


def unit_fingerprints(
    stage: str, block: "BlockSpec", module_fingerprint: str | None,
) -> tuple[str, ...]:
    """Input fingerprints of one unit.

    ``assemble`` is keyed by the block *recipe* (there is no module
    yet); every downstream stage is keyed by the module content
    fingerprint the assemble payload reported, so an ECO that leaves a
    block's content unchanged still hits.
    """
    if stage == "assemble":
        return (block.recipe_fingerprint,)
    if module_fingerprint is None:
        raise ValueError(f"stage {stage!r} needs the module fingerprint")
    return (module_fingerprint,)


def estimated_cost(stage: str, block: "BlockSpec") -> float:
    """LPT cost estimate of one unit (arbitrary but stable units)."""
    return STAGE_DEFS[stage].weight * float(block.gate_budget)


def make_unit_spec(
    stage: str, block: "BlockSpec", config: Mapping[str, Any],
) -> dict[str, Any]:
    """Picklable, JSON-able description of one unit of work."""
    return {"stage": stage, "block": block.to_dict(),
            "config": dict(config)}


# -- execution ------------------------------------------------------------

#: Per-process memo: block recipe -> materialised module.  Pool
#: workers live across units, so each worker pays netlist generation
#: once per distinct recipe.
_MODULE_CACHE: dict[tuple[str, int, int, float], "Module"] = {}
_LIBRARY_CACHE: dict[float, "StdCellLibrary"] = {}


def materialize_block(block: "BlockSpec") -> "Module":
    """Deterministically (re)generate the block's netlist, memoised."""
    from ..netlist import make_default_library
    from ..netlist.generators import block_from_budget

    key = (block.name, block.gate_budget, block.seed, block.node_um)
    module = _MODULE_CACHE.get(key)
    if module is None:
        library = _LIBRARY_CACHE.get(block.node_um)
        if library is None:
            library = make_default_library(block.node_um)
            _LIBRARY_CACHE[block.node_um] = library
        module = block_from_budget(
            block.name, library, gate_budget=block.gate_budget,
            seed=block.seed,
        )
        _MODULE_CACHE[key] = module
    return module


def execute_unit(spec: Mapping[str, Any]) -> Payload:
    """Run one work unit; pure function of its spec.

    The body runs under a scratch ambient store, so whatever its deep
    calls cache (lint findings, analysis cones) leaves with the unit:
    an inline run then leaves the process-wide store exactly as a pool
    run does.
    """
    from .request import BlockSpec

    stage = STAGE_DEFS.get(str(spec["stage"]))
    if stage is None:
        raise ValueError(f"unknown stage {spec['stage']!r}")
    module = materialize_block(BlockSpec.from_dict(dict(spec["block"])))
    with using_store(ArtifactStore()):
        return stage.body(module, dict(spec["config"]))


def execute_unit_guarded(
    spec: Mapping[str, Any],
) -> tuple[bool, Payload]:
    """Like :func:`execute_unit` but failures come back structured.

    Returns ``(True, payload)`` or ``(False, error)`` where ``error``
    carries the exception type and message -- the per-request error
    record the service surfaces, instead of a pool traceback that
    poisons the whole batch.
    """
    try:
        return True, execute_unit(spec)
    except Exception as exc:  # noqa: BLE001 - surfaced structured
        return False, {
            "type": type(exc).__name__,
            "message": str(exc),
        }
