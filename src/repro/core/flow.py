"""The end-to-end SOC design-service flow.

This is the paper's actual subject: an SOC design-service provider
"takes as its inputs from the system house a specification or
partially-designed prototype and delivers to its customer GDSII ready
for manufacturing".  :class:`DesignServiceFlow` chains every substrate
in this library into that lifecycle:

1. **intake**        -- IP catalogue review + integration campaign (E14)
2. **harden**        -- legacy CPU to a 133 MHz hard macro
3. **assemble**      -- materialise block netlists, SoC statistics (E1)
   + **lint_gate**   -- static design-rule sign-off (:mod:`repro.lint`)
   + **analyze**     -- dataflow engine: const/dead/divergence/race
     (:mod:`repro.analysis`)
   + **verify_props** -- BMC of auto-derived properties (:mod:`repro.formal`)
4. **verify**        -- regression + cross-simulator consistency (E13)
5. **insert_dft**    -- scan + ATPG coverage (E4), MBIST plan (E3)
6. **implement**     -- floorplan, placement, routing, CTS, STA QoR
7. **package**       -- pin assignment to a 2-layer substrate (E6)
8. **tapeout**       -- spare cells, formal sign-off, design database
9. **produce**       -- yield ramp (E7/E8) and mass production (E11)

Because carrying a literal 240K-gate netlist through every algorithm
would make experiments take hours, the flow materialises each block at
``scale`` times its real budget and extrapolates area/statistics by
budget -- the standard representative-block methodology.  All paper
headline numbers are regenerated by the benchmarks in ``benchmarks/``.

``lint_gate``, ``analyze`` and ``verify_props`` loop over the
per-block stage bodies of :data:`repro.service.stages.STAGE_DEFS`,
cached under the service's own keys, so a
:class:`~repro.service.DesignService` sharing the flow's store reuses
every block the flow has checked.  The flow adds only design-level
work: the SoC memory-map rules, the bus-exclusivity proof and the
:class:`FlowReport` sums.

Six design-level stages are store units of their own, under
``flow.<stage>``: ``verify``, ``implement``, ``advanced_signoff``,
``package_design``, ``tapeout`` (its burn-in verdict and project
simulation) and ``produce``.  Each caches exactly the
:class:`FlowReport` fields it sets, keyed on the fingerprints of the
netlists it reads, the seed and the settings below, so a warm rerun
recomputes only ``harden_cpu``, ``assemble`` and ``insert_dft`` plus
the millisecond stages.  On a miss such a stage returns its live
result objects; on a hit it returns the cached payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..netlist import Module, collect_stats, make_default_library
from ..netlist.generators import block_from_budget
from ..verification import (
    Testbench,
    cross_simulator_check,
    random_stimulus,
)
from ..formal import check_sequential_burn_in
from ..dft import insert_scan, run_atpg
from ..mbist import BistGenerator, dsc_memory_set
from ..sta import TimingAnalyzer, TimingConstraints
from ..physical import (
    AnnealingPlacer,
    GlobalRouter,
    HardMacro,
    build_clock_tree,
    build_floorplan,
)
from ..package import (
    dsc_pad_ring,
    estimate_layers,
    optimize_assignment,
    scrambled_assignment,
    tfbga256,
)
from ..eco import ChangeKind, DesignDatabase, sprinkle_spare_cells
from ..store import ArtifactStore, using_store
from ..ip import IpCatalog, dsc_ip_catalog, harden, run_integration_campaign
from ..project import simulate_project
from ..manufacturing import simulate_production, simulate_ramp
from ..reliability import run_qualification


@dataclass(frozen=True)
class FlowStage:
    """One stage of the whole-design lifecycle.

    ``deps`` are the stages whose outputs this stage consumes --
    gating edges, not just narrative order.
    """

    name: str
    deps: tuple[str, ...] = ()


#: The lifecycle DAG, declared in run order: every stage comes after
#: its deps.
FLOW_STAGES: tuple[FlowStage, ...] = (
    FlowStage("intake"),
    FlowStage("harden_cpu", deps=("intake",)),
    FlowStage("assemble", deps=("harden_cpu",)),
    FlowStage("lint_gate", deps=("assemble",)),
    FlowStage("analyze", deps=("assemble",)),
    FlowStage("verify_props", deps=("analyze",)),
    FlowStage("prototype", deps=("assemble",)),
    FlowStage("integrate_system", deps=("intake",)),
    FlowStage("verify", deps=("assemble",)),
    FlowStage("insert_dft", deps=("lint_gate",)),
    FlowStage("schedule_tests", deps=("insert_dft",)),
    FlowStage("implement", deps=("insert_dft",)),
    FlowStage("advanced_signoff", deps=("implement",)),
    FlowStage("package_design", deps=("intake",)),
    FlowStage("tapeout", deps=("assemble", "insert_dft")),
    FlowStage("produce", deps=("tapeout",)),
)

FLOW_STAGE_DEFS: dict[str, FlowStage] = {
    stage.name: stage for stage in FLOW_STAGES
}

# Stage settings: they keep the lifecycle run laptop-sized, and every
# FlowReport golden is recorded with them.
BMC_DEPTH = 6  #: verify_props: BMC frames per property
BMC_MAX_GATES = 200  #: verify_props: larger blocks are skipped
REGRESSION_CYCLES = 24  #: verify: cycles per random bench
REGRESSION_BENCHES = 2  #: verify: benches run under both dialects
ATPG_RANDOM_PATTERNS = 384  #: insert_dft: random phase before SAT
PLACER_ITERATIONS = 4000  #: implement: timing-driven placement
SIGNOFF_PLACER_ITERATIONS = 3000  #: advanced_signoff: placement
PACKAGE_ITERATIONS = 3000  #: package_design: pin-assignment annealing
SPARE_CELLS = 24  #: tapeout: spare cells in the representative block
BURN_IN_CYCLES = 16  #: tapeout: cycles of the CPU burn-in compare
PRODUCTION_MONTHS = 18  #: produce: months of mass production
TAM_WIDTH = 8  #: schedule_tests: tester TAM width (scan chains)

#: Version of the design-level stage payloads (domains ``flow.<stage>``);
#: bump it when a cached stage body or its payload changes meaning.
FLOW_STAGE_VERSION = "1"


def flow_stage_order() -> tuple[str, ...]:
    """The lifecycle run order: :data:`FLOW_STAGES` as declared."""
    return tuple(stage.name for stage in FLOW_STAGES)


@dataclass
class FlowReport:
    """Aggregated outcome of a full design-service run."""

    scale: float = 1.0
    # stage outputs (populated as the flow advances)
    integration_revisions: int = 0
    cpu_achieved_mhz: float = 0.0
    soc_gate_budget: int = 0
    soc_materialised_gates: int = 0
    soc_memory_macros: int = 0
    soc_stdcell_area_mm2: float = 0.0
    lint_errors: int = 0
    lint_warnings: int = 0
    lint_waived: int = 0
    analysis_divergent_outputs: int = 0
    analysis_race_findings: int = 0
    analysis_const_findings: int = 0
    analysis_dead_findings: int = 0
    props_checked: int = 0
    props_proven: int = 0
    props_falsified: int = 0
    props_covered: int = 0
    props_unreachable: int = 0
    props_vacuous: int = 0
    bmc_depth: int = 0
    bus_windows_exclusive: bool = False
    regression_pass: int = 0
    regression_total: int = 0
    cross_sim_consistent: bool = False
    fault_coverage: float = 0.0
    mbist_controllers: int = 0
    mbist_pattern_generators: int = 0
    die_area_mm2: float = 0.0
    sta_setup_clean: bool = False
    max_frequency_mhz: float = 0.0
    routing_clean: bool = False
    clock_skew_ps: float = 0.0
    substrate_layers_initial: int = 0
    substrate_layers_final: int = 0
    spare_cells: int = 0
    formal_clean: bool = False
    project_months: float = 0.0
    changes_absorbed: int = 0
    qualification_passed: bool = False
    initial_yield: float = 0.0
    final_yield: float = 0.0
    units_produced: int = 0
    market_share: float = 0.0
    # capability-stage outputs
    prototype_congestion_risk: float = 0.0
    system_smoke_pass: bool = False
    system_hot_path_cycles: int = 0
    crosstalk_pairs: int = 0
    ir_drop_violations: int = 0
    via_yield_gain: float = 0.0
    clock_power_saving: float = 0.0
    leakage_saving: float = 0.0
    test_schedule_speedup_vs_flat: float = 0.0
    notes: list[str] = field(default_factory=list)

    def format_report(self) -> str:
        lines = [
            "=" * 60,
            "SOC DESIGN SERVICE FLOW REPORT",
            "=" * 60,
            f"scale factor          : {self.scale}",
            f"IP revision cycles    : {self.integration_revisions}",
            f"CPU hard macro        : {self.cpu_achieved_mhz:.0f} MHz",
            f"SoC gates (budget)    : {self.soc_gate_budget}",
            f"memory macros         : {self.soc_memory_macros}",
            f"lint                  : {self.lint_errors} errors,"
            f" {self.lint_warnings} warnings,"
            f" {self.lint_waived} waived",
            f"static analysis       : "
            f"{self.analysis_divergent_outputs} divergent outputs,"
            f" {self.analysis_race_findings} races,"
            f" {self.analysis_const_findings} const,"
            f" {self.analysis_dead_findings} dead",
            f"formal properties     : {self.props_checked} checked @"
            f" depth {self.bmc_depth}: {self.props_proven} proven,"
            f" {self.props_falsified} falsified,"
            f" {self.props_vacuous} vacuous;"
            f" bus windows exclusive={self.bus_windows_exclusive}",
            f"regression            : {self.regression_pass}/"
            f"{self.regression_total} pass, cross-sim consistent="
            f"{self.cross_sim_consistent}",
            f"stuck-at coverage     : {self.fault_coverage * 100:.1f}%",
            f"MBIST                 : {self.mbist_controllers} controller,"
            f" {self.mbist_pattern_generators} pattern generators",
            f"die                   : {self.die_area_mm2:.1f} mm^2,"
            f" STA clean={self.sta_setup_clean},"
            f" Fmax={self.max_frequency_mhz:.0f} MHz",
            f"routing/CTS           : clean={self.routing_clean},"
            f" skew={self.clock_skew_ps:.0f} ps",
            f"substrate layers      : {self.substrate_layers_initial} ->"
            f" {self.substrate_layers_final}",
            f"tapeout               : spares={self.spare_cells},"
            f" formal clean={self.formal_clean}",
            f"project               : {self.project_months:.1f} months,"
            f" {self.changes_absorbed} changes",
            f"qualification         : "
            f"{'PASS' if self.qualification_passed else 'FAIL'}",
            f"production            : yield {self.initial_yield * 100:.1f}%"
            f" -> {self.final_yield * 100:.1f}%,"
            f" {self.units_produced / 1e6:.2f} M units,"
            f" share {self.market_share * 100:.1f}%",
            f"system integration    : smoke="
            f"{'PASS' if self.system_smoke_pass else 'not run'},"
            f" hot path {self.system_hot_path_cycles} cycles",
            f"advanced sign-off     : {self.crosstalk_pairs} coupled pairs,"
            f" {self.ir_drop_violations} IR violations,"
            f" clock -{self.clock_power_saving * 100:.0f}%,"
            f" leakage -{self.leakage_saving * 100:.0f}%",
            f"hierarchical test     : "
            f"{self.test_schedule_speedup_vs_flat:.1f}x vs flat chains",
        ]
        return "\n".join(lines)


class DesignServiceFlow:
    """Orchestrates the nine lifecycle stages.

    Stages can be run individually (each returns its own report
    object and updates :attr:`report`) or all at once via
    :meth:`run`.

    ``verify``, ``implement``, ``advanced_signoff``,
    ``package_design``, ``tapeout`` and ``produce`` are store units
    (domains ``flow.<stage>``), beside the per-block ``lint_gate``,
    ``analyze`` and ``verify_props``.  On a store hit such a stage
    sets its report fields from the cached payload and returns that
    payload instead of its live result objects; ``tapeout`` still
    sprinkles its spare cells and commits the database either way.
    """

    def __init__(
        self,
        *,
        catalog: IpCatalog | None = None,
        process_node_um: float = 0.25,
        target_mhz: float = 133.0,
        scale: float = 0.02,
        seed: int = 0,
        store: ArtifactStore | None = None,
    ) -> None:
        if not 0.001 <= scale <= 1.0:
            raise ValueError("scale must be in [0.001, 1.0]")
        self.catalog = catalog or dsc_ip_catalog()
        self.library = make_default_library(process_node_um)
        self.target_mhz = target_mhz
        self.scale = scale
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.report = FlowReport(scale=scale)
        self.database = DesignDatabase("dsc_controller")
        self.blocks: dict[str, Module] = {}
        self._spare_plan = None
        #: Content-addressed cache of the static stages (lint_gate,
        #: analyze, verify_props): per-block payloads under the
        #: service's unit keys, and beneath them the lint and analysis
        #: caches their bodies fill; plus the payloads of the
        #: design-level store units (``flow.<stage>``).  Pass a
        #: persisted or shared store to make reruns after an ECO
        #: re-derive only the blocks/cones/stages the change touched;
        #: results are asserted byte-identical to a cold run.
        self.store = store if store is not None else ArtifactStore()

    # -- stage 1 ---------------------------------------------------------

    def intake(self):
        """IP catalogue review + vendor integration campaign."""
        campaign = run_integration_campaign(self.catalog, seed=self.seed)
        self.report.integration_revisions = campaign.total_revision_cycles
        worst = campaign.worst()
        self.report.notes.append(
            f"riskiest IP: {worst.block} ({worst.revision_cycles} revisions)"
        )
        return campaign

    # -- stage 2 ---------------------------------------------------------

    def harden_cpu(self):
        """Turn the legacy RISC/DSP into a 133 MHz hard macro."""
        cpu = self.catalog.get("risc_dsp")
        result = harden(cpu, self.library, target_mhz=self.target_mhz,
                        scale=self.scale, seed=self.seed)
        self.report.cpu_achieved_mhz = result.achieved_mhz
        self.blocks["risc_dsp"] = result.netlist
        self._cpu_macro = result.macro
        return result

    # -- stage 3 ---------------------------------------------------------

    def assemble(self):
        """Materialise every digital block and collect SoC statistics."""
        total_area = 0.0
        materialised = 0
        for index, ip in enumerate(self.catalog):
            if ip.is_analog or ip.gate_budget == 0:
                continue
            if ip.name in self.blocks:
                block = self.blocks[ip.name]
            else:
                gates = max(60, int(ip.gate_budget * self.scale))
                block = block_from_budget(
                    ip.name, self.library, gate_budget=gates,
                    seed=self.seed + index,
                )
                self.blocks[ip.name] = block
            stats = collect_stats(block)
            scale_up = ip.gate_budget / max(block.gate_count, 1)
            total_area += stats.total_area_um2 * scale_up
            materialised += block.gate_count
        self.report.soc_gate_budget = self.catalog.total_gate_budget
        self.report.soc_materialised_gates = materialised
        self.report.soc_memory_macros = self.catalog.total_memory_macros
        self.report.soc_stdcell_area_mm2 = total_area / 1e6
        self.database.commit(
            self.blocks["risc_dsp"], ChangeKind.SPEC_CHANGE,
            "initial assembled netlist (CPU block shown)",
        )
        return dict(self.blocks)

    # -- stage 3c --------------------------------------------------------

    def lint_gate(self):
        """Static design-rule sign-off over the assembled database.

        Runs every :mod:`repro.lint` rule family across the
        materialised block netlists plus the transaction-level SoC
        memory map -- the no-simulation checks that gate the flow
        before verification and DFT spend cycles on a broken design.

        Returns ``(payloads, soc_report)``: the per-block
        ``lint_gate`` payloads and the memory-map :class:`LintReport`.
        """
        from ..lint import Severity, run_lint
        from ..lint.dsc import DSC_BUS_BINDING
        from ..soc import DscSoc

        payloads = self._block_payloads("lint_gate")
        soc_report = run_lint(
            soc=DscSoc(), catalog=self.catalog, binding=DSC_BUS_BINDING,
            design="dsc_controller",
        )

        def total(key: str) -> int:
            return sum(p[key] for p in payloads.values())

        self.report.lint_errors = len(soc_report.errors) + total("errors")
        self.report.lint_warnings = (
            soc_report.count(Severity.WARNING) + total("warnings")
        )
        self.report.lint_waived = len(soc_report.waived) + total("waived")
        if self.report.lint_errors:
            self.report.notes.append(
                f"lint gate: {self.report.lint_errors} unwaived errors"
            )
        return payloads, soc_report

    # -- stage 3d --------------------------------------------------------

    def analyze(self):
        """Abstract-interpretation pass over the assembled database.

        Runs the dataflow-engine rule families of :mod:`repro.analysis`
        (constant propagation, dead logic, dialect divergence,
        zero-delay races) over every materialised block.  Divergence
        findings here are exactly the sites the dual-dialect
        regression of :meth:`verify` could trip over, so this stage
        runs before simulation spends cycles on them.

        Returns the per-block ``analyze`` payloads.
        """
        payloads = self._block_payloads("analyze")

        def total(category: str) -> int:
            return sum(p["by_category"].get(category, 0)
                       for p in payloads.values())

        self.report.analysis_divergent_outputs = sum(
            p["divergent_outputs"] for p in payloads.values()
        )
        self.report.analysis_race_findings = total("race")
        self.report.analysis_const_findings = total("const")
        self.report.analysis_dead_findings = total("dead")
        if self.report.analysis_divergent_outputs:
            self.report.notes.append(
                f"analysis: {self.report.analysis_divergent_outputs} "
                f"outputs can diverge between simulator dialects"
            )
        return payloads

    # -- stage 3e --------------------------------------------------------

    def verify_props(self):
        """Bounded model checking of auto-derived properties (S6).

        Properties are derived from analysis facts (constant nets,
        one-hot rings, reset-assured synchronizer settling) on every
        block up to :data:`BMC_MAX_GATES` gates, then checked to
        :data:`BMC_DEPTH` frames by :func:`repro.formal.check_properties`.
        The SoC memory map additionally gets the pure-CNF bus-window
        exclusivity proof -- the formal twin of the structural ``MAP``
        rules.  The settings keep the lifecycle run shallow: the
        X-aware unroller folds the reset-settle proofs away while it
        encodes, so the cost is encoding, which grows with frames x
        gates.

        Returns ``(reports, bus_result)``.  ``reports`` maps each
        block with checked properties to its live
        :class:`~repro.formal.BmcReport` when this run computed it,
        or to its cached ``verify_props`` payload on a store hit.
        """
        from ..formal import check_bus_exclusivity
        from ..service.stages import bmc_payload, check_block_props
        from ..soc import DscSoc

        config = {"depth": BMC_DEPTH, "seed": int(self.seed)}
        live: dict[str, Any] = {}

        def check(name: str) -> dict[str, Any]:
            live[name] = check_block_props(self.blocks[name], config)
            return bmc_payload(live[name])

        reports: dict[str, Any] = {}
        for name in self._block_names():
            gates = self.blocks[name].gate_count
            if gates > BMC_MAX_GATES:
                self.report.notes.append(
                    f"verify_props: {name} skipped "
                    f"({gates} gates > {BMC_MAX_GATES})"
                )
                continue
            payload = self._block_payload(
                "verify_props", name, config, lambda: check(name),
            )
            if not payload["checked"]:
                continue
            reports[name] = live.get(name, payload)
            counts = payload["counts"]
            self.report.props_checked += payload["checked"]
            self.report.props_proven += counts["proven"]
            self.report.props_falsified += counts["falsified"]
            self.report.props_covered += counts["covered"]
            self.report.props_unreachable += counts["unreachable"]
            self.report.props_vacuous += counts["vacuous"]
        self.report.bmc_depth = BMC_DEPTH

        bus_result = check_bus_exclusivity(DscSoc().bus)
        self.report.bus_windows_exclusive = bus_result.exclusive
        if self.report.props_falsified:
            self.report.notes.append(
                f"verify_props: {self.report.props_falsified} assert "
                f"properties falsified by BMC"
            )
        return reports, bus_result

    # -- stage 4 ---------------------------------------------------------

    def verify(self):
        """Regression + cross-simulator consistency on the
        representative block.

        A store unit keyed on the block's fingerprint, the seed,
        :data:`REGRESSION_BENCHES` and :data:`REGRESSION_CYCLES`.
        Returns the live cross-simulator report when this run computed
        it, or the cached payload on a store hit.
        """
        representative = self._representative_block()

        def compute() -> tuple[dict[str, Any], Any]:
            benches = []
            for index in range(REGRESSION_BENCHES):
                stim = random_stimulus(representative,
                                       cycles=REGRESSION_CYCLES,
                                       seed=self.seed + index)
                benches.append(
                    Testbench(
                        name=f"random_{index}",
                        stimulus=stim,
                        checker=lambda cycle, outs: None,  # traces only
                    )
                )
            # workers=1: the lambda checker cannot pickle into a pool.
            cross = cross_simulator_check(representative, benches,
                                          workers=1)
            return {
                "regression_total": len(benches),
                "regression_pass": cross.report_a.passed,
                "cross_sim_consistent": cross.consistent,
            }, cross

        return self._stage_unit(
            "verify", (representative.fingerprint(),),
            {"benches": REGRESSION_BENCHES, "cycles": REGRESSION_CYCLES},
            compute,
        )

    # -- stage 5 ---------------------------------------------------------

    def insert_dft(self):
        """Scan insertion + ATPG on the representative block; MBIST
        plan over the 30 memory macros."""
        representative = self._representative_block()
        scanned, scan_report = insert_scan(representative, n_chains=2)
        self.blocks[representative.name] = scanned
        atpg = run_atpg(scanned, seed=self.seed,
                        max_random_patterns=ATPG_RANDOM_PATTERNS)
        self.report.fault_coverage = atpg.coverage

        generator = BistGenerator(self.library)
        plan = generator.plan(dsc_memory_set(), sharing="shared")
        self.report.mbist_controllers = plan.controllers
        self.report.mbist_pattern_generators = plan.pattern_generators
        return atpg, plan

    # -- stage 6 ---------------------------------------------------------

    def implement(self):
        """Floorplan, place, route, CTS and STA-signoff.

        A store unit keyed on the scanned representative block's
        fingerprint, the seed, ``target_mhz``, the standard-cell area
        and CPU macro outline it floorplans with, and
        :data:`PLACER_ITERATIONS`.  Returns the live ``(floorplan,
        placement_report, routing, cts, sta)`` when this run computed
        them, or the cached payload on a store hit.
        """
        representative = self._representative_block()
        cpu_macro = getattr(self, "_cpu_macro",
                            HardMacro.from_area("risc_dsp", 6.5e6))
        stdcell_area_um2 = float(
            self.report.soc_stdcell_area_mm2 * 1e6 or 8.0e6
        )

        def compute() -> tuple[dict[str, Any], Any]:
            memories = dsc_memory_set()
            macros = [HardMacro.from_area(m.name, m.area_um2)
                      for m in memories]
            macros.append(cpu_macro)
            floorplan = build_floorplan(
                stdcell_area_um2=stdcell_area_um2, macros=macros,
            )
            placer = AnnealingPlacer(representative, seed=self.seed)
            constraints = TimingConstraints(
                clock_period_ps=1e6 / self.target_mhz
            )
            placement, placement_report = placer.place(
                iterations=PLACER_ITERATIONS,
                timing_constraints=constraints,
            )
            router = GlobalRouter(representative, placement,
                                  edge_capacity=16)
            routing = router.route_all()
            _, cts = build_clock_tree(representative, placement)
            caps = placer.wire_caps_ff(placement)
            sta = TimingAnalyzer(
                representative, constraints, net_wire_cap_ff=caps
            ).analyze()
            return {
                "die_area_mm2": floorplan.die_area_mm2,
                "routing_clean": routing.clean,
                "clock_skew_ps": cts.skew_ps,
                "sta_setup_clean": sta.setup_clean,
                "max_frequency_mhz": sta.max_frequency_mhz,
            }, (floorplan, placement_report, routing, cts, sta)

        return self._stage_unit(
            "implement", (representative.fingerprint(),),
            {
                "target_mhz": float(self.target_mhz),
                "stdcell_area_um2": stdcell_area_um2,
                "cpu_macro_um": [cpu_macro.width_um, cpu_macro.height_um],
                "placer_iterations": PLACER_ITERATIONS,
            },
            compute,
        )

    # -- stage 7 ---------------------------------------------------------

    def package_design(self):
        """Optimise the pin assignment down to a 2-layer substrate.

        A store unit keyed on the seed and :data:`PACKAGE_ITERATIONS`.
        Returns the live ``(optimized, opt_report)`` when this run
        computed them, or the cached payload on a store hit.
        """

        def compute() -> tuple[dict[str, Any], Any]:
            package = tfbga256()
            ring = dsc_pad_ring()
            initial = scrambled_assignment(package, ring, seed=self.seed)
            layers_initial = estimate_layers(initial)
            optimized, opt_report = optimize_assignment(
                initial, iterations=PACKAGE_ITERATIONS, seed=self.seed,
                initial_temperature=0.3,
            )
            return {
                "substrate_layers_initial": layers_initial,
                "substrate_layers_final": estimate_layers(optimized),
            }, (optimized, opt_report)

        return self._stage_unit(
            "package_design", (), {"iterations": PACKAGE_ITERATIONS},
            compute,
        )

    # -- stage 8 ---------------------------------------------------------

    def tapeout(self):
        """Spare cells in, formal sign-off, final database commit.

        The spare cells go into the representative block in place and
        the database commit happens on every run.  The CPU burn-in
        verdict (keyed on the fingerprints of the committed and the
        current CPU netlist and :data:`BURN_IN_CYCLES`) and the project
        simulation (keyed on the seed) are one store unit.  Returns the
        live ``(formal, project)`` when this run computed them, or the
        cached payload on a store hit.
        """
        representative = self._representative_block()
        golden = self.database.head
        self._spare_plan = sprinkle_spare_cells(
            representative, count=SPARE_CELLS
        )
        self.report.spare_cells = self._spare_plan.available
        cpu = self.blocks["risc_dsp"]

        def compute() -> tuple[dict[str, Any], Any]:
            formal = check_sequential_burn_in(golden, cpu,
                                              cycles=BURN_IN_CYCLES)
            project = simulate_project(seed=self.seed)
            return {
                "formal_clean": formal.equivalent,
                "project_months": project.duration_months,
                "changes_absorbed": project.changes_absorbed,
            }, (formal, project)

        result = self._stage_unit(
            "tapeout", (golden.fingerprint(), cpu.fingerprint()),
            {"cycles": BURN_IN_CYCLES}, compute,
        )
        self.database.commit(
            representative, ChangeKind.NETLIST_ECO,
            "tapeout database with spare cells",
        )
        return result

    # -- stage 9 ---------------------------------------------------------

    def produce(self):
        """Qualification, yield ramp, mass production.

        A store unit keyed on the seed and :data:`PRODUCTION_MONTHS`.
        Returns the live ``(qual, ramp, production)`` when this run
        computed them, or the cached payload on a store hit.
        """

        def compute() -> tuple[dict[str, Any], Any]:
            qual = run_qualification(seed=self.seed)
            ramp = simulate_ramp(seed=self.seed)
            initial_yield = ramp.expected_yield[0]
            final_yield = ramp.expected_yield[-1]
            production = simulate_production(
                months=PRODUCTION_MONTHS, ramp=ramp, seed=self.seed
            )
            return {
                "qualification_passed": qual.passed,
                "initial_yield": initial_yield,
                "final_yield": final_yield,
                "units_produced": production.total_units,
                "market_share": production.mean_market_share,
            }, (qual, ramp, production)

        return self._stage_unit(
            "produce", (), {"months": PRODUCTION_MONTHS}, compute,
        )

    # -- capability stages ---------------------------------------------------

    def prototype(self):
        """Stage 3b: virtual prototype before committing to placement."""
        from ..physical import virtual_prototype

        representative = self._representative_block()
        constraints = TimingConstraints(clock_period_ps=1e6 / self.target_mhz)
        proto = virtual_prototype(representative, constraints)
        self.report.prototype_congestion_risk = proto.congestion_risk
        return proto

    def integrate_system(self):
        """Stage 4b: whole-system integration at transaction level."""
        from ..soc import DscSoc

        soc = DscSoc()
        self.report.system_smoke_pass = soc.smoke_test()
        self.report.system_hot_path_cycles = soc.capture_frame(
            frame_words=256
        )
        if soc.bus.error_transactions():
            self.report.notes.append("system integration bus errors!")
        return soc

    def schedule_tests(self):
        """Stage 5b: hierarchical chip-level test scheduling."""
        from ..dft import schedule_block_tests
        from ..ip import dsc_block_test_specs

        schedule = schedule_block_tests(
            dsc_block_test_specs(), tam_width=TAM_WIDTH
        )
        self.report.test_schedule_speedup_vs_flat = (
            schedule.speedup_vs_flat
        )
        return schedule

    def advanced_signoff(self):
        """Stage 6b: SI, DFM and low-power sign-off on the block.

        A store unit keyed on the scanned representative block's
        fingerprint, the seed, ``target_mhz`` and
        :data:`SIGNOFF_PLACER_ITERATIONS`.  Returns the live
        ``(crosstalk, ir, vias, gating, mvt)`` when this run computed
        them, or the cached payload on a store hit.
        """
        representative = self._representative_block()

        def compute() -> tuple[dict[str, Any], Any]:
            from ..si import CrosstalkAnalyzer, PowerGridAnalyzer
            from ..dfm import double_via_insertion
            from ..lowpower import insert_clock_gating, \
                multi_vt_leakage_recovery

            constraints = TimingConstraints(
                clock_period_ps=1e6 / self.target_mhz
            )
            placer = AnnealingPlacer(representative, seed=self.seed)
            placement, _ = placer.place(iterations=SIGNOFF_PLACER_ITERATIONS)

            router = GlobalRouter(representative, placement, edge_capacity=6)
            crosstalk = CrosstalkAnalyzer(
                representative, placement, router
            ).analyze(constraints, min_shared_edges=1)

            grid = PowerGridAnalyzer(representative, placement, activity=0.6)
            grid.insert_decaps(limit_mv=5.0)
            ir = grid.analyze(limit_mv=5.0)

            vias = double_via_insertion(representative, placement)
            _, gating = insert_clock_gating(representative, activity=0.15)
            _, mvt = multi_vt_leakage_recovery(representative, constraints)
            return {
                "crosstalk_pairs": len(crosstalk.pairs),
                "ir_drop_violations": ir.violating_nodes,
                "via_yield_gain": (
                    vias.via_yield_after - vias.via_yield_before
                ),
                "clock_power_saving": gating.clock_power_saving,
                "leakage_saving": mvt.leakage_saving,
            }, (crosstalk, ir, vias, gating, mvt)

        return self._stage_unit(
            "advanced_signoff", (representative.fingerprint(),),
            {
                "target_mhz": float(self.target_mhz),
                "placer_iterations": SIGNOFF_PLACER_ITERATIONS,
            },
            compute,
        )

    # -- helpers -----------------------------------------------------------

    def _representative_block(self) -> Module:
        """The block all physical/DFT experiments run on."""
        if not self.blocks:
            raise RuntimeError("run assemble() (and harden_cpu()) first")
        # Prefer a mid-size block over the CPU for runtime.
        for name in ("lcd_if", "sd_mmc", "sdram_ctrl"):
            if name in self.blocks:
                return self.blocks[name]
        return next(iter(self.blocks.values()))

    def _block_names(self) -> list[str]:
        if not self.blocks:
            raise RuntimeError("run assemble() first")
        return sorted(self.blocks)

    def _block_payload(
        self,
        stage: str,
        name: str,
        config: dict[str, Any],
        compute: Callable[[], dict[str, Any]] | None = None,
    ) -> dict[str, Any]:
        """One block's ``stage`` payload, cached in :attr:`store` under
        the service unit's key.  On a miss the table body -- or
        ``compute``, which must return the same -- runs under
        :attr:`store`, which also keeps the caches it fills."""
        from ..service.stages import STAGE_DEFS, STAGE_VERSION

        module = self.blocks[name]
        body = STAGE_DEFS[stage].body
        with using_store(self.store):
            return self.store.fetch_or_compute(
                f"service.{stage}", STAGE_VERSION, (module.fingerprint(),),
                compute or (lambda: body(module, config)), config,
            )

    def _stage_unit(
        self,
        stage: str,
        fingerprints: tuple[str, ...],
        config: dict[str, Any],
        compute: Callable[[], tuple[dict[str, Any], Any]],
    ) -> Any:
        """Run a design-level stage as a store unit under
        ``flow.<stage>``.

        The key is ``fingerprints`` (the netlists the stage reads), the
        seed and ``config`` (every other setting it reads).
        ``compute`` returns ``(fields, live)``: exactly the
        :class:`FlowReport` fields the stage sets, and the objects it
        returns.  The fields are set from the stored payload, the
        canonical-JSON round trip, on a hit and on a miss alike, so a
        warm run reports what a cold run does.  Returns ``live`` when
        this run computed the stage, else the cached payload.
        """
        live: list[Any] = []

        def fields() -> dict[str, Any]:
            values, result = compute()
            live.append(result)
            # Numpy scalars become Python numbers before the put.
            return {name: value.item() if isinstance(value, np.generic)
                    else value for name, value in values.items()}

        payload = self.store.fetch_or_compute(
            f"flow.{stage}", FLOW_STAGE_VERSION, fingerprints, fields,
            {"seed": int(self.seed), **config},
        )
        for name, value in payload.items():
            setattr(self.report, name, value)
        return live[0] if live else payload

    def _block_payloads(self, stage: str) -> dict[str, dict[str, Any]]:
        """Every block's payload of a config-free stage."""
        return {name: self._block_payload(stage, name, {})
                for name in self._block_names()}

    def run_stage(self, name: str) -> Any:
        """Run one lifecycle stage by name."""
        if name not in FLOW_STAGE_DEFS:
            raise ValueError(f"unknown flow stage {name!r}")
        return getattr(self, name)()

    def run(self) -> FlowReport:
        """Execute the lifecycle along :func:`flow_stage_order`."""
        for name in flow_stage_order():
            self.run_stage(name)
        return self.report
