"""IP catalogue: sources, deliverables, quality and integration risk.

Section 2 of the paper lists the DSC controller's IP inventory and the
distinct headache each source caused: the hybrid RISC/DSP was a legacy
stand-alone chip that had to be hardened; the USB 1.1 and SD
controllers arrived as third-party VHDL (one of them FPGA-targeted,
with no robust synthesis script, needing "over 10 versions of RTL code
modification"); the JPEG codec came from a university laboratory and
needed industrial hardening; analogue blocks came from the foundry.

The catalogue model quantifies that experience: each block carries its
source, language, deliverable checklist and silicon history, from
which a maturity score and an expected number of integration revision
cycles are derived (experiment E14), and the chip's per-block test
plan for :mod:`repro.dft.hierarchical` (:func:`dsc_block_test_specs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..dft.hierarchical import BlockTestSpec
from ..mbist import MARCH_C_MINUS, dsc_memory_set


class IpSource(Enum):
    """Where an IP block came from (Section 2's sourcing mix)."""

    IN_HOUSE = "in_house"
    THIRD_PARTY = "third_party"
    UNIVERSITY = "university"
    LEGACY_CHIP = "legacy_chip"
    FOUNDRY = "foundry"


class HdlLanguage(Enum):
    """Delivery format of an IP (drives the integration effort)."""

    VERILOG = "verilog"
    VHDL = "vhdl"
    FPGA_TARGETED_RTL = "fpga_rtl"
    NETLIST_HARD = "hard_macro"
    ANALOG = "analog"


class Deliverable(Enum):
    """One item of an IP hand-off package."""

    RTL = "rtl"
    SYNTHESIS_SCRIPT = "synthesis_script"
    SIMULATION_MODEL = "simulation_model"
    TEST_MODEL = "test_model"
    TIMING_MODEL = "timing_model"
    TESTBENCH = "testbench"
    DOCUMENTATION = "documentation"
    LAYOUT = "layout"


#: Deliverables a soft IP must ship with to integrate friction-free.
SOFT_IP_CHECKLIST = (
    Deliverable.RTL,
    Deliverable.SYNTHESIS_SCRIPT,
    Deliverable.SIMULATION_MODEL,
    Deliverable.TESTBENCH,
    Deliverable.DOCUMENTATION,
)

#: Hard/analog IP checklist.
HARD_IP_CHECKLIST = (
    Deliverable.LAYOUT,
    Deliverable.TIMING_MODEL,
    Deliverable.SIMULATION_MODEL,
    Deliverable.TEST_MODEL,
    Deliverable.DOCUMENTATION,
)


@dataclass
class IpBlock:
    """One IP block and everything integration cares about."""

    name: str
    function: str
    source: IpSource
    language: HdlLanguage
    gate_budget: int
    is_hard: bool = False
    is_analog: bool = False
    memory_macros: int = 0
    silicon_proven: bool = False
    deliverables: frozenset[Deliverable] = frozenset()
    drc_violations: int = 0
    known_bugs: int = 0

    @property
    def checklist(self) -> tuple[Deliverable, ...]:
        return HARD_IP_CHECKLIST if (self.is_hard or self.is_analog) \
            else SOFT_IP_CHECKLIST

    @property
    def deliverable_completeness(self) -> float:
        """Fraction of the applicable checklist actually delivered."""
        required = self.checklist
        have = sum(1 for d in required if d in self.deliverables)
        return have / len(required)

    def missing_deliverables(self) -> list[Deliverable]:
        return [d for d in self.checklist if d not in self.deliverables]

    @property
    def maturity_score(self) -> float:
        """0..1 integration readiness.

        Completeness dominates; silicon history and a native-flow
        language add the rest; known DRC/bug debt subtracts.
        """
        score = 0.55 * self.deliverable_completeness
        score += 0.25 if self.silicon_proven else 0.0
        if self.language in (HdlLanguage.VERILOG, HdlLanguage.NETLIST_HARD,
                             HdlLanguage.ANALOG):
            score += 0.20
        elif self.language is HdlLanguage.VHDL:
            score += 0.12  # mixed-language sim environment needed
        else:  # FPGA-targeted RTL: re-targeting work guaranteed
            score += 0.0
        score -= min(0.15, 0.01 * self.drc_violations)
        score -= min(0.15, 0.03 * self.known_bugs)
        return max(0.0, min(1.0, score))

    @property
    def expected_revision_cycles(self) -> float:
        """Mean RTL/constraint revision iterations to integrate.

        Calibrated so a complete silicon-proven Verilog IP costs ~1
        cycle and the paper's FPGA-targeted USB core with no synthesis
        script costs ~10.
        """
        return 1.0 + 14.0 * (1.0 - self.maturity_score) ** 2

    def sample_revision_cycles(self, rng: np.random.Generator) -> int:
        """Draw an integration outcome (geometric-ish around the mean)."""
        mean_extra = max(self.expected_revision_cycles - 1.0, 1e-6)
        return 1 + int(rng.poisson(mean_extra))


@dataclass
class IpCatalog:
    """The SoC's IP inventory."""

    blocks: list[IpBlock] = field(default_factory=list)

    def add(self, block: IpBlock) -> IpBlock:
        if any(b.name == block.name for b in self.blocks):
            raise ValueError(f"duplicate IP {block.name}")
        self.blocks.append(block)
        return block

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def get(self, name: str) -> IpBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise KeyError(f"no IP named {name!r}")

    @property
    def total_gate_budget(self) -> int:
        return sum(b.gate_budget for b in self.blocks)

    @property
    def total_memory_macros(self) -> int:
        return sum(b.memory_macros for b in self.blocks)

    def digital_blocks(self) -> list[IpBlock]:
        """Synthesisable digital blocks -- the netlist/bus audit surface
        (analogue and zero-budget blocks have no gates to lint)."""
        return [b for b in self.blocks
                if not b.is_analog and b.gate_budget > 0]

    def riskiest(self, count: int = 3) -> list[IpBlock]:
        return sorted(self.blocks, key=lambda b: b.maturity_score)[:count]

    def format_report(self) -> str:
        lines = [
            f"IP catalogue: {len(self)} blocks, "
            f"{self.total_gate_budget} gates, "
            f"{self.total_memory_macros} memory macros",
            "  name             source        lang      gates   maturity  rev",
        ]
        for block in self.blocks:
            lines.append(
                f"  {block.name:15s}  {block.source.value:12s}"
                f"  {block.language.value:8s}  {block.gate_budget:6d}"
                f"  {block.maturity_score:8.2f}"
                f"  {block.expected_revision_cycles:4.1f}"
            )
        return "\n".join(lines)


def dsc_ip_catalog() -> IpCatalog:
    """The paper's DSC controller IP inventory (Section 2).

    Gate budgets sum to ~240K (excluding memory macros and pads), the
    figure Section 3 reports for the whole controller.
    """
    catalog = IpCatalog()
    full = frozenset
    catalog.add(IpBlock(
        name="risc_dsp",
        function="hybrid RISC/DSP processor (133 MHz, hardened)",
        source=IpSource.LEGACY_CHIP,
        language=HdlLanguage.VERILOG,
        gate_budget=78_000,
        memory_macros=6,  # caches + TCM
        silicon_proven=True,  # as a stand-alone chip
        deliverables=full({Deliverable.RTL, Deliverable.DOCUMENTATION}),
    ))
    catalog.add(IpBlock(
        name="jpeg_codec",
        function="hardwired JPEG encode/decode (3 Mpix @ 0.1 s)",
        source=IpSource.UNIVERSITY,
        language=HdlLanguage.VERILOG,
        gate_budget=52_000,
        memory_macros=8,
        silicon_proven=False,
        deliverables=full({Deliverable.RTL, Deliverable.SIMULATION_MODEL,
                           Deliverable.TESTBENCH}),
    ))
    catalog.add(IpBlock(
        name="usb11",
        function="USB 1.1 device/mini-host + TxRx PHY",
        source=IpSource.THIRD_PARTY,
        language=HdlLanguage.FPGA_TARGETED_RTL,
        gate_budget=17_000,
        memory_macros=2,
        silicon_proven=False,
        deliverables=full({Deliverable.RTL, Deliverable.SIMULATION_MODEL}),
        known_bugs=3,
    ))
    catalog.add(IpBlock(
        name="sd_mmc",
        function="SD/MMC flash card host interface",
        source=IpSource.THIRD_PARTY,
        language=HdlLanguage.VHDL,
        gate_budget=11_000,
        memory_macros=2,
        silicon_proven=True,
        deliverables=full({Deliverable.RTL, Deliverable.SIMULATION_MODEL,
                           Deliverable.TESTBENCH,
                           Deliverable.DOCUMENTATION}),
    ))
    catalog.add(IpBlock(
        name="sdram_ctrl",
        function="SDRAM controller",
        source=IpSource.IN_HOUSE,
        language=HdlLanguage.VERILOG,
        gate_budget=14_000,
        silicon_proven=True,
        deliverables=full(set(SOFT_IP_CHECKLIST)),
    ))
    catalog.add(IpBlock(
        name="image_pipe",
        function="sensor interface + image pipeline",
        source=IpSource.IN_HOUSE,
        language=HdlLanguage.VERILOG,
        gate_budget=34_000,
        memory_macros=6,
        silicon_proven=True,
        deliverables=full(set(SOFT_IP_CHECKLIST)),
    ))
    catalog.add(IpBlock(
        name="lcd_if",
        function="LCD interface controller",
        source=IpSource.IN_HOUSE,
        language=HdlLanguage.VERILOG,
        gate_budget=9_000,
        memory_macros=2,
        silicon_proven=True,
        deliverables=full(set(SOFT_IP_CHECKLIST)),
    ))
    catalog.add(IpBlock(
        name="tv_encoder",
        function="NTSC/PAL TV encoder",
        source=IpSource.IN_HOUSE,
        language=HdlLanguage.VERILOG,
        gate_budget=12_000,
        memory_macros=2,
        silicon_proven=True,
        deliverables=full(set(SOFT_IP_CHECKLIST)),
    ))
    catalog.add(IpBlock(
        name="system_fabric",
        function="bus fabric, DMA, peripherals, glue",
        source=IpSource.IN_HOUSE,
        language=HdlLanguage.VERILOG,
        gate_budget=13_000,
        memory_macros=2,
        silicon_proven=True,
        deliverables=full(set(SOFT_IP_CHECKLIST)),
    ))
    catalog.add(IpBlock(
        name="video_dac10",
        function="10-bit video DAC",
        source=IpSource.FOUNDRY,
        language=HdlLanguage.ANALOG,
        gate_budget=0,
        is_analog=True,
        silicon_proven=True,
        deliverables=full(set(HARD_IP_CHECKLIST)),
        drc_violations=4,  # 'IP quality is less than ideal'
    ))
    catalog.add(IpBlock(
        name="lcd_dac8",
        function="8-bit LCD DAC",
        source=IpSource.FOUNDRY,
        language=HdlLanguage.ANALOG,
        gate_budget=0,
        is_analog=True,
        silicon_proven=True,
        deliverables=full(set(HARD_IP_CHECKLIST)),
        drc_violations=2,
    ))
    catalog.add(IpBlock(
        name="pll_a",
        function="system PLL",
        source=IpSource.FOUNDRY,
        language=HdlLanguage.ANALOG,
        gate_budget=0,
        is_analog=True,
        silicon_proven=True,
        deliverables=full(set(HARD_IP_CHECKLIST)),
    ))
    catalog.add(IpBlock(
        name="pll_b",
        function="video PLL",
        source=IpSource.FOUNDRY,
        language=HdlLanguage.ANALOG,
        gate_budget=0,
        is_analog=True,
        silicon_proven=True,
        deliverables=full(set(HARD_IP_CHECKLIST)),
    ))
    return catalog


def dsc_block_test_specs() -> list[BlockTestSpec]:
    """Test specs for the DSC controller's digital blocks.

    Scan flops ~18% of each block's gate budget; pattern counts sized
    for ~93% coverage of control-dominated logic; MBIST cycles from
    the March C- runs of the block's memories.
    """
    memories = {m.name: m for m in dsc_memory_set()}
    memory_owner = {
        "line_buffer": "image_pipe", "jpeg_block": "jpeg_codec",
        "jpeg_qtable": "jpeg_codec", "jpeg_huff": "jpeg_codec",
        "cpu_icache": "risc_dsp", "cpu_dcache": "risc_dsp",
        "cpu_tcm": "risc_dsp", "usb_fifo": "usb11", "sd_fifo": "sd_mmc",
        "lcd_buffer": "lcd_if", "tv_line": "tv_encoder",
        "misc_reg": "system_fabric",
    }
    mbist_by_block: dict[str, int] = {}
    for name, macro in memories.items():
        prefix = name.rstrip("0123456789")
        owner = memory_owner.get(prefix, "system_fabric")
        mbist_by_block[owner] = (
            mbist_by_block.get(owner, 0)
            + MARCH_C_MINUS.test_cycles(macro.words)
        )

    specs = []
    for ip in dsc_ip_catalog():
        if ip.is_analog or ip.gate_budget == 0:
            continue
        scan_flops = max(8, int(ip.gate_budget * 0.18))
        patterns = max(64, ip.gate_budget // 400)
        specs.append(
            BlockTestSpec(
                name=ip.name,
                scan_flops=scan_flops,
                patterns=patterns,
                mbist_cycles=mbist_by_block.get(ip.name, 0),
                test_power_mw=20.0 + ip.gate_budget / 1000.0,
            )
        )
    return specs
