"""Scan design rules and scan insertion.

Replaces every plain flip-flop in a module with its scan-equivalent
cell and stitches the scan flops into shift chains, adding the scan
ports of :mod:`repro.netlist.clocks` (``scan_en``, ``scan_in<k>``,
``scan_out<k>``).  This mirrors the paper's Section-3 flow step
"after scan insertion, the fault coverage was 93%".

The scan design rules of the paper's S5 gate live here, next to the
replacement map they check: ``SCAN-001`` an async reset ATPG cannot
hold off in capture, ``SCAN-002`` a gated or derived clock,
``SCAN-003`` a cell with no scan equivalent, ``SCAN-004`` a latch in
the scan path.  :func:`insert_scan` gates on them, and the lint layer
reports the same violations as findings.  Insertion works on a copy,
so the functional netlist is preserved for equivalence checking (scan
insertion must be formally transparent when ``scan_en`` is low).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Protocol

from ..netlist import Logic, Module
from ..netlist.clocks import (
    CLOCK_PORT, SCAN_ENABLE, SCAN_IN, SCAN_OUT, trace_control_source,
)

if TYPE_CHECKING:
    from ..sim import LogicSimulator

#: Functional flop -> scan flop replacement map.
_SCAN_EQUIVALENT = {"DFF": "SDFF", "DFFR": "SDFFR"}

#: One scan design-rule violation: ``(rule id, instance, message)``.
ScanViolation = tuple[str, str, str]


class _Placement(Protocol):
    """Anything that can report instance coordinates (the physical
    package's Placement, or any stand-in with the same method)."""

    def position_um(self, instance: str) -> tuple[float, float]:
        ...


class ScanDrcError(ValueError):
    """Scan design-rule violations block insertion.

    Subclasses :class:`ValueError` so pre-DRC callers' error handling
    keeps working.  Carries the offending :data:`ScanViolation` tuples.
    """

    def __init__(
        self, module_name: str, violations: Iterable[ScanViolation]
    ) -> None:
        self.violations = list(violations)
        details = "; ".join(message for _, _, message
                            in self.violations[:5])
        extra = len(self.violations) - 5
        if extra > 0:
            details += f" (+{extra} more)"
        super().__init__(
            f"scan DRC failed for module {module_name}: {details}"
        )


def reset_controllability_violations(
    module: Module,
) -> list[ScanViolation]:
    """``SCAN-001``: async resets driven by logic, a flop or a tie
    that holds them active."""
    violations = []
    for inst in module.sequential_instances:
        reset_pin = inst.cell.reset_pin
        if reset_pin is None:
            continue
        trace = trace_control_source(module, inst.net_of(reset_pin))
        if trace.kind == "port" and not trace.through_gate:
            continue
        if trace.kind == "tie":
            # Active-low reset tied high is permanently inactive: fine.
            tied = module.instances[trace.root].cell.name
            if (tied == "TIEHI") != trace.inverted:
                continue
            why = f"reset tied active through {trace.root}"
        elif trace.kind == "flop":
            why = f"reset generated by flop {trace.root}"
        else:
            why = (f"reset derived from combinational logic"
                   f" at {trace.root}")
        violations.append((
            "SCAN-001", inst.name,
            f"async reset of flop {inst.name} is not primary-input"
            f" controllable in capture: {why}",
        ))
    return violations


def scan_clock_violations(module: Module) -> list[ScanViolation]:
    """``SCAN-002``: gated or derived clocks; scan shift needs a
    directly controllable one."""
    violations = []
    for inst in module.sequential_instances:
        clock_pin = inst.cell.clock_pin
        if clock_pin is None:
            continue  # latch: SCAN-004's business
        trace = trace_control_source(module, inst.net_of(clock_pin))
        if trace.kind == "port" and not trace.through_gate:
            continue
        if trace.through_gate:
            why = (f"clock gated through ICG"
                   f" {trace.path[0] if trace.path else '?'}")
        else:
            why = f"clock rooted at {trace.kind} {trace.root}"
        violations.append((
            "SCAN-002", inst.name,
            f"flop {inst.name}: {why} blocks scan shift",
        ))
    return violations


def scan_equivalent_violations(module: Module) -> list[ScanViolation]:
    """``SCAN-003``: flops that are neither scan cells nor in the
    replacement map (latches are SCAN-004's)."""
    return [
        ("SCAN-003", inst.name,
         f"no scan equivalent for cell {inst.cell.name}"
         f" (instance {inst.name})")
        for inst in module.sequential_instances
        if not inst.cell.is_latch and inst.cell.scan_in_pin is None
        and inst.cell.name not in _SCAN_EQUIVALENT
    ]


def latch_violations(module: Module) -> list[ScanViolation]:
    """``SCAN-004``: level-sensitive latches in the scan path."""
    return [
        ("SCAN-004", inst.name,
         f"level-sensitive latch {inst.name} ({inst.cell.name})"
         f" in scan path")
        for inst in module.sequential_instances if inst.cell.is_latch
    ]


def scan_drc_violations(module: Module) -> list[ScanViolation]:
    """Every scan design-rule violation, ``SCAN-001`` first."""
    return [*reset_controllability_violations(module),
            *scan_clock_violations(module),
            *scan_equivalent_violations(module),
            *latch_violations(module)]


@dataclass(frozen=True)
class ScanChain:
    """One stitched scan chain: ordered flop instance names."""

    index: int
    scan_in_port: str
    scan_out_port: str
    flops: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.flops)


@dataclass
class ScanReport:
    """Result of scan insertion."""

    module_name: str
    chains: list[ScanChain] = field(default_factory=list)
    replaced_flops: int = 0
    already_scan: int = 0
    area_overhead_um2: float = 0.0

    @property
    def total_scan_flops(self) -> int:
        return sum(len(c) for c in self.chains)

    @property
    def max_chain_length(self) -> int:
        return max((len(c) for c in self.chains), default=0)


def insert_scan(
    module: Module,
    *,
    n_chains: int = 1,
    chain_order: list[str] | None = None,
) -> tuple[Module, ScanReport]:
    """Swap flops for scan flops and stitch ``n_chains`` chains.

    ``chain_order`` optionally fixes the global flop ordering (e.g. a
    placement-aware order from :mod:`repro.physical`); default is
    name order, which is deterministic.

    The scan design rules gate insertion: uncontrollable resets, gated
    clocks, latches and missing scan equivalents raise
    :class:`ScanDrcError` up front instead of failing mid-rewrite.

    Returns the scanned copy of ``module`` and a :class:`ScanReport`.
    """
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    if SCAN_ENABLE in module.ports:
        raise ValueError(
            f"module {module.name} already contains scan infrastructure"
        )
    scanned = module.copy(module.name + "_scan")
    report = ScanReport(module_name=scanned.name)

    flop_names = [inst.name for inst in scanned.sequential_instances]
    if chain_order is not None:
        missing = set(flop_names) - set(chain_order)
        if missing:
            raise ValueError(f"chain_order missing flops: {sorted(missing)[:5]}")
        flop_names = [n for n in chain_order if n in set(flop_names)]
    else:
        flop_names = sorted(flop_names)
    if not flop_names:
        raise ValueError(f"module {module.name} has no flip-flops to scan")

    violations = scan_drc_violations(module)
    if violations:
        raise ScanDrcError(module.name, violations)

    area_before = scanned.total_area_um2
    scanned.add_port(SCAN_ENABLE, "input")

    # Pass 1: replace every functional flop with its scan equivalent;
    # the DRC passed, so every other flop is already a scan cell.
    scan_flops: list[str] = []
    for name in flop_names:
        inst = scanned.instances[name]
        cell_name = inst.cell.name
        if cell_name in _SCAN_EQUIVALENT:
            connections = dict(inst.connections)
            scanned.remove_instance(name)
            connections["SE"] = SCAN_ENABLE
            connections["SI"] = f"__si_{name}"  # stitched in pass 2
            scanned.add_instance(name, _SCAN_EQUIVALENT[cell_name], connections)
            report.replaced_flops += 1
        else:
            report.already_scan += 1
        scan_flops.append(name)

    # Pass 2: stitch chains of balanced length.
    per_chain = (len(scan_flops) + n_chains - 1) // n_chains
    for chain_index in range(n_chains):
        members = scan_flops[chain_index * per_chain:(chain_index + 1) * per_chain]
        if not members:
            break
        si_port = f"{SCAN_IN}{chain_index}"
        so_port = f"{SCAN_OUT}{chain_index}"
        scanned.add_port(si_port, "input")
        scanned.add_port(so_port, "output")
        previous_q = si_port
        for name in members:
            scanned.rewire_pin(name, "SI", previous_q)
            previous_q = scanned.instances[name].net_of("Q")
        scanned.add_instance(
            f"__so_buf{chain_index}", "BUF_X2", {"A": previous_q, "Y": so_port}
        )
        report.chains.append(
            ScanChain(chain_index, si_port, so_port, tuple(members))
        )

    # Drop the placeholder SI nets left over from pass 1.
    for name in list(scanned.nets):
        if name.startswith("__si_") and not scanned.nets[name].is_driven \
                and scanned.nets[name].fanout == 0:
            del scanned.nets[name]

    report.area_overhead_um2 = scanned.total_area_um2 - area_before
    return scanned, report


def shift_in(
    sim: LogicSimulator,
    chain: ScanChain,
    bits: list[Logic],
    *,
    clock_port: str = CLOCK_PORT,
) -> None:
    """Shift a vector into a chain (LSB enters first, ends at the
    chain tail), leaving ``scan_en`` asserted."""
    if len(bits) != len(chain):
        raise ValueError(f"need {len(chain)} bits, got {len(bits)}")
    sim.set_input(SCAN_ENABLE, Logic.ONE)
    for bit in reversed(bits):
        sim.set_input(chain.scan_in_port, bit)
        sim.clock_edge(clock_port)


def shift_out(
    sim: LogicSimulator,
    chain: ScanChain,
    *,
    clock_port: str = CLOCK_PORT,
) -> list[Logic]:
    """Shift the chain contents out, returning head-to-tail values."""
    sim.set_input(SCAN_ENABLE, Logic.ONE)
    sim.set_input(chain.scan_in_port, Logic.ZERO)
    observed: list[Logic] = []
    for _ in range(len(chain)):
        observed.append(sim.read(chain.scan_out_port))
        sim.clock_edge(clock_port)
    observed.reverse()
    return observed


def placement_aware_chain_order(
    module: Module, placement: _Placement
) -> list[str]:
    """Order flops by a greedy nearest-neighbour tour over placement.

    Scan stitching in name order zig-zags across the die; re-ordering
    along a short tour cuts the scan-routing wirelength substantially
    (the "hierarchical DFT and physical implementation" coupling of
    Section 4).  Pass the result as ``chain_order`` to
    :func:`insert_scan`.
    """
    flops = [f.name for f in module.sequential_instances]
    if not flops:
        return []
    remaining = set(flops)
    # Start at the lowest-left flop.
    current = min(remaining, key=lambda n: placement.position_um(n))
    order = [current]
    remaining.discard(current)
    while remaining:
        cx, cy = placement.position_um(current)
        current = min(
            remaining,
            key=lambda n: (
                (placement.position_um(n)[0] - cx) ** 2
                + (placement.position_um(n)[1] - cy) ** 2
            ),
        )
        order.append(current)
        remaining.discard(current)
    return order


def chain_wirelength_um(
    order: list[str], placement: _Placement
) -> float:
    """Total stitch length of a chain order under a placement."""
    total = 0.0
    for a, b in zip(order, order[1:]):
        ax, ay = placement.position_um(a)
        bx, by = placement.position_um(b)
        total += abs(ax - bx) + abs(ay - by)
    return total


def chain_integrity_test(
    sim: LogicSimulator,
    chain: ScanChain,
    *,
    clock_port: str = CLOCK_PORT,
) -> bool:
    """Flush a 00110011... pattern through the chain and check it
    emerges intact -- the standard scan-chain integrity test."""
    pattern = [Logic((i >> 1) & 1) for i in range(len(chain))]
    shift_in(sim, chain, pattern, clock_port=clock_port)
    observed = shift_out(sim, chain, clock_port=clock_port)
    return observed == pattern
