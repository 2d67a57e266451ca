"""Clock and reset domain inference from netlist structure.

No constraints file exists in this flow, so domains are inferred the
way structural lint tools bootstrap them: every sequential element's
clock (and reset) pin is traced to its *root* by
:func:`repro.netlist.trace_control_source`, and two flops share a
clock domain iff their traces reach the same root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netlist.clocks import SourceTrace, trace_control_source
from ..netlist.netlist import Module


@dataclass
class DomainMap:
    """Per-flop control-source traces plus the domain partition."""

    #: flop instance name -> trace of its clock (or reset) net.
    trace_of: dict[str, SourceTrace] = field(default_factory=dict)

    @property
    def domain_of(self) -> dict[str, str]:
        return {name: trace.domain for name, trace in self.trace_of.items()}

    @property
    def domains(self) -> dict[str, tuple[str, ...]]:
        """Domain label -> sorted flop names."""
        grouped: dict[str, list[str]] = {}
        for name, trace in self.trace_of.items():
            grouped.setdefault(trace.domain, []).append(name)
        return {label: tuple(sorted(members))
                for label, members in sorted(grouped.items())}

    @property
    def n_domains(self) -> int:
        return len(self.domains)


def infer_clock_domains(module: Module) -> DomainMap:
    """Clock-domain partition over every sequential instance."""
    result = DomainMap()
    for inst in module.sequential_instances:
        clock_pin = inst.cell.clock_pin
        if clock_pin is None:  # level-sensitive latch: no clock to trace
            continue
        result.trace_of[inst.name] = trace_control_source(
            module, inst.net_of(clock_pin)
        )
    return result


def infer_reset_domains(module: Module) -> DomainMap:
    """Reset-domain partition over the resettable flops."""
    result = DomainMap()
    for inst in module.sequential_instances:
        reset_pin = inst.cell.reset_pin
        if reset_pin is None:
            continue
        result.trace_of[inst.name] = trace_control_source(
            module, inst.net_of(reset_pin)
        )
    return result
