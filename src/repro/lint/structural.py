"""Structural lint rules: connectivity problems a netlist can carry.

Undriven and unloaded nets, unconnected pins, combinational loops,
multi-driven nets and floating input ports.  All checks are purely
structural -- no simulation, no library timing data.
"""

from __future__ import annotations

from ..netlist.netlist import Module, NetlistError
from .core import Finding, Rule, Severity, register


@register("STR-001", Severity.ERROR, "structural",
          "net has loads but no driver")
def check_undriven_nets(rule: Rule, module: Module) -> list[Finding]:
    """A loaded net with neither an instance driver nor an input port
    floats -- in silicon it is an X generator (see ``X-002``)."""
    findings = []
    for net in module.nets.values():
        if not net.is_driven and net.fanout > 0:
            findings.append(rule.finding(
                module.name, net.name,
                f"net {net.name!r} has loads but no driver",
            ))
    return findings


@register("STR-002", Severity.WARNING, "structural",
          "net is driven but unloaded")
def check_unloaded_nets(rule: Rule, module: Module) -> list[Finding]:
    """Driven-but-unloaded nets are dead logic (spare-cell outputs are
    intentionally uncommitted and exempt)."""
    findings = []
    for net in module.nets.values():
        if net.is_driven and net.fanout == 0:
            if net.driver is not None and \
                    module.instances[net.driver.instance].cell.is_spare:
                continue
            findings.append(rule.finding(
                module.name, net.name,
                f"net {net.name!r} is driven but unloaded",
            ))
    return findings


@register("STR-003", Severity.ERROR, "structural",
          "instance pin unconnected")
def check_unconnected_pins(rule: Rule, module: Module) -> list[Finding]:
    """Every declared cell pin must map to a net."""
    findings = []
    for inst in module.instances.values():
        for pin in inst.cell.pins:
            if pin.name not in inst.connections:
                findings.append(rule.finding(
                    module.name, f"{inst.name}.{pin.name}",
                    f"instance {inst.name} pin {pin.name} unconnected",
                ))
    return findings


@register("STR-004", Severity.ERROR, "structural",
          "combinational loop")
def check_combinational_loops(rule: Rule, module: Module) -> list[Finding]:
    """Reports the actual instance cycle, not just that one exists.

    The module's cached topological order proves it loop-free; only a
    module that order rejects is searched for the cycle.
    """
    try:
        module.topological_combinational_order()
        return []
    except NetlistError:
        cycle = module.find_combinational_cycle()
    if cycle is None:  # pragma: no cover - the order only fails on a loop
        return []
    path = " -> ".join(cycle + [cycle[0]])
    return [rule.finding(
        module.name, "->".join(cycle),
        f"combinational loop in module {module.name}: {path}",
    )]


@register("STR-005", Severity.ERROR, "structural",
          "net has multiple drivers")
def check_multi_driven_nets(rule: Rule, module: Module) -> list[Finding]:
    """The IR holds one instance driver per net, so the representable
    contention is an instance output shorted onto an input-port net --
    exactly the bug hand-edited or imported netlists carry."""
    findings = []
    for net in module.nets.values():
        if net.driver is not None and net.driver_port is not None:
            findings.append(rule.finding(
                module.name, net.name,
                f"net {net.name!r} driven by both input port"
                f" {net.driver_port!r} and instance pin {net.driver}",
            ))
    return findings


@register("STR-006", Severity.WARNING, "structural",
          "floating input port")
def check_floating_inputs(rule: Rule, module: Module) -> list[Finding]:
    """An input port that drives nothing is dead interface -- usually a
    mis-binding at the next level up (width/direction misuse)."""
    findings = []
    for port in module.ports.values():
        if port.direction != "input":
            continue
        if module.nets[port.name].fanout == 0:
            findings.append(rule.finding(
                module.name, port.name,
                f"input port {port.name!r} is floating (no loads)",
            ))
    return findings
