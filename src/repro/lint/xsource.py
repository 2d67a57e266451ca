"""Static X-source analysis.

The paper's S2 bug class: two simulators disagreed because unknown
(``X``) values were modelled differently, and the divergence was only
caught by running both.  Statically, every X has a *source* -- an
uninitialized flop, an undriven net, a spare cell -- and a *surface*
where it matters: the module outputs.  These rules enumerate the
sources and propagate them through the connectivity graph to the
outputs, without a single simulation cycle.

Rules:

* ``X-001`` -- uninitialized flop (no reset pin): power-on state is X;
* ``X-002`` -- a structural X source (undriven-but-loaded net, spare
  cell output with loads) reaches an output port;
* ``X-003`` -- an uninitialized flop's X can reach an output port
  before reset discipline clears it (the cross-simulator divergence
  surface).
"""

from __future__ import annotations

from ..netlist.netlist import Module
from .core import Finding, Rule, Severity, register


def x_sources(module: Module) -> list[tuple[str, str, str]]:
    """All static X sources as ``(kind, name, net)`` triples.

    ``kind`` is ``"uninit_flop"``, ``"undriven"`` or ``"spare"``; the
    ``net`` is where the X enters the connectivity graph.
    """
    sources: list[tuple[str, str, str]] = []
    for inst in module.sequential_instances:
        if inst.cell.reset_pin is None:
            for pin in inst.cell.output_pins:
                sources.append(("uninit_flop", inst.name, inst.net_of(pin)))
    for inst in module.instances.values():
        if inst.cell.is_spare:
            for pin in inst.cell.output_pins:
                net = inst.net_of(pin)
                if module.nets[net].fanout > 0:
                    sources.append(("spare", inst.name, net))
    for net in module.nets.values():
        if not net.is_driven and net.fanout > 0:
            sources.append(("undriven", net.name, net.name))
    return sources


def reachable_output_ports(module: Module, start_net: str) -> list[str]:
    """Output ports reachable from a net through the structure.

    The walk crosses sequential elements too -- the right model for
    power-on X, which persists across clock edges until overwritten.
    """
    reached: set[str] = set()
    visited: set[str] = set()
    stack = [start_net]
    while stack:
        net_name = stack.pop()
        if net_name in visited:
            continue
        visited.add(net_name)
        net = module.nets[net_name]
        reached.update(net.load_ports)
        for load in net.loads:
            inst = module.instances[load.instance]
            for pin in inst.cell.output_pins:
                stack.append(inst.net_of(pin))
    out_ports = {p.name for p in module.ports.values()
                 if p.direction == "output"}
    return sorted(reached & out_ports)


def _describe(ports: list[str], limit: int = 4) -> str:
    shown = ", ".join(ports[:limit])
    if len(ports) > limit:
        shown += f", ... ({len(ports)} total)"
    return shown


@register("X-001", Severity.WARNING, "xprop", "uninitialized flop")
def check_uninitialized_flops(rule: Rule, module: Module) -> list[Finding]:
    findings = []
    for inst in module.sequential_instances:
        if inst.cell.reset_pin is None:
            findings.append(rule.finding(
                module.name, inst.name,
                f"flop {inst.name} ({inst.cell.name}) has no reset:"
                f" power-on state is X",
            ))
    return findings


@register("X-002", Severity.ERROR, "xprop",
          "structural X source reaches output")
def check_structural_x_to_output(rule: Rule, module: Module) -> list[Finding]:
    findings = []
    for kind, name, net in x_sources(module):
        if kind == "uninit_flop":
            continue
        ports = reachable_output_ports(module, net)
        if ports:
            desc = ("undriven net" if kind == "undriven"
                    else "spare cell output")
            findings.append(rule.finding(
                module.name, name,
                f"X from {desc} {name!r} reaches output port(s):"
                f" {_describe(ports)}",
            ))
    return findings


@register("X-003", Severity.WARNING, "xprop",
          "uninitialized flop X reaches output")
def check_flop_x_to_output(rule: Rule, module: Module) -> list[Finding]:
    findings = []
    for kind, name, net in x_sources(module):
        if kind != "uninit_flop":
            continue
        ports = reachable_output_ports(module, net)
        if ports:
            findings.append(rule.finding(
                module.name, name,
                f"power-on X of flop {name} can reach output port(s)"
                f" {_describe(ports)} -- the cross-simulator"
                f" divergence surface",
            ))
    return findings
