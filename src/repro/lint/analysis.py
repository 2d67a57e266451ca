"""Semantic lint rules backed by the dataflow engine.

Where the structural/CDC/X families pattern-match the netlist, these
rules consume the abstract-interpretation fixpoints of
:mod:`repro.analysis` -- each family is a thin adapter from one
analysis query to :class:`~repro.lint.core.Finding` objects, so
waivers, fingerprints, canonical reports, the CLI and the flow gate
all work unchanged.  The clock-path races are the exception: they
need no fixpoint, and come from the CDC fan-in walk
(:func:`repro.lint.cdc.clock_path_races`).

* ``CONST-001/002`` -- constant propagation: stuck nets and flops that
  can never toggle;
* ``DEAD-001/002``  -- logic proven unobservable at any output, and
  combinational cones computing a proven constant;
* ``DIV-001/002/003`` -- static X-divergence: output ports the two
  simulator dialects can disagree on, mux-select-X policy sites, and
  reconvergent-X sites (each DIV prediction is checkable in real
  simulation via :func:`repro.verification.cross_validate_divergence`);
* ``RACE-001/002/003`` -- zero-delay races: order-sensitive
  multi-driven nets, and same-root flop-to-flop paths through a clock
  gate or with opposite clock parity.

One :func:`repro.analysis.analyze_module` pass is shared by all rules
on a module (it is cached per module), so enabling all four families
costs a single engine run per domain.
"""

from __future__ import annotations

from ..analysis import (
    constant_cones,
    divergent_output_ports,
    multi_driver_races,
    mux_select_x_sites,
    never_toggling_flops,
    reconvergent_x_sites,
    stuck_nets,
    unobservable_instances,
)
from ..analysis.analyses import analyze_module
from ..netlist.netlist import Module
from .cdc import clock_path_races
from .core import Finding, Rule, Severity, register


@register("CONST-001", Severity.WARNING, "const",
          "net is stuck at a constant")
def check_stuck_nets(rule: Rule, module: Module) -> list[Finding]:
    """Constant propagation proved the net frozen at 0 or 1 under any
    binary stimulus; its downstream logic is partially dead."""
    analysis = analyze_module(module)
    return [
        rule.finding(
            module.name, net,
            f"net {net!r} is stuck at {value} under all binary stimulus",
        )
        for net, value in stuck_nets(analysis)
    ]


@register("CONST-002", Severity.WARNING, "const",
          "flop can never toggle")
def check_never_toggling_flops(rule: Rule, module: Module) -> list[Finding]:
    """The flop's reachable state set misses 0 or 1: it can never
    complete a toggle, so it is either redundant or mis-wired."""
    analysis = analyze_module(module)
    return [
        rule.finding(
            module.name, flop,
            f"flop {flop!r} never toggles: reachable states {states}",
        )
        for flop, states in never_toggling_flops(analysis)
    ]


@register("DEAD-001", Severity.WARNING, "dead",
          "logic unobservable at any output")
def check_unobservable(rule: Rule, module: Module) -> list[Finding]:
    """No output port can ever see this instance's value, even across
    clock cycles -- transitively dead logic (spares are exempt)."""
    analysis = analyze_module(module)
    return [
        rule.finding(
            module.name, inst,
            f"instance {inst!r} drives no path to any output port",
        )
        for inst in unobservable_instances(analysis)
    ]


@register("DEAD-002", Severity.INFO, "dead",
          "combinational cone computes a constant")
def check_constant_cones(rule: Rule, module: Module) -> list[Finding]:
    """The instance's output is a proven constant: the cone feeding it
    is redundant and could be replaced by a tie cell."""
    analysis = analyze_module(module)
    return [
        rule.finding(
            module.name, inst,
            f"instance {inst!r} always drives {value} onto {net!r}",
        )
        for inst, net, value in constant_cones(analysis)
    ]


@register("DIV-001", Severity.ERROR, "divergence",
          "output port can diverge between simulator dialects")
def check_divergent_outputs(rule: Rule, module: Module) -> list[Finding]:
    """The dual-dialect fixpoint reaches an off-diagonal value pair on
    an output port: the two simulators can print different results for
    the same stimulus -- the paper's Section-3 sign-off twist."""
    analysis = analyze_module(module)
    return [
        rule.finding(
            module.name, port,
            f"output {port!r} can differ between dialects: "
            f"reachable (A,B) pairs {pairs}",
        )
        for port, pairs in divergent_output_ports(analysis)
    ]


@register("DIV-002", Severity.WARNING, "divergence",
          "mux select can be X with unequal data legs")
def check_mux_select_x(rule: Rule, module: Module) -> list[Finding]:
    """An X can reach the select of a MUX2 whose data legs are not
    provably equal: optimistic and pessimistic X policies disagree
    here, so this site amplifies any dialect difference."""
    analysis = analyze_module(module)
    return [
        rule.finding(
            module.name, inst,
            f"mux {inst!r} select can be X with unequal legs "
            f"(output {net!r})",
        )
        for inst, net in mux_select_x_sites(analysis)
    ]


@register("DIV-003", Severity.INFO, "divergence",
          "X source reconverges on one gate")
def check_reconvergent_x(rule: Rule, module: Module) -> list[Finding]:
    """One X source reaches two or more pins of the same gate; exact
    X-cancellation (e.g. ``XOR(q, ~q)``) makes the dialects' values
    observably different where optimism computes a known result."""
    analysis = analyze_module(module)
    return [
        rule.finding(
            module.name, inst,
            f"gate {inst!r} sees {', '.join(sources)} on multiple pins "
            f"(output {net!r})",
        )
        for inst, net, sources in reconvergent_x_sites(analysis)
    ]


@register("RACE-001", Severity.ERROR, "race",
          "multi-driven net resolution is order sensitive")
def check_multi_driver_race(rule: Rule, module: Module) -> list[Finding]:
    """Two sources can drive different values onto one net; in a
    zero-delay simulator the settled value depends on event order."""
    analysis = analyze_module(module)
    return [
        rule.finding(
            module.name, net,
            f"net {net!r} has order-sensitive drivers: {detail}",
        )
        for net, detail in multi_driver_races(analysis)
    ]


@register("RACE-002", Severity.WARNING, "race",
          "flop-to-flop path races through a clock gate")
def check_gated_clock_race(rule: Rule, module: Module) -> list[Finding]:
    """Source and destination share a clock root but only one path
    crosses an ICG: the gate's delta delay makes capture order -- and
    therefore old-vs-new data -- event-order dependent."""
    return [
        rule.finding(
            module.name, f"{src}->{dst}",
            f"zero-delay race {src} -> {dst}: one clock path crosses a "
            f"clock gate",
        )
        for src, dst, kind in clock_path_races(module)
        if kind == "gated"
    ]


@register("RACE-003", Severity.WARNING, "race",
          "flop-to-flop path crosses clock polarity")
def check_inverted_clock_race(rule: Rule, module: Module) -> list[Finding]:
    """Source and destination share a clock root with opposite
    inverter parity: a half-cycle path whose zero-delay capture order
    is event-order dependent."""
    return [
        rule.finding(
            module.name, f"{src}->{dst}",
            f"zero-delay race {src} -> {dst}: clock paths differ in "
            f"inverter parity",
        )
        for src, dst, kind in clock_path_races(module)
        if kind == "inverted"
    ]
