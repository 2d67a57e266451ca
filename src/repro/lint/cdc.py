"""Clock-domain-crossing (CDC) rules.

The static complement of the paper's cross-simulator divergence hunt
(Section 3, experiment E13/S2): a signal launched in one inferred
clock domain and captured in another is only safe through a proper
synchronizer.  The recognised safe shape is the standard two-flop
synchronizer -- a buffer-only path from the source flop into the
first capture flop, whose output feeds nothing but same-domain flop
data inputs.

Rules:

* ``CDC-001`` -- unsynchronized crossing (combinational logic on the
  crossing path, or the first capture flop's output re-converges into
  logic before a second stage);
* ``CDC-002`` -- clock derived from multi-input combinational logic
  (glitch-capable clock, also breaks domain inference);
* ``CDC-003`` -- gated clock (ICG) noted for test planning (info).

The same fan-in walk finds the zero-delay clock-path races that
``RACE-002/003`` (:mod:`repro.lint.analysis`) report:
:func:`clock_path_races` pairs flops that share a clock root but not
its clock-gate crossing or inverter parity.
"""

from __future__ import annotations

from ..netlist.netlist import Module
from .core import Finding, Rule, Severity, register
from .domains import infer_clock_domains


def _data_fanin_flops(module: Module, flop_name: str) -> dict[str, bool]:
    """Source flops feeding this flop's D pin.

    Returns ``{source_flop: pure}`` where ``pure`` is True when some
    path from that source crosses only buffers/inverters (a candidate
    synchronizer path) -- any multi-input gate on every path makes the
    crossing combinational.
    """
    inst = module.instances[flop_name]
    data_pin = inst.cell.data_pin
    if data_pin is None or data_pin not in inst.connections:
        return {}
    sources: dict[str, bool] = {}
    # (net, pure-so-far); track the best (purest) state seen per net.
    best: dict[str, bool] = {}
    stack = [(inst.net_of(data_pin), True)]
    while stack:
        net_name, pure = stack.pop()
        if best.get(net_name) is True or best.get(net_name) == pure:
            continue
        best[net_name] = pure or best.get(net_name, False)
        net = module.nets[net_name]
        if net.driver is None:
            continue
        driver = module.instances[net.driver.instance]
        if driver.cell.is_sequential:
            sources[driver.name] = sources.get(driver.name, False) or pure
            continue
        n_inputs = len(driver.cell.input_pins)
        next_pure = pure and n_inputs == 1 and not driver.cell.is_clock_gate
        for pin in driver.cell.input_pins:
            stack.append((driver.net_of(pin), next_pure))
    return sources


def clock_path_races(module: Module) -> list[tuple[str, str, str]]:
    """Flop-to-flop same-root paths whose capture order is event-order
    sensitive: one clock path crosses an ICG the other does not
    (``gated``), or the two paths differ in inverter parity
    (``inverted``).  Returns (src, dst, kind) triples.

    Sources are the flops in a destination's D-pin fan-in; the walk
    runs only for destinations whose clock root also clocks a flop
    with different gating or parity, because no other can race.
    """
    traces = infer_clock_domains(module).trace_of
    variants: dict[tuple[str, str], set[tuple[bool, bool]]] = {}
    for trace in traces.values():
        variants.setdefault((trace.root, trace.kind), set()).add(
            (trace.inverted, trace.through_gate)
        )
    races: list[tuple[str, str, str]] = []
    for dst in sorted(traces):
        dst_trace = traces[dst]
        root = (dst_trace.root, dst_trace.kind)
        if len(variants[root]) < 2:
            continue
        for src in sorted(_data_fanin_flops(module, dst)):
            src_trace = traces.get(src)
            if src_trace is None or (src_trace.root, src_trace.kind) != root:
                continue  # different roots: a CDC problem, not a race
            if src_trace.inverted != dst_trace.inverted:
                races.append((src, dst, "inverted"))
            elif src_trace.through_gate != dst_trace.through_gate:
                races.append((src, dst, "gated"))
    return races


def _is_sync_first_stage(module: Module, flop_name: str,
                         domain_of: dict[str, str]) -> bool:
    """True when a capture flop looks like synchronizer stage one: its
    output feeds only data/scan-in pins of flops in its own domain."""
    inst = module.instances[flop_name]
    domain = domain_of.get(flop_name)
    for pin in inst.cell.output_pins:
        net = module.nets[inst.net_of(pin)]
        if net.load_ports:
            return False
        for load in net.loads:
            sink = module.instances[load.instance]
            if not sink.cell.is_sequential:
                return False
            if load.pin not in (sink.cell.data_pin, sink.cell.scan_in_pin):
                return False
            if domain_of.get(sink.name) != domain:
                return False
    return True


@register("CDC-001", Severity.ERROR, "cdc",
          "unsynchronized clock-domain crossing")
def check_unsynchronized_crossings(rule: Rule,
                                   module: Module) -> list[Finding]:
    domains = infer_clock_domains(module)
    if domains.n_domains <= 1:
        return []
    domain_of = domains.domain_of
    findings = []
    for dst in sorted(domain_of):
        dst_domain = domain_of[dst]
        for src, pure in sorted(_data_fanin_flops(module, dst).items()):
            src_domain = domain_of.get(src)
            if src_domain is None or src_domain == dst_domain:
                continue
            synchronized = pure and _is_sync_first_stage(
                module, dst, domain_of
            )
            if synchronized:
                continue
            why = ("combinational logic on the crossing path"
                   if not pure else
                   "capture flop output re-converges before a second"
                   " synchronizer stage")
            findings.append(rule.finding(
                module.name, f"{src}->{dst}",
                f"unsynchronized crossing {src} ({src_domain}) ->"
                f" {dst} ({dst_domain}): {why}",
            ))
    return findings


@register("CDC-002", Severity.WARNING, "cdc",
          "clock derived from combinational logic")
def check_derived_clocks(rule: Rule, module: Module) -> list[Finding]:
    findings = []
    domains = infer_clock_domains(module)
    for flop in sorted(domains.trace_of):
        trace = domains.trace_of[flop]
        if trace.kind == "derived":
            findings.append(rule.finding(
                module.name, flop,
                f"clock of flop {flop} derived from combinational"
                f" logic at {trace.root} (glitch-capable clock)",
            ))
        elif trace.kind in ("flop", "undriven"):
            findings.append(rule.finding(
                module.name, flop,
                f"clock of flop {flop} rooted at {trace.kind}"
                f" {trace.root} (not a primary clock source)",
            ))
    return findings


@register("CDC-003", Severity.INFO, "cdc", "gated clock (ICG)")
def check_gated_clocks(rule: Rule, module: Module) -> list[Finding]:
    findings = []
    domains = infer_clock_domains(module)
    for flop in sorted(domains.trace_of):
        trace = domains.trace_of[flop]
        if trace.through_gate and trace.kind == "port":
            icg = next((p for p in trace.path), "?")
            findings.append(rule.finding(
                module.name, flop,
                f"clock of flop {flop} gated through ICG {icg}"
                f" (root {trace.root})",
            ))
    return findings
