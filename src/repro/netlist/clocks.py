"""Infrastructure ports and clock and reset tracing.

The port convention is defined here once: the clock and reset ports
the generators create, and the scan ports
:func:`repro.dft.insert_scan` adds.  In functional mode the clock and
the scan-mode inputs (:func:`scan_mode_inputs`) are held low.

A flop's clock (or reset) net is traced backwards through buffers,
inverters, pads and integrated clock gates to a *root*: an input port,
another flop's output, a tie cell, a multi-input gate ("derived") or
an undriven net.  The simulators, the scan design rules and the lint
domain inference all read this trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .logic import logic_not
from .netlist import Module, Net

#: The clock and active-low reset ports the block generators create.
CLOCK_PORT = "clk"
RESET_PORT = "rst_n"
#: The scan enable, and the name prefixes of the per-chain scan input
#: and output ports (``scan_in<k>``, ``scan_out<k>``).
SCAN_ENABLE = "scan_en"
SCAN_IN = "scan_in"
SCAN_OUT = "scan_out"


def is_scan_port(name: str) -> bool:
    """Whether ``name`` is a scan port of the convention."""
    return name == SCAN_ENABLE or name.startswith((SCAN_IN, SCAN_OUT))


def scan_mode_inputs(module: Module) -> tuple[str, ...]:
    """The module's scan enable and scan inputs, in port order."""
    return tuple(
        name for name, port in module.ports.items()
        if port.direction == "input" and is_scan_port(name)
    )


@dataclass(frozen=True)
class SourceTrace:
    """Where a control net (clock/reset) ultimately comes from.

    ``kind`` is one of ``"port"``, ``"flop"``, ``"derived"``, ``"tie"``
    or ``"undriven"``; ``root`` names the port / instance / net;
    ``through_gate`` records an ICG on the path and ``inverted`` the
    parity of inverters crossed.
    """

    root: str
    kind: str
    through_gate: bool = False
    inverted: bool = False
    path: tuple[str, ...] = ()

    @property
    def domain(self) -> str:
        """Domain label: the root, annotated when gated."""
        label = f"{self.kind}:{self.root}"
        return label + "+gated" if self.through_gate else label


def trace_control_source(module: Module, net_name: str) -> SourceTrace:
    """Trace one net back to its control root (see module docstring)."""
    through_gate = False
    inverted = False
    path: list[str] = []
    seen: set[str] = set()
    current = net_name
    while True:
        if current in seen:  # combinational loop on the control path
            return SourceTrace(current, "derived", through_gate,
                               inverted, tuple(path))
        seen.add(current)
        net: Net = module.nets[current]
        if net.driver is None:
            if net.driver_port is not None:
                return SourceTrace(net.driver_port, "port", through_gate,
                                   inverted, tuple(path))
            return SourceTrace(current, "undriven", through_gate,
                               inverted, tuple(path))
        inst = module.instances[net.driver.instance]
        cell = inst.cell
        if cell.is_sequential:
            return SourceTrace(inst.name, "flop", through_gate,
                               inverted, tuple(path))
        inputs = cell.input_pins
        if cell.is_clock_gate:
            through_gate = True
            path.append(inst.name)
            current = inst.net_of("CK")
            continue
        if len(inputs) == 0:
            return SourceTrace(inst.name, "tie", through_gate,
                               inverted, tuple(path))
        if len(inputs) == 1:  # buffer / inverter / pad: transparent
            if cell.function is logic_not:
                inverted = not inverted
            path.append(inst.name)
            current = inst.net_of(inputs[0])
            continue
        return SourceTrace(inst.name, "derived", through_gate,
                           inverted, tuple(path))
