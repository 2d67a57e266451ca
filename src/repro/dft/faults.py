"""Stuck-at fault model and fault universe enumeration.

We use the single-stuck-at model on instance pins (the model behind
the paper's "fault coverage was 93%" figure).  Under full scan, every
flip-flop becomes a pseudo primary input (its Q) and pseudo primary
output (its D), so fault simulation and ATPG run purely on the
combinational network -- see :mod:`repro.dft.faultsim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..netlist import Module


@dataclass(frozen=True, order=True)
class Fault:
    """A single stuck-at fault at one instance pin.

    ``instance`` and ``pin`` name the site; ``stuck_at`` is 0 or 1.
    A fault on an output pin models the gate output stuck; a fault on
    an input pin models a defect on that pin's branch only (branch
    faults are distinct from the driving stem fault).
    """

    instance: str
    pin: str
    stuck_at: int

    def __post_init__(self) -> None:
        if self.stuck_at not in (0, 1):
            raise ValueError("stuck_at must be 0 or 1")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.instance}.{self.pin}/SA{self.stuck_at}"


def enumerate_faults(module: Module) -> list[Fault]:
    """Build the full single-stuck-at universe for a module.

    Only combinational-instance pins are enumerated: under full scan,
    flop D/Q faults are equivalent to faults on the combinational pins
    they connect to, and the scan path itself is covered by the chain
    integrity test.
    """
    faults: list[Fault] = []
    for inst in module.instances.values():
        if inst.cell.is_sequential:
            continue
        for pin in inst.cell.pins:
            for stuck in (0, 1):
                faults.append(Fault(inst.name, pin.name, stuck))
    return faults


def collapse_faults(module: Module, faults: Iterable[Fault]) -> list[Fault]:
    """Cheap structural fault collapsing.

    Applies the classic gate-level equivalences to shrink the fault
    list (reduces fault-simulation work without changing coverage
    semantics):

    * For an inverter/buffer, input faults are equivalent to output
      faults (with polarity flipped through an inverter) -- keep the
      output pair only.
    * For AND/NAND, input SA0s are equivalent to the output SA0 (SA1
      for NAND) -- keep one representative.
    * Dually for OR/NOR input SA1s.

    Collapsing is representative-based: coverage numbers computed on
    the collapsed list apply to the full list under equivalence.
    """
    drop: set[Fault] = set()
    for inst in module.instances.values():
        if inst.cell.is_sequential:
            continue
        family = inst.cell.footprint
        inputs = inst.cell.input_pins
        if family in ("INV", "BUF"):
            for stuck in (0, 1):
                drop.add(Fault(inst.name, inputs[0], stuck))
        elif family.startswith(("AND", "NAND")):
            for pin in inputs:
                drop.add(Fault(inst.name, pin, 0))
        elif family.startswith(("OR", "NOR")):
            for pin in inputs:
                drop.add(Fault(inst.name, pin, 1))
    return [f for f in faults if f not in drop]
