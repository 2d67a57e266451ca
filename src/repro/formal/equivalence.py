"""Equivalence checking between two netlists.

The paper's physical flow runs "formal verification" after every
netlist transformation (ECO patches, scan insertion, physical
synthesis).  This module provides two checks in that spirit:

* **Combinational equivalence** -- a proof on the repository's one SAT
  engine, :class:`repro.sat.Solver`.  Both designs are
  flattened to their full-scan combinational views, and their compare
  points are matched by identity: a port by its name, a flop by its
  instance name (its Q a pseudo input, the net at its data pin a
  pseudo output, whatever the nets are called).  Both views are
  encoded through :meth:`CombinationalView.encode` into one
  :class:`repro.sat.CnfBuilder`, whose gate layer hashes
  structure: matched pseudo inputs share one variable, so logic the
  designs have in common -- resized and Vt-swapped cells, buffers --
  maps to the same literals.  The miter ORs the XOR of every matched
  pseudo output.  A miter that folds to false while it is built is a
  proof without a search; otherwise one solve either proves it
  unsatisfiable, at any input width, or returns a separating vector.
  A compare point only one design has makes the designs
  non-equivalent.

* **Sequential burn-in compare** -- both designs are reset and driven
  with the same cycle stimulus on the compiled four-value simulator;
  traces of all common outputs must match.  Catches reset/X-handling
  bugs that a combinational check misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..netlist import Module
from ..netlist.clocks import CLOCK_PORT, RESET_PORT, scan_mode_inputs
from ..dft.faultsim import CombinationalView
from ..sim import BatchSimulator, SimulatorConfig, diff_traces
from ..sat import XOR2, CnfBuilder, Solver


@dataclass(frozen=True)
class Divergence:
    """The first differing vector of a failed equivalence check.

    ``inputs`` is the complete stimulus vector (net name to four-value
    character) that separates the designs; ``outputs`` maps every
    differing output to its ``(golden, revised)`` value pair.  For
    sequential checks ``cycle`` locates the divergence in the
    burn-in trace; combinational checks leave it ``None``.
    """

    inputs: dict[str, str]
    outputs: dict[str, tuple[str, str]]
    cycle: int | None = None

    def to_dict(self) -> dict[str, object]:
        """Canonical JSON-ready form."""
        return {
            "cycle": self.cycle,
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": {
                net: list(pair)
                for net, pair in sorted(self.outputs.items())
            },
        }

    def format_lines(self) -> list[str]:
        """Human-readable description, inputs first."""
        where = f" at cycle {self.cycle}" if self.cycle is not None \
            else ""
        lines = [f"  first differing vector{where}:"]
        lines.append("    inputs:  " + " ".join(
            f"{net}={value}"
            for net, value in sorted(self.inputs.items())
        ))
        for net, (golden, revised) in sorted(self.outputs.items()):
            lines.append(
                f"    output {net}: golden={golden} revised={revised}"
            )
        return lines


@dataclass
class EquivalenceResult:
    """Outcome of one equivalence check."""

    equivalent: bool
    mode: str  # "combinational" (a SAT proof) | "sequential" (burn-in)
    vectors_run: int = 0  # burn-in cycles; a proof runs no vectors
    counterexample: dict[str, int] | None = None
    mismatched_outputs: list[str] = field(default_factory=list)
    notes: str = ""
    divergence: Divergence | None = None
    #: Compare points (port names, ``flop/pin``) only one design has.
    unmatched_golden: list[str] = field(default_factory=list)
    unmatched_revised: list[str] = field(default_factory=list)

    def format_report(self) -> str:
        verdict = "EQUIVALENT" if self.equivalent else "NOT EQUIVALENT"
        detail = self.mode
        if self.vectors_run:
            detail += f", {self.vectors_run} vectors"
        lines = [f"Equivalence check: {verdict} ({detail})"]
        if self.divergence is not None:
            lines.extend(self.divergence.format_lines())
        elif self.counterexample is not None:
            lines.append(f"  counterexample: {self.counterexample}")
        if self.mismatched_outputs:
            lines.append(f"  mismatched outputs: {self.mismatched_outputs[:8]}")
        for side, points in (("golden", self.unmatched_golden),
                             ("revised", self.unmatched_revised)):
            if points:
                lines.append(f"  unmatched {side} points: {points[:8]}")
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


class InterfaceMismatch(Exception):
    """The two designs do not expose comparable interfaces."""


def check_combinational_equivalence(
    golden: Module, revised: Module
) -> EquivalenceResult:
    """Prove or refute that two designs compute the same function at
    every compare point.

    Ports are matched by name and flops by instance name, so internal
    nets -- new ECO logic, hold buffers on a flop's D pin, renamed
    internals -- may differ freely.  The verdict is exact at any input
    width: an unsatisfiable miter is a proof, and a satisfying model is
    a separating input vector, reported under golden net names.  A
    compare point that only one design has is listed in the result and
    makes it non-equivalent; :class:`InterfaceMismatch` is raised when
    no pseudo input or no pseudo output matches.
    """
    view_g = CombinationalView(golden)
    view_r = CombinationalView(revised)
    in_g, out_g = view_g.compare_points()
    in_r, out_r = view_r.compare_points()
    inputs = [point for point in in_g if point in in_r]
    outputs = [point for point in out_g if point in out_r]
    if not inputs or not outputs:
        raise InterfaceMismatch(
            "designs share no comparable pseudo inputs/outputs"
        )
    result = EquivalenceResult(
        equivalent=False,
        mode="combinational",
        unmatched_golden=sorted({*in_g, *out_g} - {*in_r, *out_r}),
        unmatched_revised=sorted({*in_r, *out_r} - {*in_g, *out_g}),
    )

    solver = Solver()
    cnf = CnfBuilder(solver)
    shared = {point: cnf.new_var() for point in inputs}
    lits_g = view_g.encode(cnf, {in_g[p]: v for p, v in shared.items()})
    lits_r = view_r.encode(cnf, {in_r[p]: v for p, v in shared.items()})
    pairs = [(out_g[point], lits_g[out_g[point]], lits_r[out_r[point]])
             for point in outputs]
    miter = cnf.lit_or(cnf.gate(XOR2, (g, r)) for _, g, r in pairs)
    if miter == cnf.false_lit or not solver.solve([miter]):
        result.equivalent = not (
            result.unmatched_golden or result.unmatched_revised
        )
        result.notes = (
            "proven over the full input space" if result.equivalent
            else "matched points proven equal; unmatched points remain"
        )
        return result

    value = solver.value
    result.counterexample = {
        in_g[point]: int(value(lit)) for point, lit in shared.items()
    }
    result.divergence = Divergence(
        inputs={net: str(bit) for net, bit in result.counterexample.items()},
        outputs={
            net: (str(int(value(g))), str(int(value(r))))
            for net, g, r in pairs
            if value(g) != value(r)
        },
    )
    result.mismatched_outputs = sorted(result.divergence.outputs)
    return result


def check_sequential_burn_in(
    golden: Module,
    revised: Module,
    *,
    cycles: int = 64,
    seed: int = 0,
    config: SimulatorConfig | None = None,
) -> EquivalenceResult:
    """Cycle-by-cycle output compare under identical random stimulus.

    Both designs are reset (an async reset, applied without an edge,
    when they have the reset port), then driven for ``cycles`` clock
    cycles with shared random data inputs.  The clock and the
    scan-mode inputs are held low, so a scanned design can be
    compared against its pre-scan original.
    """
    rng = np.random.default_rng(seed)
    common_outputs = sorted(
        name
        for name, port in golden.ports.items()
        if port.direction == "output" and name in revised.ports
        and revised.ports[name].direction == "output"
    )
    if not common_outputs:
        raise InterfaceMismatch("no common output ports to compare")

    def data_inputs(module: Module) -> list[str]:
        skip = {CLOCK_PORT, RESET_PORT, *scan_mode_inputs(module)}
        return [
            name
            for name, port in module.ports.items()
            if port.direction == "input" and name not in skip
        ]

    shared_inputs = sorted(set(data_inputs(golden)) & set(data_inputs(revised)))
    stimulus = []
    for _ in range(cycles):
        vector = {name: int(rng.integers(0, 2)) for name in shared_inputs}
        stimulus.append(vector)

    def run(module: Module):
        sim = BatchSimulator(module, config, lanes=1)
        ties = dict.fromkeys((CLOCK_PORT, *scan_mode_inputs(module)), 0)
        if RESET_PORT in module.ports:
            sim.set_inputs({**ties, RESET_PORT: 0})
            sim.evaluate()
            sim.set_input(RESET_PORT, 1)
        else:
            sim.set_inputs(ties)
        full_stim = [dict(v, **ties) for v in stimulus]
        return sim.run([full_stim], watch=common_outputs)[0]

    trace_g = run(golden)
    trace_r = run(revised)
    mismatches = diff_traces(trace_g, trace_r)
    if mismatches:
        cycle, signal, va, vb = mismatches[0]
        divergence = Divergence(
            inputs={
                net: str(value)
                for net, value in sorted(stimulus[cycle].items())
            },
            outputs={
                m_signal: (str(m_va), str(m_vb))
                for m_cycle, m_signal, m_va, m_vb in mismatches
                if m_cycle == cycle
            },
            cycle=cycle,
        )
        return EquivalenceResult(
            equivalent=False,
            mode="sequential",
            vectors_run=cycles,
            counterexample={"cycle": cycle},
            mismatched_outputs=sorted({m[1] for m in mismatches}),
            notes=f"first divergence at cycle {cycle} on {signal}: "
                  f"{va!s} vs {vb!s}",
            divergence=divergence,
        )
    return EquivalenceResult(
        equivalent=True, mode="sequential", vectors_run=cycles,
        notes="burn-in compare clean",
    )
