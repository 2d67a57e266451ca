"""Equivalence checking between two netlists.

The paper's physical flow runs "formal verification" after every
netlist transformation (ECO patches, scan insertion, physical
synthesis).  This module provides two checks in that spirit:

* **Combinational equivalence** -- a proof on the repository's one SAT
  engine, :class:`repro.formal.cdcl.Solver`.  Both designs are
  flattened to their full-scan combinational views and encoded into
  one structurally hashed :class:`repro.formal.cnf.CnfBuilder`: shared
  pseudo inputs share one variable, so logic the designs have in
  common maps to the same literals.  The miter ORs the XOR of every
  shared pseudo output.  A miter that folds to false while it is built
  is a proof without a search; otherwise one solve either proves it
  unsatisfiable, at any input width, or returns a separating vector.

* **Sequential burn-in compare** -- both designs are reset and driven
  with the same cycle stimulus on the compiled four-value simulator;
  traces of all common outputs must match.  Catches reset/X-handling
  bugs that a combinational check misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..netlist import Module
from ..dft.faultsim import CombinationalView
from ..sim import BatchSimulator, SimulatorConfig, diff_traces
from .cdcl import Solver
from .cnf import CnfBuilder


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
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


class InterfaceMismatch(Exception):
    """The two designs do not expose comparable interfaces."""


def _common_interface(a: CombinationalView, b: CombinationalView):
    in_a, in_b = set(a.pseudo_inputs), set(b.pseudo_inputs)
    out_a, out_b = set(a.pseudo_outputs), set(b.pseudo_outputs)
    inputs = sorted(in_a & in_b)
    outputs = sorted(out_a & out_b)
    if not inputs or not outputs:
        raise InterfaceMismatch(
            "designs share no comparable pseudo inputs/outputs"
        )
    return inputs, outputs


def _encode_view(
    cnf: CnfBuilder, view: CombinationalView, shared: dict[str, int]
) -> dict[str, int]:
    """The literal of every net of ``view`` in ``cnf``.

    Shared pseudo inputs take their variable from ``shared``; private
    pseudo inputs and undriven nets are the false literal, the value
    :meth:`CombinationalView.evaluate` gives them.  Each gate is the OR
    of its ONE-minterms over its input literals, so a gate that two
    designs share maps to the same literal.
    """
    false = cnf.false_lit
    lits = {net: shared.get(net, false) for net in view.pseudo_inputs}
    for inst in view._order:
        inputs = [
            lits.get(inst.net_of(pin), false) for pin in inst.cell.input_pins
        ]
        lits[inst.net_of(inst.cell.output_pins[0])] = cnf.lit_or(
            cnf.lit_and(
                lit if bit else -lit for bit, lit in zip(minterm, inputs)
            )
            for minterm in view._minterms[inst.cell.name]
        )
    return lits


def check_combinational_equivalence(
    golden: Module, revised: Module
) -> EquivalenceResult:
    """Prove or refute that two designs agree on their shared
    scan-view interface.

    Nets private to one design (new ECO logic, renamed internals) are
    ignored; only the shared pseudo inputs/outputs are compared, which
    is exactly what matters after an ECO.  The verdict is exact at any
    input width: an unsatisfiable miter is a proof, and a satisfying
    model is a separating input vector.
    """
    view_g = CombinationalView(golden)
    view_r = CombinationalView(revised)
    inputs, outputs = _common_interface(view_g, view_r)

    solver = Solver()
    cnf = CnfBuilder(solver)
    shared = {net: cnf.new_var() for net in inputs}
    lits_g = _encode_view(cnf, view_g, shared)
    lits_r = _encode_view(cnf, view_r, shared)
    false = cnf.false_lit
    pairs = {
        net: (lits_g.get(net, false), lits_r.get(net, false))
        for net in outputs
    }
    miter = cnf.lit_or(
        cnf.lit_or((cnf.lit_and((g, -r)), cnf.lit_and((-g, r))))
        for g, r in pairs.values()
    )
    if miter == false or not solver.solve([miter]):
        return EquivalenceResult(
            equivalent=True,
            mode="combinational",
            notes="proven over the full input space",
        )

    value = solver.value
    counterexample = {net: int(value(lit)) for net, lit in shared.items()}
    divergence = Divergence(
        inputs={net: str(bit) for net, bit in counterexample.items()},
        outputs={
            net: (str(int(value(g))), str(int(value(r))))
            for net, (g, r) in pairs.items()
            if value(g) != value(r)
        },
    )
    return EquivalenceResult(
        equivalent=False,
        mode="combinational",
        counterexample=counterexample,
        mismatched_outputs=list(divergence.outputs),
        divergence=divergence,
    )


def check_sequential_burn_in(
    golden: Module,
    revised: Module,
    *,
    cycles: int = 64,
    seed: int = 0,
    clock_port: str = "clk",
    reset_port: str | None = "rst_n",
    config: SimulatorConfig | None = None,
    extra_low_inputs: tuple[str, ...] = ("scan_en",),
) -> EquivalenceResult:
    """Cycle-by-cycle output compare under identical random stimulus.

    Both designs are reset (if ``reset_port`` exists), then driven for
    ``cycles`` clock cycles with shared random data inputs.  Inputs
    named in ``extra_low_inputs`` (test controls) are tied low when
    present so a scanned design can be compared against its
    pre-scan original.
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
        skip = {clock_port, reset_port} | set(extra_low_inputs)
        return [
            name
            for name, port in module.ports.items()
            if port.direction == "input" and name not in skip
            and not name.startswith("scan_in")
        ]

    shared_inputs = sorted(set(data_inputs(golden)) & set(data_inputs(revised)))
    stimulus = []
    for _ in range(cycles):
        vector = {name: int(rng.integers(0, 2)) for name in shared_inputs}
        stimulus.append(vector)

    def run(module: Module):
        sim = BatchSimulator(module, config, lanes=1)
        ties: dict[str, int] = {clock_port: 0}
        for name in extra_low_inputs:
            if name in module.ports and module.ports[name].direction == "input":
                ties[name] = 0
        for name in module.ports:
            if name.startswith("scan_in") \
                    and module.ports[name].direction == "input":
                ties[name] = 0
        if reset_port and reset_port in module.ports:
            sim.set_inputs({**ties, reset_port: 0})
            sim.evaluate()
            sim.set_input(reset_port, 1)
        else:
            sim.set_inputs(ties)
        full_stim = [dict(v, **ties) for v in stimulus]
        return sim.run([full_stim], clock_port=clock_port,
                       watch=common_outputs)[0]

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
