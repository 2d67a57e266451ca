"""Equivalence checking between two netlists.

The paper's physical flow runs "formal verification" after every
netlist transformation (ECO patches, scan insertion, physical
synthesis).  This module provides a practical checker in that spirit:

* **Combinational equivalence** -- both designs are flattened to their
  full-scan combinational views; corresponding pseudo inputs are driven
  with the same stimulus and every pseudo output is compared.  For
  small input counts the check is exhaustive (a proof); otherwise a
  configurable number of packed random vectors is used (a refutation
  engine with very high practical coverage, like the simulation mode
  of early commercial EC tools).

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
    mode: str  # "exhaustive" | "random" | "sequential"
    vectors_run: int = 0
    counterexample: dict[str, int] | None = None
    mismatched_outputs: list[str] = field(default_factory=list)
    notes: str = ""
    divergence: Divergence | None = None

    def format_report(self) -> str:
        verdict = "EQUIVALENT" if self.equivalent else "NOT EQUIVALENT"
        lines = [
            f"Equivalence check: {verdict} ({self.mode}, "
            f"{self.vectors_run} vectors)"
        ]
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


def check_combinational_equivalence(
    golden: Module,
    revised: Module,
    *,
    seed: int = 0,
    max_random_vectors: int = 4096,
    exhaustive_limit: int = 16,
) -> EquivalenceResult:
    """Compare two designs on their shared scan-view interface.

    Nets private to one design (new ECO logic, renamed internals) are
    ignored; only the shared pseudo inputs/outputs are compared, which
    is exactly what matters after an ECO.
    """
    view_g = CombinationalView(golden)
    view_r = CombinationalView(revised)
    inputs, outputs = _common_interface(view_g, view_r)

    def compare(
        packed: dict[str, int], width: int
    ) -> tuple[list[str], int | None, Divergence | None]:
        values_g = view_g.evaluate(packed, width)
        values_r = view_r.evaluate(packed, width)
        bad: list[str] = []
        bad_bit: int | None = None
        for net in outputs:
            diff = values_g.get(net, 0) ^ values_r.get(net, 0)
            if diff:
                bad.append(net)
                if bad_bit is None:
                    bad_bit = (diff & -diff).bit_length() - 1
        if bad_bit is None:
            return bad, None, None
        # Pin the divergence to the first differing lane: the full
        # input vector plus every output where the designs disagree.
        divergence = Divergence(
            inputs={
                net: str((packed[net] >> bad_bit) & 1)
                for net in inputs
            },
            outputs={
                net: (
                    str((values_g.get(net, 0) >> bad_bit) & 1),
                    str((values_r.get(net, 0) >> bad_bit) & 1),
                )
                for net in outputs
                if ((values_g.get(net, 0) ^ values_r.get(net, 0))
                    >> bad_bit) & 1
            },
        )
        return bad, bad_bit, divergence

    n_inputs = len(inputs)
    if n_inputs <= exhaustive_limit:
        total = 1 << n_inputs
        vectors_done = 0
        for base in range(0, total, 64):
            width = min(64, total - base)
            packed = {net: 0 for net in inputs}
            for offset in range(width):
                row = base + offset
                for k, net in enumerate(inputs):
                    if (row >> k) & 1:
                        packed[net] |= 1 << offset
            bad, bad_bit, divergence = compare(packed, width)
            vectors_done += width
            if bad:
                assert bad_bit is not None
                row = base + bad_bit
                cex = {net: (row >> k) & 1 for k, net in enumerate(inputs)}
                return EquivalenceResult(
                    equivalent=False,
                    mode="exhaustive",
                    vectors_run=vectors_done,
                    counterexample=cex,
                    mismatched_outputs=bad,
                    divergence=divergence,
                )
        return EquivalenceResult(
            equivalent=True,
            mode="exhaustive",
            vectors_run=total,
            notes="proven over the full input space",
        )

    rng = np.random.default_rng(seed)
    vectors_done = 0
    while vectors_done < max_random_vectors:
        width = min(64, max_random_vectors - vectors_done)
        packed = {}
        stash = {}
        bits = rng.integers(0, 2, size=(len(inputs), width), dtype=np.uint8)
        for k, net in enumerate(inputs):
            value = int.from_bytes(
                np.packbits(bits[k], bitorder="little").tobytes(), "little"
            )
            packed[net] = value
            stash[net] = bits[k]
        bad, bad_bit, divergence = compare(packed, width)
        vectors_done += width
        if bad:
            assert bad_bit is not None
            cex = {net: int(stash[net][bad_bit]) for net in inputs}
            return EquivalenceResult(
                equivalent=False,
                mode="random",
                vectors_run=vectors_done,
                counterexample=cex,
                mismatched_outputs=bad,
                divergence=divergence,
            )
    return EquivalenceResult(
        equivalent=True,
        mode="random",
        vectors_run=vectors_done,
        notes="no mismatch found (random refutation, not a proof)",
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
