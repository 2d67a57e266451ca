"""Synthetic netlist generators.

The paper's design is proprietary RTL; these generators produce
structurally realistic gate-level blocks (random logic clouds,
registered pipelines, counters) with controllable gate counts so that
every downstream tool -- simulation, ATPG, STA, placement, ECO -- has
faithful input at any scale.  All generators are deterministic given a
seed.
"""

from __future__ import annotations

import numpy as np

from .clocks import CLOCK_PORT, RESET_PORT
from .library import StdCellLibrary
from .netlist import Module

#: Gate families drawn from when synthesising random logic, with
#: weights approximating the cell-usage mix of a control-dominated SoC.
_COMB_MIX: tuple[tuple[str, float], ...] = (
    ("NAND2_X1", 0.22),
    ("NOR2_X1", 0.13),
    ("INV_X1", 0.16),
    ("AND2_X1", 0.08),
    ("OR2_X1", 0.08),
    ("NAND3_X1", 0.07),
    ("NOR3_X1", 0.05),
    ("XOR2_X1", 0.06),
    ("XNOR2_X1", 0.03),
    ("AOI21_X1", 0.05),
    ("OAI21_X1", 0.05),
    ("MUX2_X1", 0.02),
)


def _pick_gates(rng: np.random.Generator, count: int) -> list[str]:
    names = [name for name, _ in _COMB_MIX]
    weights = np.array([w for _, w in _COMB_MIX])
    weights = weights / weights.sum()
    return list(rng.choice(names, size=count, p=weights))


def _grow_cloud(
    module: Module,
    rng: np.random.Generator,
    *,
    sources: list[str],
    n_gates: int,
    prefix: str,
) -> list[str]:
    """Grow ``n_gates`` random gates over ``sources``.

    Every produced signal is guaranteed a consumer: each gate draws its
    first input from the pool of not-yet-consumed signals, so no dead
    logic is generated (synthesised netlists have none either, and dead
    logic would corrupt fault-coverage experiments with untestable
    faults).  Returns the signals that remain unconsumed -- the cloud's
    natural outputs.
    """
    signals = list(sources)
    unused = list(sources)
    for gate_index, cell_name in enumerate(_pick_gates(rng, n_gates)):
        cell = module.library[cell_name]
        out_net = f"{prefix}g{gate_index}"
        connections = {"Y": out_net}
        input_pins = cell.input_pins
        # First input: oldest unconsumed signal; rest: random history.
        # Inputs are kept distinct per gate -- synthesis would never
        # emit NOR2(x, x), and duplicate inputs create redundant
        # (untestable) faults that would corrupt coverage experiments.
        take = unused.pop(0) if unused else signals[
            int(rng.integers(0, len(signals)))
        ]
        chosen = [take]
        connections[input_pins[0]] = take
        for pin in input_pins[1:]:
            candidate = signals[int(rng.integers(0, len(signals)))]
            for _ in range(8):
                if candidate not in chosen:
                    break
                candidate = signals[int(rng.integers(0, len(signals)))]
            chosen.append(candidate)
            connections[pin] = candidate
        module.add_instance(f"{prefix}u{gate_index}", cell_name, connections)
        signals.append(out_net)
        unused.append(out_net)
    return unused


def _reduce_to(
    module: Module,
    unused: list[str],
    target: int,
    *,
    prefix: str,
) -> list[str]:
    """XOR-fold a signal list down to ``target`` members so everything
    stays observable."""
    fold_index = 0
    while len(unused) > target:
        a = unused.pop(0)
        b = unused.pop(0)
        out_net = f"{prefix}r{fold_index}"
        module.add_instance(
            f"{prefix}red{fold_index}", "XOR2_X1", {"A": a, "B": b, "Y": out_net}
        )
        unused.append(out_net)
        fold_index += 1
    return unused


def random_combinational_cloud(
    name: str,
    library: StdCellLibrary,
    *,
    n_inputs: int,
    n_outputs: int,
    n_gates: int,
    seed: int,
) -> Module:
    """Generate an acyclic random logic cloud with no dead logic.

    Gates are created in topological order; each gate input connects to
    an earlier signal (primary input or prior gate output), which
    guarantees a DAG.  Unconsumed signals are XOR-folded into the
    outputs so every gate is observable.
    """
    if n_inputs < 1 or n_outputs < 1 or n_gates < 1:
        raise ValueError("n_inputs, n_outputs, n_gates must be positive")
    rng = np.random.default_rng(seed)
    module = Module(name, library)
    sources = []
    for index in range(n_inputs):
        port = f"in{index}"
        module.add_port(port, "input")
        sources.append(port)

    unused = _grow_cloud(module, rng, sources=sources, n_gates=n_gates, prefix="")
    unused = _reduce_to(module, unused, n_outputs, prefix="")
    for out_index in range(n_outputs):
        port = f"out{out_index}"
        module.add_port(port, "output")
        source = unused[out_index % len(unused)]
        module.add_instance(
            f"obuf{out_index}", "BUF_X2", {"A": source, "Y": port}
        )
    return module


def counter(
    name: str, library: StdCellLibrary, *, width: int, with_reset: bool = True
) -> Module:
    """A ``width``-bit synchronous binary up-counter.

    Built from XOR/AND ripple-carry increment logic and D flip-flops.
    It is the workhorse sequential testcase: its exact next-state
    function is known, so simulator and scan tests can check it.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    module = Module(name, library)
    module.add_port(CLOCK_PORT, "input")
    if with_reset:
        module.add_port(RESET_PORT, "input")
    flop = "DFFR" if with_reset else "DFF"

    carry = None
    for bit in range(width):
        q_net = f"q{bit}"
        d_net = f"d{bit}"
        if bit == 0:
            module.add_instance(
                "inc0", "INV_X1", {"A": q_net, "Y": d_net}
            )
            carry = q_net
        else:
            module.add_instance(
                f"sum{bit}", "XOR2_X1", {"A": carry, "B": q_net, "Y": d_net}
            )
            if bit < width - 1:  # the MSB's carry-out has no consumer
                new_carry = f"c{bit}"
                module.add_instance(
                    f"carry{bit}",
                    "AND2_X1",
                    {"A": carry, "B": q_net, "Y": new_carry},
                )
                carry = new_carry
        connections = {"D": d_net, "CK": CLOCK_PORT, "Q": q_net}
        if with_reset:
            connections["RN"] = RESET_PORT
        module.add_instance(f"ff{bit}", flop, connections)

    for bit in range(width):
        port = f"count{bit}"
        module.add_port(port, "output")
        module.add_instance(f"qbuf{bit}", "BUF_X1", {"A": f"q{bit}", "Y": port})
    return module


def one_hot_ring(
    name: str,
    library: StdCellLibrary,
    *,
    width: int,
    inject_bug: bool = False,
) -> Module:
    """A self-healing one-hot ring counter (one-hot FSM testcase).

    ``width`` DFFR flops form a circular shift register.  Bit 0's data
    input ORs the tail bit with an all-zero detector, so the ring
    injects a single token after reset and rotates it forever: from
    any reachable state *at most one* bit is hot -- the invariant the
    one-hot property derivation targets.

    ``inject_bug=True`` taps the injector one bit early (a classic
    off-by-one): bit 0 re-arms from ``q[width-2]`` while the shift
    chain still forwards that token to ``q[width-1]``, so the token
    duplicates one lap after reset and the one-hot invariant fails at
    frame ``width`` -- the seeded falsification testcase for bounded
    model checking.
    """
    if width < 3:
        raise ValueError("width must be >= 3")
    module = Module(name, library)
    module.add_port(CLOCK_PORT, "input")
    module.add_port(RESET_PORT, "input")

    # OR-reduce every state bit, then invert for the all-zero detector.
    any_net = "q0"
    for bit in range(1, width):
        out = f"any{bit}"
        module.add_instance(
            f"orq{bit}", "OR2_X1", {"A": any_net, "B": f"q{bit}", "Y": out}
        )
        any_net = out
    module.add_instance(
        "zdet", "INV_X1", {"A": any_net, "Y": "all_zero"}
    )
    tail = f"q{width - 2}" if inject_bug else f"q{width - 1}"
    module.add_instance(
        "inj", "OR2_X1", {"A": tail, "B": "all_zero", "Y": "d0"}
    )

    for bit in range(width):
        module.add_instance(
            f"hot{bit}",
            "DFFR",
            {
                "D": "d0" if bit == 0 else f"q{bit - 1}",
                "CK": CLOCK_PORT,
                "RN": RESET_PORT,
                "Q": f"q{bit}",
            },
        )
        port = f"hot{bit}"
        module.add_port(port, "output")
        module.add_instance(
            f"obuf{bit}", "BUF_X1", {"A": f"q{bit}", "Y": port}
        )
    return module


def pipeline_block(
    name: str,
    library: StdCellLibrary,
    *,
    stages: int,
    width: int,
    cloud_gates: int,
    seed: int,
) -> Module:
    """A registered pipeline: ``stages`` register banks with random
    combinational clouds between them.

    This is the canonical DFT/STA workload -- scan insertion threads
    the register banks, and the clouds give setup paths of varying
    depth.
    """
    if stages < 1 or width < 1 or cloud_gates < 1:
        raise ValueError("stages, width, cloud_gates must be positive")
    rng = np.random.default_rng(seed)
    module = Module(name, library)
    module.add_port(CLOCK_PORT, "input")
    module.add_port(RESET_PORT, "input")
    current: list[str] = []
    for bit in range(width):
        port = f"in{bit}"
        module.add_port(port, "input")
        current.append(port)

    for stage in range(stages):
        prefix = f"s{stage}_"
        unused = _grow_cloud(
            module, rng, sources=current, n_gates=cloud_gates, prefix=prefix
        )
        unused = _reduce_to(module, unused, width, prefix=prefix)
        # Register bank samples the cloud outputs; XOR folding above
        # guarantees exactly min(width, available) live signals.
        next_bits: list[str] = []
        for bit in range(width):
            d_source = unused[bit % len(unused)]
            q_net = f"{prefix}q{bit}"
            module.add_instance(
                f"{prefix}ff{bit}",
                "DFFR",
                {"D": d_source, "CK": CLOCK_PORT, "RN": RESET_PORT,
                 "Q": q_net},
            )
            next_bits.append(q_net)
        current = next_bits

    for bit in range(width):
        port = f"out{bit}"
        module.add_port(port, "output")
        module.add_instance(f"obuf{bit}", "BUF_X2", {"A": current[bit], "Y": port})
    return module


def block_from_budget(
    name: str,
    library: StdCellLibrary,
    *,
    gate_budget: int,
    register_fraction: float = 0.18,
    seed: int = 0,
) -> Module:
    """Generate a block with approximately ``gate_budget`` instances.

    Used to materialise the paper's IP blocks at their documented gate
    counts: roughly ``register_fraction`` of the budget becomes flip-
    flops arranged in pipeline banks, the rest random combinational
    logic between the banks.
    """
    if gate_budget < 50:
        raise ValueError("gate_budget must be >= 50")
    if not 0.0 < register_fraction < 0.9:
        raise ValueError("register_fraction must be in (0, 0.9)")
    flops_target = max(8, int(gate_budget * register_fraction))
    width = max(8, min(64, int(np.sqrt(flops_target))))
    stages = max(1, flops_target // width)
    # Per-stage cloud sized so total instances land near the budget.
    overhead = width * (stages + 1) + width  # flops-ish + output buffers
    cloud_gates = max(4, (gate_budget - overhead) // stages)
    return pipeline_block(
        name,
        library,
        stages=stages,
        width=width,
        cloud_gates=cloud_gates,
        seed=seed,
    )
