"""The shipped analyses: constants/dead logic, X-divergence, races.

:class:`ModuleAnalysis` bundles one module's fixpoints (shared by every
query and lint rule so the engine runs once per module per domain):

* ``const``  -- :class:`~repro.analysis.domains.ConstantDomain` under
  binary stimulus with dialect-agnostic power-on values;
* ``dual``   -- :class:`~repro.analysis.domains.DualConstantDomain`
  pairing the two simulator dialects under one stimulus;
* ``xtaint`` -- which power-on X generators (un-reset flops, floating
  nets, spares) reach each net;
* ``observable`` -- nets backward-reachable from an output/inout port.

The clock-path race check needs no fixpoint: it walks flop-to-flop
fan-in structurally, next to the CDC rules in :mod:`repro.lint.cdc`.

Fan-out across modules and whole-module result caching live one layer
up, in :func:`repro.lint.lint_modules` (the ``lint.module`` store
domain above the per-cone ``analysis.cone`` cache).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Tuple
from weakref import WeakKeyDictionary

from ..netlist import Module
from ..netlist.netlist import Instance, Net
from ..sim import SimulatorConfig, VENDOR_A_SIM, VENDOR_B_SIM
from ..store import get_default_store
from .cones import (
    Cone,
    ConeRunStats,
    partition_cones,
    run_fixpoint_cones,
)
from .domains import (
    BINARY,
    ConstantDomain,
    DIVERGENT,
    DualConstantDomain,
    ONE,
    TaintDomain,
    XBIT,
    ZERO,
    component_a,
    format_mask,
    format_pair_mask,
)
from .engine import FixpointResult


def observable_nets(module: Module) -> FrozenSet[str]:
    """Nets backward-reachable from any output/inout port.

    Reachability crosses sequential cells (a value captured by a flop
    can still be seen later), so a net is *unobservable* only when no
    amount of clocking can ever move its value to a port.
    """
    seen: set[str] = set()
    work: deque[str] = deque()
    for name, port in module.ports.items():
        if port.direction in ("output", "inout"):
            seen.add(name)
            work.append(name)
    while work:
        net: Net = module.nets[work.popleft()]
        if net.driver is None:
            continue
        inst = module.instances[net.driver.instance]
        for pin in inst.cell.input_pins:
            upstream = inst.net_of(pin)
            if upstream not in seen:
                seen.add(upstream)
                work.append(upstream)
    return frozenset(seen)


def _x_source_label(kind: str, name: str) -> str:
    return f"{kind}:{name}"


def _flop_reset_assured(
    module: Module, const: FixpointResult
) -> FrozenSet[str]:
    """Flops whose reset net can actually assert (reach 0).

    A flop with a reset pin tied inactive never leaves its power-on
    value, so it must NOT be treated as reset-disciplined -- that
    would be a false "proven safe".
    """
    assured: set[str] = set()
    for flop in module.sequential_instances:
        reset_pin = flop.cell.reset_pin
        if reset_pin is None:
            continue
        if const.net_values[flop.net_of(reset_pin)] & ZERO:
            assured.add(flop.name)
    return frozenset(assured)


@dataclass
class ModuleAnalysis:
    """Every fixpoint the rule families and reports share."""

    module: Module
    config_a: SimulatorConfig
    config_b: SimulatorConfig
    const: FixpointResult
    dual: FixpointResult
    xtaint: FixpointResult
    observable: FrozenSet[str]
    reset_assured: FrozenSet[str]

    @cached_property
    def stuck(self) -> List[Tuple[str, str]]:
        """:func:`stuck_nets`, walked once per analysis: CONST-001,
        DEAD-002 and the derived safety properties all read it."""
        return _find_stuck_nets(self)


_CACHE: "WeakKeyDictionary[Module, Dict[tuple, ModuleAnalysis]]" = (
    WeakKeyDictionary()
)


def clear_analysis_memo() -> None:
    """Drop the in-process ModuleAnalysis memo (tests, benchmarks)."""
    _CACHE.clear()


def analyze_module(
    module: Module,
    config_a: SimulatorConfig = VENDOR_A_SIM,
    config_b: SimulatorConfig = VENDOR_B_SIM,
    *,
    cone_stats: ConeRunStats | None = None,
) -> ModuleAnalysis:
    """Run (or fetch cached) fixpoints for one module.

    The in-process memo is keyed on module *content* (its fingerprint)
    plus the dialect pair's fields (never their names, see
    :func:`_dialect`), so one lint pass shares a single engine run per
    domain across the four rule families -- and an in-place ECO edit
    invalidates the memo instead of serving stale fixpoints.

    Each domain is solved cone by cone through the ambient
    :class:`repro.store.ArtifactStore` (see
    :mod:`repro.analysis.cones`): after an ECO only the cones whose
    content or boundary values changed re-run the fixpoint, and the
    assembled result is byte-identical to a cold run.  Pass
    ``cone_stats`` to observe the per-cone hit/miss behaviour; doing
    so bypasses the memo (the store is still consulted).
    """
    per_module = _CACHE.setdefault(module, {})
    dialect_a, dialect_b = _dialect(config_a), _dialect(config_b)
    key = (module.fingerprint(), dialect_a, dialect_b)
    cached = per_module.get(key)
    if cached is not None and cone_stats is None:
        return cached

    store = get_default_store()
    partition = partition_cones(module)
    stats = cone_stats

    uninit = _uninit_mask(config_a, config_b)
    const = run_fixpoint_cones(
        module,
        ConstantDomain(config_a, uninit_mask=uninit),
        partition,
        domain_token=lambda cone: ["const", dialect_a, uninit],
        store=store,
        stats=stats,
    )
    reset_assured = _flop_reset_assured(module, const)

    def _assured_in(cone: Cone) -> List[str]:
        return sorted(reset_assured.intersection(cone.instances))

    dual = run_fixpoint_cones(
        module,
        DualConstantDomain(config_a, config_b, reset_assured=reset_assured),
        partition,
        domain_token=lambda cone: [
            "dual", dialect_a, dialect_b, _assured_in(cone)
        ],
        store=store,
        stats=stats,
    )

    def x_flop_seed(inst: Instance) -> FrozenSet[str]:
        if inst.cell.reset_pin is None or inst.name not in reset_assured:
            return frozenset({_x_source_label("flop", inst.name)})
        return frozenset()

    def x_undriven_seed(net: Net) -> FrozenSet[str]:
        return frozenset({_x_source_label("undriven", net.name)})

    xtaint = run_fixpoint_cones(
        module,
        TaintDomain(flop_seed=x_flop_seed, undriven_seed=x_undriven_seed),
        partition,
        domain_token=lambda cone: ["xtaint", _assured_in(cone)],
        store=store,
        stats=stats,
    )

    analysis = ModuleAnalysis(
        module=module,
        config_a=config_a,
        config_b=config_b,
        const=const,
        dual=dual,
        xtaint=xtaint,
        observable=observable_nets(module),
        reset_assured=reset_assured,
    )
    per_module[key] = analysis
    return analysis


def _dialect(config: SimulatorConfig) -> Tuple[int, bool, int]:
    """What a fixpoint reads of a dialect: every field but its name.
    Two configs that share a name but differ in content must never
    share a memo entry or a cone result."""
    return (int(config.uninitialized_flop), config.x_pessimism,
            config.max_settle_rounds)


def _uninit_mask(config_a: SimulatorConfig, config_b: SimulatorConfig) -> int:
    """Single-dialect power-on set covering both dialects."""
    mask = 0
    for config in (config_a, config_b):
        value = config.uninitialized_flop
        mask |= {0: ZERO, 1: ONE}.get(
            int(value) if value.is_known else -1, XBIT
        )
    return mask


# -- constant propagation / dead logic --------------------------------------

def stuck_nets(analysis: ModuleAnalysis) -> List[Tuple[str, str]]:
    """Loaded nets provably constant under binary stimulus.

    Tie-cell outputs are exempt (a constant is their job); everything
    else stuck at 0 or 1 is frozen logic.  Returns (net, value) pairs.
    """
    return list(analysis.stuck)


def _find_stuck_nets(analysis: ModuleAnalysis) -> List[Tuple[str, str]]:
    module = analysis.module
    out: List[Tuple[str, str]] = []
    for name in sorted(module.nets):
        net = module.nets[name]
        if net.fanout == 0:
            continue
        driver = net.driver
        if driver is not None:
            cell = module.instances[driver.instance].cell
            if cell.footprint == "TIE" or cell.is_spare:
                continue
        elif net.driver_port is None:
            continue  # floating net: X generator, not a constant
        mask = analysis.const.net_values[name]
        if mask == ZERO:
            out.append((name, "0"))
        elif mask == ONE:
            out.append((name, "1"))
    return out


def never_toggling_flops(analysis: ModuleAnalysis) -> List[Tuple[str, str]]:
    """Flops whose reachable state set misses 0 or 1 (never toggle)."""
    out: List[Tuple[str, str]] = []
    for name in sorted(analysis.const.flop_state):
        mask = analysis.const.flop_state[name]
        if not (mask & ZERO and mask & ONE):
            out.append((name, format_mask(mask)))
    return out


def unobservable_instances(analysis: ModuleAnalysis) -> List[str]:
    """Instances no output port can ever see (transitively dead)."""
    module = analysis.module
    out: List[str] = []
    for name in sorted(module.instances):
        inst = module.instances[name]
        if inst.cell.is_spare:
            continue  # intentionally uncommitted
        nets = [inst.net_of(pin) for pin in inst.cell.output_pins]
        if nets and not any(net in analysis.observable for net in nets):
            out.append(name)
    return out


def constant_cones(analysis: ModuleAnalysis) -> List[Tuple[str, str, str]]:
    """Combinational instances computing a proven constant.

    Returns (instance, output net, value) triples; ties and spares are
    exempt as in :func:`stuck_nets`.
    """
    module = analysis.module
    stuck = dict(stuck_nets(analysis))
    out: List[Tuple[str, str, str]] = []
    for name in sorted(module.instances):
        inst = module.instances[name]
        if inst.cell.is_sequential:
            continue
        for pin in inst.cell.output_pins:
            net = inst.net_of(pin)
            if net in stuck:
                out.append((name, net, stuck[net]))
                break
    return out


# -- X-divergence -----------------------------------------------------------

def divergent_nets(analysis: ModuleAnalysis) -> List[str]:
    """Every net whose dual fixpoint contains an off-diagonal pair --
    the set the cross-validation harness checks against."""
    return sorted(
        name
        for name, mask in analysis.dual.net_values.items()
        if mask & DIVERGENT
    )


def divergent_output_ports(analysis: ModuleAnalysis) -> List[Tuple[str, str]]:
    """Output/inout ports that can print different values under the
    two dialects; (port, example pairs) tuples."""
    module = analysis.module
    out: List[Tuple[str, str]] = []
    for name in sorted(module.ports):
        if module.ports[name].direction == "input":
            continue
        mask = analysis.dual.net_values[name] & DIVERGENT
        if mask:
            out.append((name, format_pair_mask(mask)))
    return out


def mux_select_x_sites(analysis: ModuleAnalysis) -> List[Tuple[str, str]]:
    """MUX2 instances whose select can go X while the data legs are
    not provably equal -- exactly where optimistic and pessimistic
    X policies disagree.  Returns (instance, output net) pairs."""
    module = analysis.module
    out: List[Tuple[str, str]] = []
    for name in sorted(module.instances):
        inst = module.instances[name]
        if inst.cell.footprint != "MUX2":
            continue
        select_mask = component_a(analysis.dual.net_values[inst.net_of("S")])
        if not select_mask & XBIT:
            continue
        leg_a = component_a(analysis.dual.net_values[inst.net_of("A")])
        leg_b = component_a(analysis.dual.net_values[inst.net_of("B")])
        legs_equal = leg_a == leg_b and leg_a in (ZERO, ONE)
        if not legs_equal:
            out.append((name, inst.net_of(inst.cell.output_pins[0])))
    return out


def reconvergent_x_sites(
    analysis: ModuleAnalysis,
) -> List[Tuple[str, str, Tuple[str, ...]]]:
    """Multi-input gates where one X source reconverges on two or more
    pins -- where optimism can manufacture a known value one dialect
    disagrees with.  Returns (instance, output net, shared sources)."""
    module = analysis.module
    out: List[Tuple[str, str, Tuple[str, ...]]] = []
    for name in sorted(module.instances):
        inst = module.instances[name]
        if inst.cell.is_sequential or len(inst.cell.input_pins) < 2:
            continue
        taints = [
            analysis.xtaint.net_values[inst.net_of(pin)]
            for pin in inst.cell.input_pins
        ]
        shared: set[str] = set()
        for i in range(len(taints)):
            for j in range(i + 1, len(taints)):
                shared |= taints[i] & taints[j]
        if shared:
            out.append((
                name,
                inst.net_of(inst.cell.output_pins[0]),
                tuple(sorted(shared)),
            ))
    return out


# -- zero-delay races -------------------------------------------------------

def multi_driver_races(analysis: ModuleAnalysis) -> List[Tuple[str, str]]:
    """Multi-driven nets whose settled value depends on event order.

    The IR's representable contention is an instance output shorted
    onto an input-port net; resolution is order-sensitive unless both
    sources are provably the same constant (a port never is, under
    binary stimulus).  Returns (net, detail) pairs.
    """
    module = analysis.module
    out: List[Tuple[str, str]] = []
    for name in sorted(module.nets):
        net = module.nets[name]
        if net.driver is None or net.driver_port is None:
            continue
        inst = module.instances[net.driver.instance]
        domain = ConstantDomain(analysis.config_a)
        driver_mask = domain.transfer(
            inst,
            tuple(
                analysis.const.net_values[inst.net_of(pin)]
                for pin in inst.cell.input_pins
            ),
        )
        port_mask = BINARY
        if driver_mask == port_mask and driver_mask in (ZERO, ONE):
            continue  # both sources agree on one constant: benign
        out.append((
            name,
            f"port {net.driver_port!r} {format_mask(port_mask)} vs "
            f"{net.driver} {format_mask(driver_mask)}",
        ))
    return out
