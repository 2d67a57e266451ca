"""Fanin-cone partitioning and the incremental cone-by-cone fixpoint.

The monolithic engine (:mod:`repro.analysis.engine`) solves a module's
least fixpoint in one worklist.  That answer is unique, so it can also
be assembled *cone by cone*: partition the instances into fanin cones,
solve each cone's local fixpoint with its boundary-net values held
fixed, and iterate over cones until no boundary changes (block-chaotic
iteration over a finite lattice -- same least fixpoint, proven equal
to the monolithic engine in the test suite).

Why bother: each cone's local solution is a **pure function of**
``(cone content, boundary values, domain)``.  That triple is exactly a
content address, so the per-cone transfer results live in
:class:`repro.store.ArtifactStore`.  After an ECO only the cones whose
content fingerprint or boundary values changed re-run the fixpoint;
everything else splices out of the store -- including the per-solve
``visits`` counters, so the incremental result is *byte-identical* to
a cold run, not merely equivalent.

Partition: every sequential instance anchors its own cone and owns it;
every combinational instance belongs to the cone of the smallest
anchor (flop, output port, or -- for dead logic -- itself) reachable
downstream through combinational logic.  Combinational SCCs are
collapsed first so ownership is well defined on loops, and ownership
is a purely local property: an ECO that swaps a cell or rewires a net
only changes the cones whose content or downstream reachability it
actually touched.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Sequence, Tuple

from collections import deque

from ..netlist import Module
from ..netlist.netlist import NetlistError
from ..store import ArtifactStore, canonical_json, get_default_store
from .engine import AbstractDomain, FixpointResult, Value

#: Bump to invalidate every cached cone result (new domain semantics,
#: new payload schema).  Per-module lint findings carry their own
#: :data:`repro.lint.LINT_VERSION`; bump it too when findings change.
ANALYSIS_VERSION = "1"

#: Store domain under which per-cone transfer results are filed.
CONE_STORE_DOMAIN = "analysis.cone"


@dataclass(frozen=True)
class Cone:
    """One fanin cone: an anchor plus the instances it owns."""

    #: ``f:<flop>``, ``p:<port>`` or ``d:<instance>`` (dead logic).
    anchor: str
    #: Sorted names of the instances solved inside this cone.
    instances: Tuple[str, ...]
    #: Sorted nets driven by a cone instance (this cone publishes them).
    internal_nets: Tuple[str, ...]
    #: Sorted nets read by cone instances but driven elsewhere (or by
    #: ports / nothing); their values are the cone's only free inputs.
    boundary_nets: Tuple[str, ...]
    #: Internal nets that additionally carry an input-port driver (the
    #: representable multi-driver contention): the local solve joins
    #: the port seed onto them.
    port_seeded_nets: Tuple[str, ...]
    #: Structural content digest; cache keys start here.
    content_fingerprint: str


@dataclass
class ConePartition:
    """A module's cones in deterministic (anchor-sorted) order."""

    module: Module
    cones: List[Cone]
    #: net name -> indexes of cones reading it as a boundary net.
    readers: Dict[str, List[int]]
    #: Module-wide topological order of combinational instance names
    #: (name-sorted fallback on a combinational loop), used to seed
    #: each cone's local worklist exactly like the monolithic engine.
    comb_order: Dict[str, int]


def _cone_content_fingerprint(
    module: Module,
    anchor: str,
    instances: Sequence[str],
    internal_nets: Sequence[str],
    boundary_nets: Sequence[str],
    port_seeded_nets: Sequence[str],
) -> str:
    """Structural digest of one cone.

    Covers the owned instances (cell identity + full pin map), the
    internal/boundary net membership, the port-seed flags and the
    library identity -- everything the local solve reads besides the
    boundary *values* (those key the store entry separately).
    """
    body = repr((
        anchor,
        tuple(
            (
                name,
                module.instances[name].cell.name,
                tuple(sorted(module.instances[name].connections.items())),
            )
            for name in instances
        ),
        tuple(internal_nets),
        tuple(boundary_nets),
        tuple(port_seeded_nets),
        module.library.name,
        module.library.process_node_um,
    ))
    return hashlib.sha256(body.encode()).hexdigest()


def _combinational_sccs(
    module: Module, comb_names: List[str]
) -> Tuple[Dict[str, int], List[List[str]]]:
    """Iterative Tarjan over the combinational instance graph.

    Returns (instance -> component id, components).  Component member
    lists are sorted; component ids follow discovery order (only used
    as dict keys, never for ordering).
    """
    adjacency: Dict[str, List[str]] = {name: [] for name in comb_names}
    comb_set = set(comb_names)
    for name in comb_names:
        inst = module.instances[name]
        for pin in inst.cell.output_pins:
            net = module.nets[inst.net_of(pin)]
            for load in net.loads:
                if load.instance in comb_set:
                    adjacency[name].append(load.instance)

    index_of: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: set[str] = set()
    stack: List[str] = []
    component_of: Dict[str, int] = {}
    components: List[List[str]] = []
    counter = 0

    for root in comb_names:
        if root in index_of:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_index = work[-1]
            if edge_index == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            targets = adjacency[node]
            while edge_index < len(targets):
                target = targets[edge_index]
                edge_index += 1
                if target not in index_of:
                    work[-1] = (node, edge_index)
                    work.append((target, 0))
                    advanced = True
                    break
                if target in on_stack:
                    low[node] = min(low[node], index_of[target])
            if advanced:
                continue
            work.pop()
            if low[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                cid = len(components)
                components.append(sorted(component))
                for member in component:
                    component_of[member] = cid
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return component_of, components


def partition_cones(module: Module) -> ConePartition:
    """Partition a module's instances into anchored fanin cones."""
    comb_names = sorted(
        inst.name for inst in module.combinational_instances
    )
    component_of, components = _combinational_sccs(module, comb_names)

    # Direct anchors per component: sequential loads and output ports
    # reached by any member's output net, expressed as orderable
    # ``(kind, name)`` labels ("f" < "p" by design: flop ownership
    # wins so a cone is the logic feeding one state element).
    direct: List[set[Tuple[str, str]]] = [set() for _ in components]
    successors: List[set[int]] = [set() for _ in components]
    for cid, members in enumerate(components):
        for name in members:
            inst = module.instances[name]
            for pin in inst.cell.output_pins:
                net = module.nets[inst.net_of(pin)]
                for port in net.load_ports:
                    if module.ports[port].direction in ("output", "inout"):
                        direct[cid].add(("p", port))
                for load in net.loads:
                    sink = module.instances[load.instance]
                    if sink.cell.is_sequential:
                        direct[cid].add(("f", load.instance))
                    else:
                        target = component_of[load.instance]
                        if target != cid:
                            successors[cid].add(target)

    # Reverse-topological min-anchor propagation over the component
    # DAG (iterative DFS; the condensation is acyclic by construction).
    anchor_of: Dict[int, Tuple[str, str]] = {}

    def resolve(start: int) -> Tuple[str, str]:
        work: List[int] = [start]
        while work:
            cid = work[-1]
            if cid in anchor_of:
                work.pop()
                continue
            missing = [s for s in successors[cid] if s not in anchor_of]
            if missing:
                work.extend(missing)
                continue
            candidates = set(direct[cid])
            candidates.update(anchor_of[s] for s in successors[cid])
            if not candidates:
                candidates = {("d", components[cid][0])}
            anchor_of[cid] = min(candidates)
            work.pop()
        return anchor_of[start]

    ownership: Dict[Tuple[str, str], List[str]] = {}
    for cid, members in enumerate(components):
        ownership.setdefault(resolve(cid), []).extend(members)
    for flop in module.sequential_instances:
        ownership.setdefault(("f", flop.name), []).append(flop.name)

    try:
        ordered = module.topological_combinational_order()
        comb_order = {inst.name: i for i, inst in enumerate(ordered)}
    except NetlistError:
        comb_order = {name: i for i, name in enumerate(comb_names)}

    cones: List[Cone] = []
    for kind, name in sorted(ownership):
        members = sorted(ownership[(kind, name)])
        member_set = set(members)
        internal: set[str] = set()
        reads: set[str] = set()
        for member in members:
            inst = module.instances[member]
            for pin in inst.cell.output_pins:
                internal.add(inst.net_of(pin))
            for pin in inst.cell.input_pins:
                reads.add(inst.net_of(pin))
        boundary = sorted(reads - internal)
        port_seeded = sorted(
            net for net in internal
            if module.nets[net].driver_port is not None
        )
        # Sanity: internal nets are driven by cone members only.
        assert all(
            module.nets[net].driver is not None
            and module.nets[net].driver.instance in member_set
            for net in internal
        )
        anchor = f"{kind}:{name}"
        internal_nets = tuple(sorted(internal))
        boundary_nets = tuple(boundary)
        port_seeded_nets = tuple(port_seeded)
        cones.append(Cone(
            anchor=anchor,
            instances=tuple(members),
            internal_nets=internal_nets,
            boundary_nets=boundary_nets,
            port_seeded_nets=port_seeded_nets,
            content_fingerprint=_cone_content_fingerprint(
                module, anchor, members, internal_nets, boundary_nets,
                port_seeded_nets,
            ),
        ))

    readers: Dict[str, List[int]] = {}
    for index, cone in enumerate(cones):
        for net in cone.boundary_nets:
            readers.setdefault(net, []).append(index)
    return ConePartition(
        module=module, cones=cones, readers=readers, comb_order=comb_order
    )


# -- value codecs ----------------------------------------------------------

def encode_value(value: Value) -> Any:
    """Domain value -> canonical-JSON value (masks stay ints, taint
    sets become sorted lists)."""
    if isinstance(value, int):
        return value
    return sorted(value)


def decode_value(value: Any) -> Value:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, int):
        return value
    return frozenset(value)


# -- local solve -----------------------------------------------------------

def _solve_cone(
    module: Module,
    domain: AbstractDomain,
    cone: Cone,
    partition: ConePartition,
    boundary_values: Dict[str, Value],
) -> Tuple[Dict[str, Value], Dict[str, Value], int]:
    """Least fixpoint of one cone with its boundary held fixed.

    Mirrors the monolithic engine exactly -- same seeds, same
    worklist discipline, same visit accounting -- restricted to the
    cone's instances.  Returns (internal net values, flop states,
    visits).
    """
    bottom = domain.bottom
    values: Dict[str, Value] = dict(boundary_values)
    for net in cone.internal_nets:
        values[net] = bottom
    state: Dict[str, Value] = {}

    consumers: Dict[str, List[str]] = {}
    for name in cone.instances:
        inst = module.instances[name]
        for pin in inst.cell.input_pins:
            consumers.setdefault(inst.net_of(pin), []).append(name)

    work: Deque[str] = deque()
    in_work: set[str] = set()

    def push(name: str) -> None:
        if name not in in_work:
            in_work.add(name)
            work.append(name)

    def raise_net(name: str, value: Value) -> None:
        joined = values[name] | value
        if joined != values[name]:
            values[name] = joined
            for consumer in consumers.get(name, ()):
                push(consumer)

    for net in cone.port_seeded_nets:
        raise_net(net, domain.input_value(net))

    flops = sorted(
        name for name in cone.instances
        if module.instances[name].cell.is_sequential
    )
    for name in flops:
        state[name] = state.get(name, bottom) | \
            domain.flop_initial(module.instances[name])
        for pin in module.instances[name].cell.output_pins:
            raise_net(module.instances[name].net_of(pin), state[name])

    comb_order = partition.comb_order
    for name in sorted(
        (n for n in cone.instances if n not in state),
        key=lambda n: comb_order.get(n, 0),
    ):
        push(name)
    for name in flops:
        push(name)

    visits = 0
    while work:
        name = work.popleft()
        in_work.discard(name)
        visits += 1
        inst = module.instances[name]
        cell = inst.cell
        if cell.is_sequential:
            pins = {
                pin: values[inst.net_of(pin)] for pin in cell.input_pins
            }
            nxt = domain.flop_next(inst, pins, state[name])
            joined = state[name] | nxt
            if joined != state[name]:
                state[name] = joined
                for pin in cell.output_pins:
                    raise_net(inst.net_of(pin), joined)
                push(name)
        else:
            inputs = tuple(
                values[inst.net_of(pin)] for pin in cell.input_pins
            )
            result = domain.transfer(inst, inputs)
            for pin in cell.output_pins:
                raise_net(inst.net_of(pin), result)

    return (
        {net: values[net] for net in cone.internal_nets},
        state,
        visits,
    )


# -- the incremental runner ------------------------------------------------

@dataclass
class ConeRunStats:
    """Per-run cache observability (what the mutation tests assert)."""

    hits: int = 0
    misses: int = 0
    #: anchors of the cones whose local fixpoint actually re-ran.
    missed_anchors: List[str] = field(default_factory=list)


def run_fixpoint_cones(
    module: Module,
    domain: AbstractDomain,
    partition: ConePartition,
    *,
    domain_token: Callable[[Cone], Any],
    store: ArtifactStore | None = None,
    stats: ConeRunStats | None = None,
) -> FixpointResult:
    """Assemble one domain's module fixpoint cone by cone.

    ``domain_token(cone)`` must return a canonical-JSON-able digest of
    everything that parameterises the domain's behaviour *on that
    cone* beyond its structure -- dialect names, reset-assured flops,
    clock-trace seeds -- so a cached entry can never be replayed under
    different semantics.

    Each cone's local solve is fetched from (or computed into) the
    store keyed by ``(content fingerprint, boundary values, token)``.
    The outer loop re-queues reader cones whenever a published net
    value grows; on the finite lattices in use this block-chaotic
    iteration converges to the module's unique least fixpoint.
    """
    if store is None:
        store = get_default_store()
    domain_bottom = domain.bottom
    values: Dict[str, Value] = {
        name: domain_bottom for name in module.nets
    }
    state: Dict[str, Value] = {}
    # Source-net seeds: input/inout port nets with no instance driver,
    # and floating-but-loaded nets (port-driven *and* instance-driven
    # nets are seeded inside their owning cone instead).
    for name, net in module.nets.items():
        if net.driver is not None:
            continue
        if net.driver_port is not None:
            values[name] = values[name] | domain.input_value(name)
        elif net.fanout > 0:
            values[name] = values[name] | domain.undriven_value(net)

    pending: Deque[int] = deque(range(len(partition.cones)))
    in_pending = set(pending)
    visits = 0
    while pending:
        index = pending.popleft()
        in_pending.discard(index)
        cone = partition.cones[index]
        boundary = [
            encode_value(values[net]) for net in cone.boundary_nets
        ]
        token = domain_token(cone)
        fingerprints = (cone.content_fingerprint,)
        config = [token, boundary]
        payload = store.get(
            CONE_STORE_DOMAIN, ANALYSIS_VERSION, fingerprints, config
        )
        if payload is None:
            boundary_values = {
                net: values[net] for net in cone.boundary_nets
            }
            nets, flop_state, cone_visits = _solve_cone(
                module, domain, cone, partition, boundary_values
            )
            payload = {
                "nets": {
                    net: encode_value(value)
                    for net, value in nets.items()
                },
                "flops": {
                    name: encode_value(value)
                    for name, value in flop_state.items()
                },
                "visits": cone_visits,
            }
            store.put(
                CONE_STORE_DOMAIN, ANALYSIS_VERSION, fingerprints,
                payload, config,
            )
            if stats is not None:
                stats.misses += 1
                stats.missed_anchors.append(cone.anchor)
        elif stats is not None:
            stats.hits += 1
        visits += int(payload["visits"])
        for name, encoded in payload["flops"].items():
            state[name] = decode_value(encoded)
        for name, encoded in payload["nets"].items():
            decoded = decode_value(encoded)
            if decoded != values[name]:
                values[name] = decoded
                for reader in partition.readers.get(name, ()):
                    if reader != index and reader not in in_pending:
                        in_pending.add(reader)
                        pending.append(reader)
    return FixpointResult(
        net_values=values, flop_state=state, visits=visits
    )


def cone_partition_fingerprint(partition: ConePartition) -> str:
    """Digest of a whole partition (all cone content fingerprints)."""
    body = canonical_json(
        [cone.content_fingerprint for cone in partition.cones]
    )
    return hashlib.sha256(body.encode()).hexdigest()
