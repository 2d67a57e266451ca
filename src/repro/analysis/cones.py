"""Fanin-cone partitioning and the incremental cone-by-cone fixpoint.

A module's least fixpoint (:mod:`repro.analysis.engine`) is unique,
so it can be assembled *cone by cone*: partition the instances into
fanin cones, solve each cone's local fixpoint with its boundary-net
values held fixed, and iterate over cones until no boundary changes
(block-chaotic iteration over a finite lattice -- the same least
fixpoint as the monolithic worklist engine of
:mod:`repro.oracles.fixpoint`, which the test suite checks).

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

Compiled view: :func:`partition_cones` reads the module once, into
integer ids -- nets in module net order (the numbering of
:attr:`repro.sim.compiled.CompiledProgram.net_index`), instances in
module order, each instance's input and output net ids, each net's
readers -- and computes SCCs (Tarjan), anchors and ownership on those
ids.  What a cone solve reads is kept in a :class:`ConeView`, with a
:class:`ConeCode` per cone: its boundary, internal and port-seeded net
ids and its seeded worklist.  The view rides on the
:class:`ConePartition`, so every domain solved over one partition
shares it.  A cone solve works on module-sized lists indexed by those
ids, with each cell type's transfer function looked up once per run
(the constant and dual domains serve process-wide transfer tables, see
:mod:`repro.analysis.domains`).  Each lookup hashes its store key once;
a miss puts under the same key.
"""

from __future__ import annotations

import hashlib
from operator import itemgetter
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, Iterable, List, NamedTuple, Sequence,
    Tuple,
)

from collections import deque

from ..netlist import Module
from ..netlist.library import Cell
from ..netlist.netlist import Instance, NetlistError
from ..store import (
    ArtifactStore,
    canonical_json,
    content_key,
    get_default_store,
)
from .engine import AbstractDomain, FixpointResult, Value

#: Bump to invalidate every cached cone result (new domain semantics,
#: new payload schema).  Per-module lint findings carry their own
#: :data:`repro.lint.LINT_VERSION`; bump it too when findings change.
ANALYSIS_VERSION = "2"

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


class ConeCode(NamedTuple):
    """One cone's solve code, in the view's integer ids."""

    #: Net ids of ``Cone.boundary_nets``, ``Cone.internal_nets`` and
    #: ``Cone.port_seeded_nets``.
    boundary: Tuple[int, ...]
    internal: Tuple[int, ...]
    port_seeded: Tuple[int, ...]
    #: Sequential members in name order, and their names.
    flops: Tuple[int, ...]
    flop_names: Tuple[str, ...]
    #: Every owned instance, as the seeded worklist: the combinational
    #: ones in the module's combinational order, then the flops.
    order: Tuple[int, ...]


@dataclass(frozen=True)
class ConeView:
    """A module compiled to integer ids, with every cone's solve code.

    Net ids follow module net order, the numbering of
    :attr:`repro.sim.compiled.CompiledProgram.net_index`; instance
    indexes follow module instance order.  Built once by
    :func:`partition_cones` and shared by every domain solved over the
    partition.
    """

    net_names: Tuple[str, ...]
    net_index: Dict[str, int]
    instances: Tuple[Instance, ...]
    #: Distinct cells in first-use order, and each instance's index
    #: into them: a domain's cell functions are looked up per cell.
    cells: Tuple[Cell, ...]
    cell_ids: Tuple[int, ...]
    sequential: Tuple[bool, ...]
    #: Per instance: output net ids in pin order, and a function
    #: reading its input values (pin order) out of a net-value list.
    outputs: Tuple[Tuple[int, ...], ...]
    gather: Tuple[Callable[[Sequence[Value]], Tuple[Value, ...]], ...]
    #: Per net id: the instances reading it, in instance-name order
    #: (once per pin) -- the order a solve wakes a net's consumers in.
    loads: Sequence[Sequence[int]]
    #: Nets driven by an input port only, and loaded nets driven by
    #: nothing: the module-level seeds.
    port_sources: Tuple[int, ...]
    floating: Tuple[int, ...]
    #: Per instance: the index of the cone that owns it.
    cone_of: Sequence[int]
    #: Per cone, in partition order.
    codes: Tuple[ConeCode, ...]
    #: Per net id: indexes of the cones reading it as a boundary net.
    readers: Sequence[Sequence[int]]


@dataclass
class ConePartition:
    """A module's cones in deterministic (anchor-sorted) order, with
    the compiled view every cone solve runs on."""

    module: Module
    cones: List[Cone]
    view: ConeView


def _cone_content_fingerprint(
    module: Module,
    anchor: str,
    instances: Sequence[tuple],
    internal_nets: Sequence[str],
    boundary_nets: Sequence[str],
    port_seeded_nets: Sequence[str],
) -> str:
    """Structural digest of one cone.

    Covers the owned instances (``(name, cell name, sorted pin map)``
    each), the internal/boundary net membership, the port-seed flags
    and the library identity -- everything the local solve reads
    besides the boundary *values* (those key the store entry
    separately).
    """
    body = repr((
        anchor,
        tuple(instances),
        tuple(internal_nets),
        tuple(boundary_nets),
        tuple(port_seeded_nets),
        module.library.name,
        module.library.process_node_um,
    ))
    return hashlib.sha256(body.encode()).hexdigest()


def _no_inputs(values: Sequence[Value]) -> Tuple[Value, ...]:
    return ()


def _gatherer(
    nets: Tuple[int, ...]
) -> Callable[[Sequence[Value]], Tuple[Value, ...]]:
    """``values -> tuple(values[n] for n in nets)``, as cheaply as a
    call can be (an ``itemgetter`` returns a bare value for one net)."""
    if len(nets) > 1:
        return itemgetter(*nets)
    if nets:
        n = nets[0]

        def one_input(values: Sequence[Value]) -> Tuple[Value, ...]:
            return (values[n],)
        return one_input
    return _no_inputs


def _combinational_sccs(
    comb: Sequence[int], successors: Sequence[Sequence[int]]
) -> Tuple[List[int], List[List[int]]]:
    """Iterative Tarjan over the combinational instance graph.

    ``successors[i]`` lists the combinational instances reading an
    output of instance ``i``.  Returns (instance -> component id,
    components).  Components come out in reverse topological order of
    the condensation: every component reachable from one precedes it.
    """
    size = len(successors)
    index_of = [-1] * size
    low = [0] * size
    on_stack = [False] * size
    stack: List[int] = []
    component_of = [-1] * size
    components: List[List[int]] = []
    counter = 0

    for root in comb:
        if index_of[root] >= 0:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, edge_index = work[-1]
            if edge_index == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            targets = successors[node]
            while edge_index < len(targets):
                target = targets[edge_index]
                edge_index += 1
                if index_of[target] < 0:
                    work[-1] = (node, edge_index)
                    work.append((target, 0))
                    advanced = True
                    break
                if on_stack[target] and index_of[target] < low[node]:
                    low[node] = index_of[target]
            if advanced:
                continue
            work.pop()
            if low[node] == index_of[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                for member in component:
                    component_of[member] = len(components)
                components.append(component)
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
    return component_of, components


def partition_cones(module: Module) -> ConePartition:
    """Partition a module's instances into anchored fanin cones.

    The module is read once, into the integer ids of a
    :class:`ConeView`; SCCs, anchors, ownership and every cone's solve
    code are computed on those ids.
    """
    net_names = tuple(module.nets)
    net_index = dict(zip(net_names, range(len(net_names))))
    instances = tuple(module.instances.values())
    names = tuple(module.instances)
    inst_index = dict(zip(names, range(len(names))))

    cells: List[Cell] = []
    cell_slot: Dict[int, int] = {}
    cell_ids: List[int] = []
    inputs: List[Tuple[int, ...]] = []
    outputs: List[Tuple[int, ...]] = []
    net_id = net_index.__getitem__
    for inst in instances:
        cell = inst.cell
        slot = cell_slot.get(id(cell))
        if slot is None:
            slot = cell_slot[id(cell)] = len(cells)
            cells.append(cell)
        cell_ids.append(slot)
        pin_net = inst.connections.__getitem__
        inputs.append(tuple(map(net_id, map(pin_net, cell.input_pins))))
        outputs.append(tuple(map(net_id, map(pin_net, cell.output_pins))))
    sequential = tuple(cells[slot].is_sequential for slot in cell_ids)

    # One pass over the nets: drivers, seeds and output-port anchors.
    driver = [-1] * len(net_names)
    port_driven = [False] * len(net_names)
    port_sources: List[int] = []
    floating: List[int] = []
    port_anchors: Dict[int, List[Tuple[str, str]]] = {}
    for n, net in enumerate(module.nets.values()):
        if net.driver is not None:
            driver[n] = inst_index[net.driver.instance]
        elif net.driver_port is not None:
            port_sources.append(n)
        elif net.loads or net.load_ports:
            floating.append(n)
        port_driven[n] = net.driver_port is not None
        if net.load_ports:
            port_anchors[n] = [
                ("p", port) for port in net.load_ports
                if module.ports[port].direction in ("output", "inout")
            ]

    loads: List[List[int]] = [[] for _ in net_names]
    for i in sorted(range(len(names)), key=names.__getitem__):
        for n in inputs[i]:
            loads[n].append(i)
    comb = [i for i, seq in enumerate(sequential) if not seq]
    successors: List[List[int]] = [[] for _ in names]
    for i in comb:
        successors[i] = [
            j for n in outputs[i] for j in loads[n] if not sequential[j]
        ]
    component_of, components = _combinational_sccs(comb, successors)

    # Min-anchor propagation over the component DAG, sinks first (Tarjan
    # emits every component after the components it reaches).  An
    # anchor is an orderable ``(kind, name)`` label ("f" < "p" by
    # design: flop ownership wins so a cone is the logic feeding one
    # state element); a component reaching none is dead logic and
    # anchors itself.
    anchor_of: List[Tuple[str, str]] = []
    for cid, members in enumerate(components):
        candidates: set[Tuple[str, str]] = set()
        for i in members:
            for n in outputs[i]:
                candidates.update(port_anchors.get(n, ()))
                for j in loads[n]:
                    if sequential[j]:
                        candidates.add(("f", names[j]))
                    elif component_of[j] != cid:
                        candidates.add(anchor_of[component_of[j]])
        anchor_of.append(
            min(candidates) if candidates
            else ("d", min(names[i] for i in members))
        )

    ownership: Dict[Tuple[str, str], List[int]] = {}
    for cid, members in enumerate(components):
        ownership.setdefault(anchor_of[cid], []).extend(members)
    for i, seq in enumerate(sequential):
        if seq:
            ownership.setdefault(("f", names[i]), []).append(i)

    # The seeded worklist order: topological, or name order on a loop.
    try:
        comb_order = [
            inst_index[inst.name]
            for inst in module.topological_combinational_order()
        ]
    except NetlistError:
        comb_order = sorted(comb, key=names.__getitem__)
    comb_rank = [0] * len(names)
    for position, i in enumerate(comb_order):
        comb_rank[i] = position

    net_name = net_names.__getitem__
    cone_of = [0] * len(names)
    cones: List[Cone] = []
    codes: List[ConeCode] = []
    readers: List[List[int]] = [[] for _ in net_names]
    for kind, name in sorted(ownership):
        index = len(cones)
        members = sorted(ownership[(kind, name)], key=names.__getitem__)
        internal_set: set[int] = set()
        read_set: set[int] = set()
        cone_flops: List[int] = []
        for i in members:
            cone_of[i] = index
            internal_set.update(outputs[i])
            read_set.update(inputs[i])
            if sequential[i]:
                cone_flops.append(i)
        internal = tuple(sorted(internal_set, key=net_name))
        boundary = tuple(sorted(read_set - internal_set, key=net_name))
        port_seeded = tuple(n for n in internal if port_driven[n])
        # Sanity: internal nets are driven by cone members only.
        assert set(members).issuperset(map(driver.__getitem__, internal))
        anchor = f"{kind}:{name}"
        internal_nets = tuple(map(net_name, internal))
        boundary_nets = tuple(map(net_name, boundary))
        port_seeded_nets = tuple(map(net_name, port_seeded))
        cones.append(Cone(
            anchor=anchor,
            instances=tuple(names[i] for i in members),
            internal_nets=internal_nets,
            boundary_nets=boundary_nets,
            port_seeded_nets=port_seeded_nets,
            content_fingerprint=_cone_content_fingerprint(
                module, anchor,
                [
                    (names[i], instances[i].cell.name,
                     tuple(sorted(instances[i].connections.items())))
                    for i in members
                ],
                internal_nets, boundary_nets, port_seeded_nets,
            ),
        ))
        codes.append(ConeCode(
            boundary=boundary,
            internal=internal,
            port_seeded=port_seeded,
            flops=tuple(cone_flops),
            flop_names=tuple(map(names.__getitem__, cone_flops)),
            order=tuple(sorted(
                (i for i in members if not sequential[i]),
                key=comb_rank.__getitem__,
            ) + cone_flops),
        ))
        for n in boundary:
            readers[n].append(index)

    view = ConeView(
        net_names=net_names,
        net_index=net_index,
        instances=instances,
        cells=tuple(cells),
        cell_ids=tuple(cell_ids),
        sequential=sequential,
        outputs=tuple(outputs),
        gather=tuple(map(_gatherer, inputs)),
        loads=loads,
        port_sources=tuple(port_sources),
        floating=tuple(floating),
        cone_of=cone_of,
        codes=tuple(codes),
        readers=readers,
    )
    return ConePartition(module=module, cones=cones, view=view)


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

class _Scratch(NamedTuple):
    """Module-sized work arrays one run's cone solves share.

    A solve sets the values of its own boundary and internal nets and
    the state of its own flops before reading any, and leaves every
    in-work flag clear, so nothing needs resetting between solves.
    """

    values: List[Value]
    state: List[Value]
    in_work: List[bool]


def _solve_cone(
    view: ConeView,
    index: int,
    domain: AbstractDomain,
    apply: Sequence[Callable[[Tuple[Value, ...]], Value]],
    boundary_values: Sequence[Value],
    scratch: _Scratch,
) -> Tuple[List[Value], List[Value], int]:
    """Least fixpoint of cone ``index`` with its boundary held fixed.

    Mirrors the monolithic engine exactly -- same seeds, same
    worklist discipline, same visit accounting -- restricted to the
    cone's instances.  ``apply[i]`` is instance ``i``'s transfer (or
    next-state) function.  Returns (internal net values, flop states
    in name order, visits).
    """
    code = view.codes[index]
    bottom = domain.bottom
    values, state, in_work = scratch
    for n, value in zip(code.boundary, boundary_values):
        values[n] = value
    for n in code.internal:
        values[n] = bottom
    loads, cone_of = view.loads, view.cone_of
    work: Deque[int] = deque()
    push = work.append

    def raise_net(n: int, value: Value) -> None:
        joined = values[n] | value
        if joined != values[n]:
            values[n] = joined
            for reader in loads[n]:
                if cone_of[reader] == index and not in_work[reader]:
                    in_work[reader] = True
                    push(reader)

    gather, outputs, sequential = view.gather, view.outputs, view.sequential
    for n in code.port_seeded:
        raise_net(n, domain.input_value(view.net_names[n]))
    for i in code.flops:
        state[i] = bottom | domain.flop_initial(view.instances[i])
        for n in outputs[i]:
            raise_net(n, state[i])
    for i in code.order:
        if not in_work[i]:
            in_work[i] = True
            push(i)

    pop = work.popleft
    visits = 0
    while work:
        i = pop()
        in_work[i] = False
        visits += 1
        result = apply[i](gather[i](values))
        if sequential[i]:
            # State feeds back into next-state (e.g. a latch holding):
            # on a change, raise Q and revisit until stable.
            current = state[i]
            result = current | result
            if result == current:
                continue
            state[i] = result
        for n in outputs[i]:
            raise_net(n, result)
        if sequential[i] and not in_work[i]:
            in_work[i] = True
            push(i)

    return (
        [values[n] for n in code.internal],
        [state[i] for i in code.flops],
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
    store keyed by ``(content fingerprint, boundary values, token)``;
    the key is hashed once per lookup and reused by the put on a miss.
    The outer loop re-queues reader cones whenever a published net
    value grows; on the finite lattices in use this block-chaotic
    iteration converges to the module's unique least fixpoint.
    """
    if store is None:
        store = get_default_store()
    view = partition.view
    bottom = domain.bottom
    # Mask domains encode as themselves; only set values need a codec.
    plain = isinstance(bottom, int)
    functions = [
        domain.cell_next(cell) if cell.is_sequential
        else domain.cell_transfer(cell)
        for cell in view.cells
    ]
    apply = [functions[slot] for slot in view.cell_ids]
    net_names = view.net_names
    values: List[Value] = [bottom] * len(net_names)
    # Source-net seeds: input/inout port nets with no instance driver,
    # and floating-but-loaded nets (port-driven *and* instance-driven
    # nets are seeded inside their owning cone instead).
    for n in view.port_sources:
        values[n] = bottom | domain.input_value(net_names[n])
    for n in view.floating:
        values[n] = bottom | domain.undriven_value(
            module.nets[net_names[n]]
        )
    state: Dict[str, Value] = {}
    scratch = _Scratch(
        values=[bottom] * len(net_names),
        state=[bottom] * len(view.instances),
        in_work=[False] * len(view.instances),
    )

    cones, codes, readers = partition.cones, view.codes, view.readers
    pending: Deque[int] = deque(range(len(cones)))
    in_pending = [True] * len(cones)
    visits = 0
    flops: Iterable[Tuple[str, Value]]
    updates: Iterable[Tuple[int, Value]]
    while pending:
        index = pending.popleft()
        in_pending[index] = False
        cone, code = cones[index], codes[index]
        boundary = [values[n] for n in code.boundary]
        key = content_key(
            CONE_STORE_DOMAIN, ANALYSIS_VERSION,
            (cone.content_fingerprint,),
            [
                domain_token(cone),
                boundary if plain else [encode_value(v) for v in boundary],
            ],
        )
        payload = store.get_by_key(CONE_STORE_DOMAIN, key)
        if payload is None:
            nets, flop_state, cone_visits = _solve_cone(
                view, index, domain, apply, boundary, scratch
            )
            if plain:
                encoded_nets, encoded_flops = nets, flop_state
            else:
                encoded_nets = [encode_value(v) for v in nets]
                encoded_flops = [encode_value(v) for v in flop_state]
            store.put_by_key(CONE_STORE_DOMAIN, key, {
                "nets": dict(zip(cone.internal_nets, encoded_nets)),
                "flops": dict(zip(code.flop_names, encoded_flops)),
                "visits": cone_visits,
            })
            if stats is not None:
                stats.misses += 1
                stats.missed_anchors.append(cone.anchor)
            flops = zip(code.flop_names, flop_state)
            updates = zip(code.internal, nets)
        else:
            if stats is not None:
                stats.hits += 1
            cone_visits = int(payload["visits"])
            flops = payload["flops"].items()
            updates = zip(
                map(view.net_index.__getitem__, payload["nets"]),
                payload["nets"].values(),
            )
            if not plain:
                flops = [(name, decode_value(v)) for name, v in flops]
                updates = [(n, decode_value(v)) for n, v in updates]
        visits += cone_visits
        for name, value in flops:
            state[name] = value
        for n, value in updates:
            if value != values[n]:
                values[n] = value
                for reader in readers[n]:
                    if reader != index and not in_pending[reader]:
                        in_pending[reader] = True
                        pending.append(reader)
    return FixpointResult(
        net_values=dict(zip(net_names, values)),
        flop_state=state,
        visits=visits,
    )


def cone_partition_fingerprint(partition: ConePartition) -> str:
    """Digest of a whole partition (all cone content fingerprints)."""
    body = canonical_json(
        [cone.content_fingerprint for cone in partition.cones]
    )
    return hashlib.sha256(body.encode()).hexdigest()
