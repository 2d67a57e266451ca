"""Flat gate-level netlist intermediate representation.

A :class:`Module` is a flat interconnection of standard-cell
:class:`Instance` objects and module :class:`Port` objects joined by
:class:`Net` objects.  It is the shared substrate under simulation
(:mod:`repro.sim`), DFT (:mod:`repro.dft`), static timing
(:mod:`repro.sta`), placement (:mod:`repro.physical`) and ECO
(:mod:`repro.eco`) -- the same role the Verilog netlist plays in the
paper's flow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .library import Cell, StdCellLibrary


class NetlistError(Exception):
    """Structural problem in a netlist (bad connection, double driver...)."""


@dataclass(frozen=True)
class PinRef:
    """Reference to one pin of one instance."""

    instance: str
    pin: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.instance}.{self.pin}"


def _without_pin(
    loads: list[PinRef], instance: str, pin: str
) -> list[PinRef]:
    """``loads`` minus one pin, in order.  Compares the two fields
    directly: ECO loops (scan insertion removes and re-adds every
    flop) filter clock and reset nets with thousands of loads, where
    the generated ``PinRef.__eq__`` dominated."""
    return [
        ref for ref in loads if ref.pin != pin or ref.instance != instance
    ]


@dataclass
class Port:
    """A module-level port."""

    name: str
    direction: str  # "input" | "output" | "inout"

    def __post_init__(self) -> None:
        if self.direction not in ("input", "output", "inout"):
            raise NetlistError(f"bad port direction {self.direction!r}")


@dataclass
class Net:
    """A wire connecting one driver to any number of loads."""

    name: str
    driver: PinRef | None = None  # None when driven by an input port
    driver_port: str | None = None
    loads: list[PinRef] = field(default_factory=list)
    load_ports: list[str] = field(default_factory=list)

    @property
    def is_driven(self) -> bool:
        return self.driver is not None or self.driver_port is not None

    @property
    def fanout(self) -> int:
        return len(self.loads) + len(self.load_ports)


@dataclass
class Instance:
    """One placed occurrence of a library cell."""

    name: str
    cell: Cell
    connections: dict[str, str] = field(default_factory=dict)  # pin -> net name

    def net_of(self, pin: str) -> str:
        try:
            return self.connections[pin]
        except KeyError:
            raise NetlistError(
                f"instance {self.name} pin {pin!r} is unconnected"
            ) from None


class Module:
    """A flat gate-level netlist."""

    def __init__(self, name: str, library: StdCellLibrary) -> None:
        self.name = name
        self.library = library
        self.ports: dict[str, Port] = {}
        self.nets: dict[str, Net] = {}
        self.instances: dict[str, Instance] = {}
        self._topo_cache: list[Instance] | None = None
        self._fingerprint_cache: str | None = None

    # -- construction -------------------------------------------------

    def add_port(self, name: str, direction: str) -> Port:
        """Declare a module port and its identically-named net."""
        if name in self.ports:
            raise NetlistError(f"duplicate port {name!r}")
        port = Port(name, direction)
        self.ports[name] = port
        net = self.add_net(name)
        if direction in ("input", "inout"):
            net.driver_port = name
        if direction in ("output", "inout"):
            net.load_ports.append(name)
        self._invalidate()
        return port

    def add_net(self, name: str) -> Net:
        """Declare a net; re-declaring an existing name is an error."""
        if name in self.nets:
            raise NetlistError(f"duplicate net {name!r}")
        net = Net(name)
        self.nets[name] = net
        self._invalidate()
        return net

    def get_or_add_net(self, name: str) -> Net:
        """Fetch a net, declaring it on first use."""
        existing = self.nets.get(name)
        if existing is not None:
            return existing
        return self.add_net(name)

    def add_instance(
        self, name: str, cell_name: str, connections: dict[str, str]
    ) -> Instance:
        """Instantiate ``cell_name`` with a full pin->net mapping.

        Nets named in ``connections`` are created on demand.  Every
        cell pin must be connected; the net driven by the output pin
        must not already have another driver.
        """
        if name in self.instances:
            raise NetlistError(f"duplicate instance {name!r}")
        cell = self.library[cell_name]
        missing = set(p.name for p in cell.pins) - set(connections)
        if missing:
            raise NetlistError(
                f"instance {name}: unconnected pins {sorted(missing)}"
            )
        extra = set(connections) - set(p.name for p in cell.pins)
        if extra:
            raise NetlistError(f"instance {name}: unknown pins {sorted(extra)}")

        inst = Instance(name, cell, dict(connections))
        for pin_name, net_name in connections.items():
            net = self.get_or_add_net(net_name)
            ref = PinRef(name, pin_name)
            if cell.pin(pin_name).direction == "output":
                if net.is_driven:
                    raise NetlistError(
                        f"net {net_name!r} already driven; cannot add {ref}"
                    )
                net.driver = ref
            else:
                net.loads.append(ref)
        self.instances[name] = inst
        self._invalidate()
        return inst

    def remove_instance(self, name: str) -> Instance:
        """Delete an instance, detaching it from its nets."""
        try:
            inst = self.instances.pop(name)
        except KeyError:
            raise NetlistError(f"no instance {name!r}") from None
        for pin_name, net_name in inst.connections.items():
            net = self.nets[net_name]
            ref = PinRef(name, pin_name)
            if net.driver == ref:
                net.driver = None
            else:
                net.loads = _without_pin(net.loads, name, pin_name)
        self._invalidate()
        return inst

    def rewire_pin(self, instance: str, pin: str, new_net: str) -> None:
        """Move one instance pin onto a different net (ECO primitive)."""
        inst = self.instances[instance]
        old_net = self.nets[inst.net_of(pin)]
        net = self.get_or_add_net(new_net)
        ref = PinRef(instance, pin)
        if inst.cell.pin(pin).direction == "output":
            if net.is_driven and net.driver != ref:
                raise NetlistError(f"net {new_net!r} already driven")
            if old_net.driver == ref:
                old_net.driver = None
            net.driver = ref
        else:
            old_net.loads = _without_pin(old_net.loads, instance, pin)
            net.loads.append(ref)
        inst.connections[pin] = new_net
        self._invalidate()

    def swap_cell(self, instance: str, new_cell_name: str) -> None:
        """Replace an instance's cell with a pin-compatible one.

        Used for drive-strength resizing and footprint-compatible ECO
        swaps; pin names must match exactly.
        """
        inst = self.instances[instance]
        new_cell = self.library[new_cell_name]
        old_pins = {p.name: p.direction for p in inst.cell.pins}
        new_pins = {p.name: p.direction for p in new_cell.pins}
        if old_pins != new_pins:
            raise NetlistError(
                f"cell {new_cell_name} is not pin-compatible with "
                f"{inst.cell.name} on instance {instance}"
            )
        inst.cell = new_cell
        self._invalidate()

    # -- queries ------------------------------------------------------

    def _invalidate(self) -> None:
        self._topo_cache = None
        self._fingerprint_cache = None

    @property
    def sequential_instances(self) -> list[Instance]:
        """All flip-flop/latch instances."""
        return [i for i in self.instances.values() if i.cell.is_sequential]

    @property
    def combinational_instances(self) -> list[Instance]:
        """All instances with a logic function and no state."""
        return [i for i in self.instances.values() if not i.cell.is_sequential]

    @property
    def gate_count(self) -> int:
        """Total instance count (the paper's '240K gates' metric)."""
        return len(self.instances)

    @property
    def total_area_um2(self) -> float:
        """Sum of cell areas."""
        return sum(i.cell.area_um2 for i in self.instances.values())

    def net_driver_value_source(self, net: Net) -> PinRef | str | None:
        """The thing that determines a net's value: pin ref or port name."""
        if net.driver is not None:
            return net.driver
        return net.driver_port

    def fanin_instances(self, inst: Instance) -> Iterator[Instance]:
        """Instances driving this instance's input pins."""
        for pin in inst.cell.input_pins:
            net = self.nets[inst.net_of(pin)]
            if net.driver is not None:
                yield self.instances[net.driver.instance]

    def fanout_instances(self, inst: Instance) -> Iterator[Instance]:
        """Instances loaded by this instance's output pins."""
        for pin in inst.cell.output_pins:
            net = self.nets[inst.net_of(pin)]
            for load in net.loads:
                yield self.instances[load.instance]

    def topological_combinational_order(self) -> list[Instance]:
        """Combinational instances in evaluation order.

        Sequential cell outputs and input ports are treated as primary
        sources.  Raises :class:`NetlistError` on a combinational loop.
        """
        if self._topo_cache is not None:
            return self._topo_cache

        indegree: dict[str, int] = {}
        dependents: dict[str, list[str]] = {}
        for inst in self.instances.values():
            if inst.cell.is_sequential:
                continue
            count = 0
            for pin in inst.cell.input_pins:
                net = self.nets[inst.net_of(pin)]
                drv = net.driver
                if drv is not None:
                    source = self.instances[drv.instance]
                    if not source.cell.is_sequential:
                        count += 1
                        dependents.setdefault(drv.instance, []).append(inst.name)
            indegree[inst.name] = count

        ready = deque(name for name, deg in indegree.items() if deg == 0)
        order: list[Instance] = []
        while ready:
            name = ready.popleft()
            order.append(self.instances[name])
            for dep in dependents.get(name, ()):  # may repeat per pin
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(indegree):
            cycle = self.find_combinational_cycle()
            if cycle:
                path = " -> ".join(cycle + [cycle[0]])
            else:  # pragma: no cover - unreachable when topo failed
                path = f"{len(indegree) - len(order)} instances unordered"
            raise NetlistError(
                f"combinational loop in module {self.name}: {path}"
            )
        self._topo_cache = order
        return order

    def find_combinational_cycle(self) -> list[str] | None:
        """One combinational cycle as an instance-name path, or None.

        The returned list is the cycle body (closing edge implied) and
        is normalised to start at its lexicographically smallest member
        so the same loop always reports the same path.
        """
        adjacency: dict[str, list[str]] = {}
        for inst in self.instances.values():
            if inst.cell.is_sequential:
                continue
            targets: list[str] = []
            for pin in inst.cell.output_pins:
                net = self.nets[inst.net_of(pin)]
                for load in net.loads:
                    sink = self.instances[load.instance]
                    if not sink.cell.is_sequential:
                        targets.append(sink.name)
            adjacency[inst.name] = targets

        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in adjacency}
        for start in adjacency:
            if color[start] != WHITE:
                continue
            stack: list[tuple[str, Iterator[str]]] = [
                (start, iter(adjacency[start]))
            ]
            color[start] = GREY
            path = [start]
            while stack:
                name, targets = stack[-1]
                advanced = False
                for target in targets:
                    if color[target] == GREY:
                        cycle = path[path.index(target):]
                        pivot = cycle.index(min(cycle))
                        return cycle[pivot:] + cycle[:pivot]
                    if color[target] == WHITE:
                        color[target] = GREY
                        path.append(target)
                        stack.append((target, iter(adjacency[target])))
                        advanced = True
                        break
                if not advanced:
                    color[name] = BLACK
                    stack.pop()
                    path.pop()
        return None

    def copy(self, name: str | None = None) -> "Module":
        """Deep structural copy (shares the immutable library/cells)."""
        dup = Module(name or self.name, self.library)
        for port in self.ports.values():
            dup.ports[port.name] = Port(port.name, port.direction)
        for net in self.nets.values():
            dup.nets[net.name] = Net(
                net.name,
                driver=net.driver,
                driver_port=net.driver_port,
                loads=list(net.loads),
                load_ports=list(net.load_ports),
            )
        for inst in self.instances.values():
            dup.instances[inst.name] = Instance(
                inst.name, inst.cell, dict(inst.connections)
            )
        return dup

    def structural_signature(self) -> tuple:
        """A hashable summary used for quick is-this-the-same-design checks."""
        insts = tuple(
            sorted(
                (i.name, i.cell.name, tuple(sorted(i.connections.items())))
                for i in self.instances.values()
            )
        )
        ports = tuple(sorted((p.name, p.direction) for p in self.ports.values()))
        return (self.name, ports, insts)

    def fingerprint(self) -> str:
        """Stable content digest keying per-module compile caches.

        Covers the structural signature, the full net-name set (nets
        may exist without instances) and the library identity: two
        modules with equal fingerprints levelize to the same compiled
        simulation program (cell *behaviour* is assumed fixed per
        library name/process node, which holds for libraries built by
        :func:`make_default_library`).  Cached until the module is
        structurally edited; process-independent, unlike ``hash()``.
        """
        if self._fingerprint_cache is None:
            import hashlib

            payload = repr((
                self.structural_signature(),
                tuple(sorted(self.nets)),
                self.library.name,
                self.library.process_node_um,
            ))
            self._fingerprint_cache = hashlib.sha256(
                payload.encode()
            ).hexdigest()
        return self._fingerprint_cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Module {self.name}: {len(self.instances)} instances, "
            f"{len(self.nets)} nets, {len(self.ports)} ports>"
        )
