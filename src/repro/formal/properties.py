"""Net-level properties: assert / assume / cover with bounded liveness.

The paper's S6 formal box checks *properties* against blocks, not just
equivalence.  This module gives the repository that vocabulary: a tiny
three-valued expression AST over named nets, wrapped into
:class:`Property` declarations (``assert``: must never be violated;
``assume``: environment constraint; ``cover``: must be reachable), and
grouped per module into a :class:`PropertySet`.

Expressions evaluate in Kleene three-valued logic so the *same* object
serves both engines: :meth:`PropExpr.evaluate` reads a simulator (for
counterexample replay, where an ``X`` net yields an ``X`` verdict) and
:meth:`PropExpr.encode` lowers onto dual-rail CNF pairs (for the
bounded model checker, where the identical semantics hold literal for
literal).  Bounded liveness rides the ``within`` field: ``assert p
within n`` demands ``p`` hold at least once in every ``n`` consecutive
frames, the standard sugar for "eventually, soon".

Property sets are **auto-derivable** from facts the static layers
already compute -- see :func:`derive_properties`: provably-constant
nets (:func:`repro.analysis.stuck_nets`) become safety asserts,
one-hot ring registers detected structurally become at-most-one
asserts plus reachability covers, and reset-assured state becomes a
bounded-liveness "settles to known" assert.  Hand-written properties
use the same constructors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..netlist import Logic, Module
from ..sat import CnfBuilder, Pair

__all__ = [
    "AtMostOne",
    "And",
    "Known",
    "NetIs",
    "Not",
    "Or",
    "PropExpr",
    "Property",
    "PropertyError",
    "PropertySet",
    "derive_properties",
    "exactly_one",
    "implies",
]


class PropertyError(ValueError):
    """Malformed property (unknown net, bad operand, bad kind)."""


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------


class PropExpr:
    """Base class of the three-valued property expression AST.

    Subclasses are frozen dataclasses; equality and hashing are
    structural, and :meth:`describe` is the canonical text form used
    in fingerprints.
    """

    def nets(self) -> tuple[str, ...]:
        """Sorted unique nets this expression reads."""
        raise NotImplementedError

    def evaluate(self, read: Callable[[str], Logic]) -> Logic:
        """Kleene value of the expression under a net reader."""
        raise NotImplementedError

    def encode(
        self, builder: CnfBuilder, pair_of: Callable[[str], Pair]
    ) -> Pair:
        """Dual-rail pair of the expression over frame pairs."""
        raise NotImplementedError

    def describe(self) -> str:
        """Canonical text form (stable across processes)."""
        raise NotImplementedError


def _as_kleene(value: Logic) -> Logic:
    """Collapse ``Z`` to ``X`` -- properties see floating as unknown."""
    return Logic.X if value is Logic.Z else value


@dataclass(frozen=True)
class NetIs(PropExpr):
    """``net == value`` for a binary constant; ``X`` nets yield ``X``."""

    net: str
    value: Logic

    def __post_init__(self) -> None:
        if self.value not in (Logic.ZERO, Logic.ONE):
            raise PropertyError(
                f"NetIs needs a binary constant, got {self.value!r}"
            )

    def nets(self) -> tuple[str, ...]:
        return (self.net,)

    def evaluate(self, read: Callable[[str], Logic]) -> Logic:
        value = _as_kleene(read(self.net))
        if not value.is_known:
            return Logic.X
        return Logic.from_bool(value is self.value)

    def encode(
        self, builder: CnfBuilder, pair_of: Callable[[str], Pair]
    ) -> Pair:
        pair = pair_of(self.net)
        return pair if self.value is Logic.ONE else builder.pair_not(pair)

    def describe(self) -> str:
        return f"(is {self.net} {int(self.value)})"


@dataclass(frozen=True)
class Known(PropExpr):
    """``net`` carries a binary value (two-valued verdict)."""

    net: str

    def nets(self) -> tuple[str, ...]:
        return (self.net,)

    def evaluate(self, read: Callable[[str], Logic]) -> Logic:
        return Logic.from_bool(_as_kleene(read(self.net)).is_known)

    def encode(
        self, builder: CnfBuilder, pair_of: Callable[[str], Pair]
    ) -> Pair:
        known = builder.pair_known(pair_of(self.net))
        return (known, -known)

    def describe(self) -> str:
        return f"(known {self.net})"


@dataclass(frozen=True)
class Not(PropExpr):
    """Kleene negation."""

    arg: PropExpr

    def nets(self) -> tuple[str, ...]:
        return self.arg.nets()

    def evaluate(self, read: Callable[[str], Logic]) -> Logic:
        value = self.arg.evaluate(read)
        if not value.is_known:
            return Logic.X
        return Logic.from_bool(value is Logic.ZERO)

    def encode(
        self, builder: CnfBuilder, pair_of: Callable[[str], Pair]
    ) -> Pair:
        return builder.pair_not(self.arg.encode(builder, pair_of))

    def describe(self) -> str:
        return f"(not {self.arg.describe()})"


@dataclass(frozen=True)
class And(PropExpr):
    """Kleene conjunction of one or more operands."""

    args: tuple[PropExpr, ...]

    def __init__(self, *args: PropExpr) -> None:
        if not args:
            raise PropertyError("And needs at least one operand")
        object.__setattr__(self, "args", tuple(args))

    def nets(self) -> tuple[str, ...]:
        return tuple(sorted({n for a in self.args for n in a.nets()}))

    def evaluate(self, read: Callable[[str], Logic]) -> Logic:
        values = [a.evaluate(read) for a in self.args]
        if any(v is Logic.ZERO for v in values):
            return Logic.ZERO
        if all(v is Logic.ONE for v in values):
            return Logic.ONE
        return Logic.X

    def encode(
        self, builder: CnfBuilder, pair_of: Callable[[str], Pair]
    ) -> Pair:
        return builder.pair_and(
            [a.encode(builder, pair_of) for a in self.args]
        )

    def describe(self) -> str:
        inner = " ".join(a.describe() for a in self.args)
        return f"(and {inner})"


@dataclass(frozen=True)
class Or(PropExpr):
    """Kleene disjunction of one or more operands."""

    args: tuple[PropExpr, ...]

    def __init__(self, *args: PropExpr) -> None:
        if not args:
            raise PropertyError("Or needs at least one operand")
        object.__setattr__(self, "args", tuple(args))

    def nets(self) -> tuple[str, ...]:
        return tuple(sorted({n for a in self.args for n in a.nets()}))

    def evaluate(self, read: Callable[[str], Logic]) -> Logic:
        values = [a.evaluate(read) for a in self.args]
        if any(v is Logic.ONE for v in values):
            return Logic.ONE
        if all(v is Logic.ZERO for v in values):
            return Logic.ZERO
        return Logic.X

    def encode(
        self, builder: CnfBuilder, pair_of: Callable[[str], Pair]
    ) -> Pair:
        return builder.pair_or(
            [a.encode(builder, pair_of) for a in self.args]
        )

    def describe(self) -> str:
        inner = " ".join(a.describe() for a in self.args)
        return f"(or {inner})"


@dataclass(frozen=True)
class AtMostOne(PropExpr):
    """At most one of the named nets is ``1`` (one-hot-or-zero).

    Three-valued: definitely violated when two nets are definitely
    ``1``; definitely satisfied when at most one net *could* be ``1``
    (counting ``X`` as maybe); ``X`` otherwise.
    """

    members: tuple[str, ...]

    def __init__(self, members: Iterable[str]) -> None:
        nets = tuple(members)
        if len(set(nets)) != len(nets) or not nets:
            raise PropertyError(
                "AtMostOne needs a non-empty list of distinct nets"
            )
        object.__setattr__(self, "members", nets)

    def nets(self) -> tuple[str, ...]:
        return tuple(sorted(self.members))

    def evaluate(self, read: Callable[[str], Logic]) -> Logic:
        values = [_as_kleene(read(net)) for net in self.members]
        ones = sum(1 for v in values if v is Logic.ONE)
        maybe = sum(1 for v in values if not v.is_known)
        if ones >= 2:
            return Logic.ZERO
        if ones + maybe <= 1:
            return Logic.ONE
        return Logic.X

    def encode(
        self, builder: CnfBuilder, pair_of: Callable[[str], Pair]
    ) -> Pair:
        pairs = [pair_of(net) for net in self.members]
        if len(pairs) == 1:
            return builder.pair_one
        definite: list[int] = []
        possible: list[int] = []
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                definite.append(
                    builder.lit_and((pairs[i][0], pairs[j][0]))
                )
                possible.append(
                    builder.lit_and((-pairs[i][1], -pairs[j][1]))
                )
        return (
            builder.lit_and(-lit for lit in possible),
            builder.lit_or(definite),
        )

    def describe(self) -> str:
        return f"(at-most-one {' '.join(self.members)})"


def implies(antecedent: PropExpr, consequent: PropExpr) -> PropExpr:
    """Kleene implication sugar: ``NOT a OR b``."""
    return Or(Not(antecedent), consequent)


def exactly_one(members: Iterable[str]) -> PropExpr:
    """Exactly one of the nets is ``1``: at-most-one and at-least-one."""
    nets = tuple(members)
    return And(
        AtMostOne(nets),
        Or(*[NetIs(net, Logic.ONE) for net in nets]),
    )


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_KINDS = ("assert", "assume", "cover")


@dataclass(frozen=True)
class Property:
    """One named property over a module's nets.

    ``kind`` is ``assert`` (must hold -- with ``within=n``, must hold
    at least once in every ``n`` consecutive frames), ``assume``
    (constrains every frame of the environment during BMC) or
    ``cover`` (some reachable frame -- within ``within`` frames when
    set -- must satisfy the expression).
    """

    name: str
    kind: str
    expr: PropExpr
    within: int = 1
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise PropertyError(
                f"kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.within < 1:
            raise PropertyError("within must be >= 1")
        if self.kind == "assume" and self.within != 1:
            raise PropertyError("assume properties cannot use within")

    @property
    def fingerprint(self) -> str:
        """Stable 12-hex id over kind, name, expression and window."""
        text = f"{self.kind}|{self.name}|{self.expr.describe()}" \
               f"|{self.within}"
        return hashlib.sha1(text.encode()).hexdigest()[:12]

    def to_dict(self) -> dict[str, object]:
        """Canonical JSON-ready form."""
        return {
            "expr": self.expr.describe(),
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "message": self.message,
            "name": self.name,
            "within": self.within,
        }


@dataclass(frozen=True)
class PropertySet:
    """The properties declared against one module."""

    module: str
    properties: tuple[Property, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [p.name for p in self.properties]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise PropertyError(f"duplicate property names: {dupes}")

    def __iter__(self):  # type: ignore[no-untyped-def]
        return iter(self.properties)

    def __len__(self) -> int:
        return len(self.properties)

    def of_kind(self, kind: str) -> tuple[Property, ...]:
        """The subset with the given kind, declaration order."""
        return tuple(p for p in self.properties if p.kind == kind)

    def merged(self, *others: "PropertySet") -> "PropertySet":
        """Union of several sets over the same module."""
        props = list(self.properties)
        for other in others:
            if other.module != self.module:
                raise PropertyError(
                    f"cannot merge sets for {self.module!r} and "
                    f"{other.module!r}"
                )
            props.extend(other.properties)
        return PropertySet(self.module, tuple(props))


# ---------------------------------------------------------------------------
# Derivation from static facts
# ---------------------------------------------------------------------------


def _trace_to_flop(module: Module, net: str) -> str | None:
    """Flop instance whose Q reaches ``net`` through buffers only."""
    current = net
    for _ in range(len(module.instances) + 1):
        driver_pin = module.nets[current].driver
        if driver_pin is None:
            return None
        driver = module.instances[driver_pin.instance]
        if driver.cell.is_sequential:
            return driver.name
        pins = driver.cell.input_pins
        if len(pins) != 1 or driver.cell.footprint != "BUF":
            return None
        current = driver.net_of(pins[0])
    return None


def _shift_rings(module: Module) -> list[list[str]]:
    """One-hot ring candidates as flop-name cycles.

    A ring is a maximal chain of flops each of whose data input is a
    buffer-only path from the previous flop's Q, closed back into the
    head flop's data *cone* through arbitrary re-injection logic (the
    self-healing idiom of :func:`repro.netlist.generators.one_hot_ring`
    and of synthesized one-hot FSMs).
    """
    flops = [
        inst for inst in module.sequential_instances
        if inst.cell.data_pin is not None
    ]
    by_name = {inst.name: inst for inst in flops}
    # pure[f] = g: flop f's D is a buffer-only path from flop g's Q.
    pure: dict[str, str] = {}
    for inst in flops:
        source = _trace_to_flop(
            module, inst.net_of(inst.cell.data_pin)
        )
        if source is not None and source in by_name:
            pure[inst.name] = source
    successors: dict[str, list[str]] = {}
    for name, source in pure.items():
        successors.setdefault(source, []).append(name)

    rings: list[list[str]] = []
    used: set[str] = set()
    for head in sorted(by_name):
        if head in used or head in pure:
            continue  # chains start at a flop with gate-driven D
        chain = [head]
        current = head
        while True:
            nexts = sorted(successors.get(current, []))
            if len(nexts) != 1 or nexts[0] in used or nexts[0] == head:
                break
            current = nexts[0]
            chain.append(current)
        if len(chain) < 3:
            continue
        # Closed ring: the tail's Q must feed the head's data cone.
        tail_q = by_name[chain[-1]].net_of("Q")
        head_inst = by_name[head]
        cone: set[str] = set()
        stack = [head_inst.net_of(head_inst.cell.data_pin)]
        while stack:
            net = stack.pop()
            if net in cone:
                continue
            cone.add(net)
            driver_pin = module.nets[net].driver
            if driver_pin is None:
                continue
            driver = module.instances[driver_pin.instance]
            if driver.cell.is_sequential:
                continue
            stack.extend(
                driver.net_of(pin) for pin in driver.cell.input_pins
            )
        if tail_q in cone:
            rings.append(chain)
            used.update(chain)
    return rings


def derive_properties(
    module: Module,
    *,
    include: Sequence[str] = ("const", "onehot", "sync"),
    max_const: int = 8,
) -> PropertySet:
    """Derive a property set from lint/analysis facts about ``module``.

    ``include`` selects the derivation families:

    * ``const`` -- every net :func:`repro.analysis.stuck_nets` proves
      constant becomes a safety assert (capped at ``max_const``, in
      net order);
    * ``onehot`` -- detected one-hot shift rings become an at-most-one
      assert over the ring's state nets plus a reachability cover of
      the head bit;
    * ``sync`` -- reset-assured state must settle to a known binary
      value within two frames (one aggregated bounded-liveness
      assert).
    """
    from ..analysis import analyze_module, stuck_nets

    props: list[Property] = []
    if "const" in include:
        analysis = analyze_module(module)
        for net, value in stuck_nets(analysis)[:max_const]:
            props.append(Property(
                name=f"const_{net}",
                kind="assert",
                expr=NetIs(net, Logic.ONE if value == "1"
                           else Logic.ZERO),
                message=f"net {net} is provably stuck at {value}",
            ))
    if "onehot" in include:
        for ring in _shift_rings(module):
            q_nets = [
                module.instances[name].net_of("Q") for name in ring
            ]
            head = ring[0]
            props.append(Property(
                name=f"onehot_{head}",
                kind="assert",
                expr=AtMostOne(q_nets),
                message=f"ring {head}..{ring[-1]} must stay one-hot",
            ))
            props.append(Property(
                name=f"onehot_{head}_reach",
                kind="cover",
                expr=NetIs(q_nets[0], Logic.ONE),
                message=f"ring head {head} must be reachable",
            ))
    if "sync" in include:
        analysis = analyze_module(module)
        assured = sorted(analysis.reset_assured)
        if assured:
            props.append(Property(
                name="sync_settle",
                kind="assert",
                expr=And(*[
                    Known(module.instances[name].net_of("Q"))
                    for name in assured
                ]),
                within=2,
                message="reset-assured state settles to binary "
                        "values within two frames",
            ))
    return PropertySet(module.name, tuple(props))
