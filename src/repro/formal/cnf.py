"""Tseitin CNF construction with dual-rail four-value pairs.

SAT ATPG, combinational equivalence and the BMC unroller all lower
logic into clauses through this builder.  Three layers live here:

* a **gate layer** -- :meth:`CnfBuilder.gate`, the one cell encoder:
  prime-cube clauses per truth table, constant and repeated inputs
  folded away, unguarded gates hashed on (table, input literals);

* a **boolean layer** -- :meth:`CnfBuilder.lit_and` /
  :meth:`CnfBuilder.lit_or` Tseitin-encode AND/OR nodes over DIMACS
  literals with constant folding and structural hashing (the same
  ``AND(a, b)`` requested twice yields one variable, so the unrolled
  formula stays near the size of the levelized program);

* a **dual-rail layer** -- a net's four-value state at one frame is a
  :data:`Pair` ``(is_one, is_zero)`` of literals: ``(1, 0)`` encodes
  logic ``1``, ``(0, 1)`` encodes ``0``, and ``(0, 0)`` encodes ``X``
  (``Z`` collapses to ``X`` exactly as the compiled simulator's
  bit-plane kernel does; binary stimulus never produces it).  Both
  rails true is unrepresentable by construction for pairs built
  through this module.  A *binary* pair is one literal and its
  negation, ``(v, -v)`` -- constants, :meth:`pair_free` inputs, and
  every net the BMC unroller proves X-free by construction -- and
  the ``x AND -x`` fold turns :meth:`pair_is_x` and
  :meth:`pair_known` over it into constants without a new variable.
  Kleene connectives over pairs (:meth:`pair_and`, :meth:`pair_or`,
  :meth:`pair_not`) mirror the ``is1``/``is0`` plane equations of
  :mod:`repro.sim.compiled`.

Word-level comparators (:meth:`ge_const` / :meth:`lt_const`) encode
``address >= base`` style predicates for the bus-window exclusivity
check, LSB-first over binary pair rails.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from ..netlist import Logic
from .cdcl import SatError, Solver

__all__ = ["CnfBuilder", "Pair", "XOR2"]

#: A net value at one frame: ``(is_one, is_zero)`` literals.
Pair = tuple[int, int]


#: Truth table of a two-input XOR, as :meth:`CnfBuilder.gate` takes it.
XOR2 = 0b0110


@lru_cache(maxsize=None)
def _prime_clauses(table: int, n: int) -> tuple[tuple[int, int, bool], ...]:
    """Clause templates ``(care mask, value, output polarity)`` of a
    truth table over ``n`` inputs: its on-set's prime cubes imply 1 and
    its off-set's imply 0, so one controlling input propagates."""
    templates: list[tuple[int, int, bool]] = []
    for polarity in (True, False):
        cubes = {((1 << n) - 1, row) for row in range(1 << n)
                 if (table >> row & 1) == polarity}
        primes: set[tuple[int, int]] = set()
        while cubes:
            merged: set[tuple[int, int]] = set()
            for mask, value in cubes:
                bits = [1 << k for k in range(n) if mask >> k & 1
                        and (mask, value ^ 1 << k) in cubes]
                merged.update((mask & ~bit, value & ~bit) for bit in bits)
                if not bits:
                    primes.add((mask, value))
            cubes = merged
        templates += [(mask, value, polarity)
                      for mask, value in sorted(primes)]
    return tuple(templates)


class CnfBuilder:
    """Structural-hashing Tseitin encoder over a :class:`Solver`.

    One builder owns one solver: variables allocated here and clauses
    added here go straight into the solver's database, so a BMC run is
    "build frames, then :meth:`Solver.solve`" with no intermediate
    clause list.
    """

    def __init__(self, solver: Solver) -> None:
        self.solver = solver
        #: Literal that is true in every model (backed by a unit
        #: clause); its negation is the constant-false literal.
        self.true_lit = solver.new_var()
        solver.add_clause([self.true_lit])
        self.false_lit = -self.true_lit
        self.pair_one: Pair = (self.true_lit, self.false_lit)
        self.pair_zero: Pair = (self.false_lit, self.true_lit)
        self.pair_x: Pair = (self.false_lit, self.false_lit)
        self._cache: dict[tuple[int, ...], int] = {}
        self._gates: dict[tuple[int, tuple[int, ...]], int] = {}

    # -- gate layer ----------------------------------------------------

    def gate(self, table: int, inputs: Sequence[int], guard: int = 0) -> int:
        """A literal equal to function ``table`` of ``inputs`` (bit ``r``
        is the output for the row whose bit ``k`` is ``inputs[k]``): a
        constant or input literal when the gate folds to one, else a
        variable whose prime-cube clauses each carry ``-guard`` when
        ``guard`` is nonzero; only unguarded gates are hashed."""
        variables = [abs(lit) for lit in inputs]
        if self.true_lit in variables or len(set(variables)) < len(inputs):
            # Cofactor constants out and merge repeated variables.
            free = tuple(dict.fromkeys(
                var for var in variables if var != self.true_lit))
            folded = 0
            for row in range(1 << len(free)):
                bits = {var: row >> k & 1 for k, var in enumerate(free)}
                bits[self.true_lit] = 1
                index = sum((bits[abs(lit)] ^ (lit < 0)) << k
                            for k, lit in enumerate(inputs))
                folded |= (table >> index & 1) << row
            table, inputs = folded, free
        n = len(inputs)
        if table in (0, (1 << (1 << n)) - 1):  # a constant
            return self.true_lit if table else self.false_lit
        if n == 1:  # a buffer or an inverter
            return inputs[0] if table == 2 else -inputs[0]
        key = (table, tuple(inputs))
        if not guard and key in self._gates:
            return self._gates[key]
        out = self.solver.new_var()
        tail = [-guard] if guard else []
        for mask, value, polarity in _prime_clauses(table, n):
            self.solver.add_clause([
                -lit if value >> k & 1 else lit
                for k, lit in enumerate(inputs) if mask >> k & 1
            ] + [out if polarity else -out] + tail)
        if not guard:
            self._gates[key] = out
        return out

    # -- boolean layer -------------------------------------------------

    def new_var(self) -> int:
        """A fresh unconstrained variable (positive literal)."""
        return self.solver.new_var()

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a raw clause over existing literals."""
        self.solver.add_clause(lits)

    def lit_and(self, lits: Iterable[int]) -> int:
        """A literal equivalent to the conjunction of ``lits``.

        Constants fold away, ``x AND -x`` collapses to false, and the
        result is structurally hashed: the same literal multiset maps
        to the same output variable.
        """
        folded: list[int] = []
        seen: set[int] = set()
        for lit in lits:
            if lit == self.false_lit:
                return self.false_lit
            if lit == self.true_lit or lit in seen:
                continue
            if -lit in seen:
                return self.false_lit
            seen.add(lit)
            folded.append(lit)
        if not folded:
            return self.true_lit
        if len(folded) == 1:
            return folded[0]
        key = tuple(sorted(folded))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        gate = self.solver.new_var()
        for lit in key:
            self.solver.add_clause([-gate, lit])
        self.solver.add_clause([gate] + [-lit for lit in key])
        self._cache[key] = gate
        return gate

    def lit_or(self, lits: Iterable[int]) -> int:
        """A literal equivalent to the disjunction of ``lits``.

        Encoded as ``NOT(AND(NOT ...))`` so ``OR(a, b)`` and
        ``AND(-a, -b)`` share one structural-hash entry.
        """
        return -self.lit_and(-lit for lit in lits)

    # -- dual-rail layer ----------------------------------------------

    def pair_const(self, value: Logic) -> Pair:
        """The constant pair for a four-value literal (``Z`` -> ``X``)."""
        if value is Logic.ONE:
            return self.pair_one
        if value is Logic.ZERO:
            return self.pair_zero
        return self.pair_x

    def pair_free(self) -> Pair:
        """A fresh *binary* pair: one decision variable, never ``X``."""
        var = self.solver.new_var()
        return (var, -var)

    def pair_not(self, pair: Pair) -> Pair:
        """Kleene negation: swap the rails (``X`` stays ``X``)."""
        return (pair[1], pair[0])

    def pair_and(self, pairs: Sequence[Pair]) -> Pair:
        """Kleene conjunction: one iff all one, zero iff any zero."""
        return (
            self.lit_and(p[0] for p in pairs),
            self.lit_or(p[1] for p in pairs),
        )

    def pair_or(self, pairs: Sequence[Pair]) -> Pair:
        """Kleene disjunction: one iff any one, zero iff all zero."""
        return (
            self.lit_or(p[0] for p in pairs),
            self.lit_and(p[1] for p in pairs),
        )

    def pair_known(self, pair: Pair) -> int:
        """Literal: this pair carries a binary (non-``X``) value."""
        return self.lit_or(pair)

    def pair_is_x(self, pair: Pair) -> int:
        """Literal: this pair is ``X`` (neither rail set)."""
        return self.lit_and((-pair[0], -pair[1]))

    # -- word comparators ---------------------------------------------

    def ge_const(self, bits: Sequence[int], value: int) -> int:
        """Literal: unsigned word ``bits`` (LSB-first) >= ``value``."""
        if value < 0:
            raise SatError("comparator bound must be non-negative")
        if value >> len(bits):
            return self.false_lit
        result = self.true_lit
        for position, bit in enumerate(bits):
            if (value >> position) & 1:
                result = self.lit_and((bit, result))
            else:
                result = self.lit_or((bit, result))
        return result

    def lt_const(self, bits: Sequence[int], value: int) -> int:
        """Literal: unsigned word ``bits`` (LSB-first) < ``value``."""
        return -self.ge_const(bits, value)
