"""A small deterministic CDCL SAT solver.

The bounded-model-checking engine of :mod:`repro.formal.bmc` needs a
complete SAT decision procedure that the repository can ship without
external dependencies, and -- like every other engine here -- one whose
answers are a *pure function of the input*.  This is a classic
conflict-driven clause-learning solver in the MiniSat mould:

* **two-watched-literal** unit propagation;
* **1UIP conflict analysis** with clause learning and non-chronological
  backjumping;
* **VSIDS** variable activities (exponential bump/decay) driving the
  decision heuristic, with *fixed seeded tie-breaking*: equal
  activities resolve through a per-variable jitter derived from
  ``crc32(seed, var)``, so two solves of the same formula -- in any
  process, on any worker of a fan-out -- take byte-identical paths;
* **Luby restarts** keyed on conflict counts (never wall time);
* **assumption literals** with failed-assumption core extraction, the
  hook the unsat-core-lite of BMC builds on;
* **incremental use**: every :meth:`Solver.solve` returns at decision
  level 0 (a satisfying model is kept as a snapshot), so clauses and
  variables may be added between solves while learned clauses carry
  over, and an optional per-call conflict budget ends a solve with
  ``None`` -- neither SAT nor UNSAT.  SAT-based ATPG
  (:mod:`repro.dft.atpg`) is the incremental client.

Literals use the DIMACS convention: variable ``v`` is the positive
literal ``v`` and its negation ``-v``; variables are 1-based and
allocated through :meth:`Solver.new_var`.

Determinism contract: :meth:`Solver.solve` never consults the clock,
the process id, or any global randomness.  Statistics (decisions,
conflicts, propagations) are therefore themselves reproducible and may
be embedded in canonical JSON reports.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = ["SatError", "Solver", "SolverStats", "luby"]


class SatError(Exception):
    """Malformed clause or literal handed to the solver."""


def luby(index: int) -> int:
    """The ``index``-th term (1-based) of the Luby restart sequence.

    1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... -- the optimal universal restart
    schedule; the solver multiplies it by a base conflict budget.
    """
    if index < 1:
        raise SatError("luby index is 1-based")
    x = index - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


@dataclass
class SolverStats:
    """Deterministic search statistics of one :meth:`Solver.solve`."""

    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    learned: int = 0
    restarts: int = 0
    max_learned_length: int = 0

    def to_dict(self) -> dict[str, int]:
        """Sorted JSON-ready form."""
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "learned": self.learned,
            "max_learned_length": self.max_learned_length,
            "propagations": self.propagations,
            "restarts": self.restarts,
        }


@dataclass
class _VarOrder:
    """VSIDS order: activity-sorted heap with seeded tie-breaking."""

    seed: int
    activity: list[float] = field(default_factory=lambda: [0.0])
    jitter: list[float] = field(default_factory=lambda: [0.0])
    heap: list[tuple[float, int]] = field(default_factory=list)

    def new_var(self, var: int) -> None:
        # Tiny per-(seed, var) jitter so exact activity ties still have
        # a fixed, seed-controlled resolution order.
        noise = zlib.crc32(f"{self.seed}:{var}".encode()) / 2**32
        self.activity.append(0.0)
        self.jitter.append(noise * 1e-12)
        self.push(var)

    def push(self, var: int) -> None:
        import heapq

        heapq.heappush(
            self.heap, (-(self.activity[var] + self.jitter[var]), var)
        )

    def pop_unassigned(self, assign: list[int]) -> int:
        """Highest-activity unassigned variable (0 when none left)."""
        import heapq

        while self.heap:
            key, var = heapq.heappop(self.heap)
            if assign[var] == 0 and \
                    key == -(self.activity[var] + self.jitter[var]):
                return var
        return 0


class Solver:
    """Deterministic CDCL solver over DIMACS-style integer literals.

    Typical use::

        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a])
        assert solver.solve()
        assert solver.value(b)

    After an UNSAT :meth:`solve` under assumptions, :attr:`core` holds
    the subset of assumption literals the refutation actually used.
    """

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed
        self.n_vars = 0
        self.stats = SolverStats()
        #: After UNSAT-under-assumptions: the failed assumption subset.
        self.core: tuple[int, ...] = ()
        self._clauses: list[list[int]] = []
        self._watches: dict[int, list[list[int]]] = {}
        self._assign: list[int] = [0]  # 1 true, -1 false, 0 free
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._polarity: list[bool] = [False]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._order = _VarOrder(seed)
        self._var_inc = 1.0
        self._unsat = False  # empty clause / level-0 conflict seen
        self._model: list[int] = [0]  # assignment snapshot of the last SAT

    # -- problem construction -----------------------------------------

    def new_var(self) -> int:
        """Allocate and return a fresh variable (positive literal)."""
        self.n_vars += 1
        var = self.n_vars
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._polarity.append(False)
        self._watches[var] = []
        self._watches[-var] = []
        self._order.new_var(var)
        return var

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add one clause; duplicates collapse, tautologies vanish.

        Must be called at decision level 0 (before or between solves).
        """
        if self._trail_lim:
            raise SatError("clauses must be added at decision level 0")
        seen: dict[int, bool] = {}
        clause: list[int] = []
        for lit in lits:
            var = abs(lit)
            if not 0 < var <= self.n_vars:
                raise SatError(f"unknown literal {lit}")
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen[lit] = True
                clause.append(lit)
        # Drop literals already false at level 0; satisfied clauses
        # vanish entirely.
        filtered: list[int] = []
        for lit in clause:
            value = self._lit_value(lit)
            if value == 1 and self._level[abs(lit)] == 0:
                return
            if value == -1 and self._level[abs(lit)] == 0:
                continue
            filtered.append(lit)
        if not filtered:
            self._unsat = True
            return
        if len(filtered) == 1:
            if not self._enqueue(filtered[0], None):
                self._unsat = True
            elif self._propagate() is not None:
                self._unsat = True
            return
        self._attach(filtered)

    # -- observation ---------------------------------------------------

    def value(self, lit: int) -> bool:
        """Model value of ``lit`` after a satisfiable solve."""
        var = abs(lit)
        value = self._model[var] if var < len(self._model) else 0
        if value == 0:
            raise SatError(f"literal {lit} unassigned (no model?)")
        return (value == 1) == (lit > 0)

    def model(self) -> dict[int, bool]:
        """The full model as ``{var: bool}`` after a SAT solve."""
        return {
            var: self._model[var] == 1 for var in range(1, len(self._model))
        }

    # -- internals -----------------------------------------------------

    def _lit_value(self, lit: int) -> int:
        value = self._assign[abs(lit)]
        return value if lit > 0 else -value

    def _attach(self, clause: list[int]) -> None:
        self._clauses.append(clause)
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        value = self._lit_value(lit)
        if value == -1:
            return False
        if value == 1:
            return True
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._polarity[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Exhaust unit propagation; returns a conflicting clause."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            watch_list = self._watches[-lit]
            kept: list[list[int]] = []
            conflict: list[int] | None = None
            for index, clause in enumerate(watch_list):
                # Normalise: the falsified watch sits at position 1.
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                if self._lit_value(clause[0]) == 1:
                    kept.append(clause)  # already satisfied
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches[clause[1]].append(clause)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(clause)
                if not self._enqueue(clause[0], clause):
                    conflict = clause
                    kept.extend(watch_list[index + 1:])
                    break
            self._watches[-lit] = kept
            if conflict is not None:
                return conflict
        return None

    def _bump(self, var: int) -> None:
        self._order.activity[var] += self._var_inc
        if self._order.activity[var] > 1e100:
            for v in range(1, self.n_vars + 1):
                self._order.activity[v] *= 1e-100
            self._var_inc *= 1e-100
            # Heap keys are stale after a rescale; rebuild.
            self._order.heap = []
            for v in range(1, self.n_vars + 1):
                if self._assign[v] == 0:
                    self._order.push(v)
            return
        self._order.push(var)

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """1UIP learned clause + backjump level for ``conflict``."""
        learned: list[int] = [0]  # slot 0 holds the asserting literal
        seen = [False] * (self.n_vars + 1)
        counter = 0
        lit = 0
        index = len(self._trail) - 1
        reason: list[int] | None = conflict
        current_level = len(self._trail_lim)
        while True:
            assert reason is not None
            for q in reason:
                if q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            seen[abs(lit)] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            reason = self._reason[abs(lit)]
        learned[0] = -lit
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause; move that
        # literal into watch position 1.
        max_pos = 1
        for k in range(2, len(learned)):
            if self._level[abs(learned[k])] > \
                    self._level[abs(learned[max_pos])]:
                max_pos = k
        learned[1], learned[max_pos] = learned[max_pos], learned[1]
        return learned, self._level[abs(learned[1])]

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        for lit in reversed(self._trail[bound:]):
            var = abs(lit)
            self._assign[var] = 0
            self._reason[var] = None
            self._order.push(var)
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))

    def _analyze_final(self, lit: int) -> tuple[int, ...]:
        """Assumptions implicated in the failure of assumption ``lit``.

        ``lit`` was about to be assumed but is already false: walk the
        implication graph of ``-lit`` back to the decisions (which are
        all assumptions in the prefix) and return the used assumption
        literals, ``lit`` included, sorted by variable.
        """
        core: set[int] = {lit}
        seen = [False] * (self.n_vars + 1)
        seen[abs(lit)] = True
        for trail_lit in reversed(self._trail):
            var = abs(trail_lit)
            if not seen[var] or self._level[var] == 0:
                continue
            reason = self._reason[var]
            if reason is None:
                core.add(trail_lit)
            else:
                for q in reason:
                    if self._level[abs(q)] > 0:
                        seen[abs(q)] = True
        return tuple(sorted(core, key=abs))

    # -- search --------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_limit: int | None = None,
    ) -> bool | None:
        """Decide satisfiability under optional assumption literals.

        Returns True with a complete model (:meth:`value`), or False.
        When assumptions were given and the formula is satisfiable
        without them, :attr:`core` names the assumption subset the
        refutation actually used (unsat-core-lite); an unconditionally
        unsatisfiable formula yields an empty core.

        ``conflict_limit`` caps the conflicts this call may spend: when
        it runs out first the call returns None, which is neither
        verdict.  Every return leaves the solver at decision level 0,
        ready for more clauses and another solve.
        """
        self.core = ()
        self._model = [0]
        if self._unsat:
            return False
        self._backtrack(0)
        if self._propagate() is not None:
            self._unsat = True
            return False
        for lit in assumptions:
            if not 0 < abs(lit) <= self.n_vars:
                raise SatError(f"unknown assumption literal {lit}")

        conflict_budget = 0
        restart_index = 0
        restart_base = 64
        spent = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflict_budget -= 1
                spent += 1
                if not self._trail_lim:
                    self._unsat = True
                    return False
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                self.stats.learned += 1
                self.stats.max_learned_length = max(
                    self.stats.max_learned_length, len(learned)
                )
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None) or \
                            self._propagate() is not None:
                        self._unsat = True
                        return False
                else:
                    self._attach(learned)
                    self._enqueue(learned[0], learned)
                self._var_inc /= 0.95
                if conflict_limit is not None and spent >= conflict_limit:
                    self._backtrack(0)
                    return None
                continue
            if conflict_budget <= 0 and \
                    len(self._trail_lim) > len(assumptions):
                restart_index += 1
                self.stats.restarts += 1
                conflict_budget = restart_base * luby(restart_index)
                self._backtrack(0)
                continue
            if len(self._trail_lim) < len(assumptions):
                # Assumptions occupy the first decision levels, in
                # order; a false one refutes the assumption set.
                lit = assumptions[len(self._trail_lim)]
                value = self._lit_value(lit)
                if value == -1:
                    self.core = self._analyze_final(lit)
                    self._backtrack(0)
                    return False
                self._trail_lim.append(len(self._trail))
                if value == 0:
                    self._enqueue(lit, None)
                continue
            var = self._order.pop_unassigned(self._assign)
            if var == 0:
                self._model = self._assign[:]
                self._backtrack(0)
                return True
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            lit = var if self._polarity[var] else -var
            self._enqueue(lit, None)
