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

Data layout.  The kernel is pure Python, so it is laid out to keep the
bytecode of the propagation sweep short:

* **Literal codes.**  Inside the solver, literal ``v`` is the code
  ``2v`` and ``-v`` the code ``2v + 1``: negation is ``code ^ 1`` and
  the variable ``code >> 1``.  Every code is one shared int object.
  Clauses, the trail, assumptions and saved phases hold codes; the
  public methods take and return DIMACS literals.
* **Arrays indexed by literal.**  The value array ``_val`` (1 true,
  -1 false, 0 free), the watch lists ``_watches``, and the decision
  level and reason of an assigned variable (stored at its true
  literal) are plain lists indexed by code, so a lookup needs no
  ``abs`` and no sign branch.  :meth:`Solver.new_var` appends two
  slots to each, so incremental clients grow them in amortised O(1).
  Activities, saved phases and heap positions are indexed by
  variable.
* **An inlined watch sweep.**  :meth:`Solver._propagate` assigns
  implied literals itself and compacts each watch list in place, and
  only from the first clause that moves to another list: kept clauses
  keep their relative order, moved clauses append to their new list in
  visit order, and after a conflict the unvisited tail stays in order.
* **A bounded VSIDS heap.**  An indexed binary max-heap holds each
  variable at most once: a bump sifts the variable up, a backtrack
  re-inserts it only when absent, and assigned variables leave lazily
  when they reach the top.  The decision variable is the free variable
  with the largest float ``activity[v] + jitter[v]``, ties going to
  the smaller ``v``; activities rescale by 1e-100 once one exceeds
  1e100.

Determinism contract: :meth:`Solver.solve` never consults the clock,
the process id, or any global randomness.  Statistics (decisions,
conflicts, propagations) are therefore themselves reproducible and may
be embedded in canonical JSON reports.  A faster layout must keep the
search path: the pinned runs of ``tests/test_formal_bmc.py`` and the
BMC golden fix every decision, conflict and propagation count.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from operator import length_hint
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
        # Indexed by literal code (see the module docstring); level and
        # reason of an assigned variable sit at its true literal.
        self._val: list[int] = [0, 0]
        self._codes: list[int] = [0, 1]  # one int object per code
        self._watches: list[list[list[int]]] = [[], []]
        self._level: list[int] = [0, 0]
        self._reason: list[list[int] | None] = [None, None]
        self._seen: list[bool] = [False, False]  # scratch of _analyze
        # Indexed by variable.
        self._phase: list[int] = [0]  # literal the next decision picks
        self._activity: list[float] = [0.0]
        self._jitter: list[float] = [0.0]
        self._key: list[float] = [0.0]  # activity + jitter
        self._heap: list[int] = []
        self._heap_pos: list[int] = [-1]  # -1: not in the heap
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._unsat = False  # empty clause / level-0 conflict seen
        self._model: list[int] = [0]  # assignment snapshot of the last SAT

    # -- problem construction -----------------------------------------

    def new_var(self) -> int:
        """Allocate and return a fresh variable (positive literal)."""
        self.n_vars += 1
        var = self.n_vars
        self._val += (0, 0)
        positive = 2 * var
        self._codes += (positive, positive + 1)
        self._watches += ([], [])
        self._level += (0, 0)
        self._reason += (None, None)
        self._seen += (False, False)
        self._phase.append(self._codes[-1])  # -var: false first
        # Tiny per-(seed, var) jitter so exact activity ties still have
        # a fixed, seed-controlled resolution order.
        noise = zlib.crc32(f"{self.seed}:{var}".encode()) / 2**32
        jitter = noise * 1e-12
        self._activity.append(0.0)
        self._jitter.append(jitter)
        self._key.append(jitter)  # activity 0.0 + jitter
        self._heap_pos.append(len(self._heap))
        self._heap.append(var)
        self._sift_up(var)
        return var

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add one clause; duplicates collapse, tautologies vanish.

        Must be called at decision level 0 (before or between solves).
        """
        if self._trail_lim:
            raise SatError("clauses must be added at decision level 0")
        n_vars = self.n_vars
        val, codes = self._val, self._codes
        seen: set[int] = set()
        clause: list[int] = []
        satisfied = False
        for lit in lits:
            if 0 < lit <= n_vars:
                code = 2 * lit
            elif 0 < -lit <= n_vars:
                code = 1 - 2 * lit
            else:
                raise SatError(f"unknown literal {lit}")
            if code ^ 1 in seen:
                return  # tautology
            if code in seen:
                continue
            seen.add(code)
            # Every assignment is at level 0 here: literals already
            # false drop out, and a true one satisfies the clause.
            value = val[code]
            if value == 0:
                clause.append(codes[code])
            elif value == 1:
                satisfied = True
        if satisfied:
            return
        if not clause:
            self._unsat = True
            return
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self._unsat = True
            elif self._propagate() is not None:
                self._unsat = True
            return
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

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

    def _code(self, lit: int) -> int:
        """Literal code of the assumption literal ``lit``."""
        if not 0 < abs(lit) <= self.n_vars:
            raise SatError(f"unknown assumption literal {lit}")
        return self._codes[2 * lit if lit > 0 else 1 - 2 * lit]

    @staticmethod
    def _dimacs(code: int) -> int:
        """DIMACS literal of the literal code ``code``."""
        return -(code >> 1) if code & 1 else code >> 1

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        """Assign ``lit`` outside the sweep; False when it is false."""
        value = self._val[lit]
        if value:
            return value == 1
        self._val[lit] = 1
        self._val[lit ^ 1] = -1
        self._level[lit] = len(self._trail_lim)
        self._reason[lit] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Exhaust unit propagation; returns a conflicting clause."""
        trail = self._trail
        qhead = self._qhead
        if qhead == len(trail):
            return None
        val = self._val
        watches = self._watches
        codes = self._codes
        level = self._level
        reason = self._reason
        current = len(self._trail_lim)
        start = qhead
        conflict: list[int] | None = None
        while qhead < len(trail):
            # The queue is swept in batches: what one batch implies
            # forms the next.
            batch = trail[qhead:]
            qhead = len(trail)
            for true_lit in batch:
                false_lit = codes[true_lit ^ 1]
                watch_list = watches[false_lit]
                clauses = iter(watch_list)
                # Until a clause moves to another watch list, every
                # visited clause stays where it is: no bookkeeping.
                for clause in clauses:
                    # Normalise: the falsified watch sits at position 1
                    # -- unless the other watch is true, when the order
                    # of the two is never read.
                    other = clause[0]
                    if other == false_lit:
                        other = clause[1]
                        if val[other] == 1:
                            continue
                        clause[0] = other
                        clause[1] = false_lit
                    elif val[other] == 1:
                        continue
                    for k in range(2, len(clause)):
                        lit = clause[k]
                        if val[lit] != -1:
                            clause[1] = lit
                            clause[k] = false_lit
                            watches[lit].append(clause)
                            break
                    else:
                        if val[other]:
                            conflict = clause
                            break
                        val[other] = 1
                        val[other ^ 1] = -1
                        level[other] = current
                        reason[other] = clause
                        trail.append(other)
                        continue
                    # ``clause`` left its slot: compact the rest of the
                    # list in place, keeping the order of the clauses
                    # that stay.
                    kept = len(watch_list) - length_hint(clauses) - 1
                    for clause in clauses:
                        other = clause[0]
                        if other == false_lit:
                            other = clause[1]
                            if val[other] == 1:
                                watch_list[kept] = clause
                                kept += 1
                                continue
                            clause[0] = other
                            clause[1] = false_lit
                        elif val[other] == 1:
                            watch_list[kept] = clause
                            kept += 1
                            continue
                        for k in range(2, len(clause)):
                            lit = clause[k]
                            if val[lit] != -1:
                                clause[1] = lit
                                clause[k] = false_lit
                                watches[lit].append(clause)
                                break
                        else:
                            watch_list[kept] = clause
                            kept += 1
                            if val[other]:
                                conflict = clause
                                break
                            val[other] = 1
                            val[other ^ 1] = -1
                            level[other] = current
                            reason[other] = clause
                            trail.append(other)
                    watch_list[kept:] = list(clauses)  # unvisited tail
                    break
                if conflict is not None:
                    # The rest of the batch stays queued.
                    qhead -= len(batch) - 1 - batch.index(true_lit)
                    self.stats.propagations += qhead - start
                    self._qhead = qhead
                    return conflict
        self.stats.propagations += qhead - start
        self._qhead = qhead
        return None

    def _sift_up(self, var: int) -> None:
        """Move ``var`` up the heap past every variable it now beats."""
        heap, pos, key = self._heap, self._heap_pos, self._key
        index = pos[var]
        var_key = key[var]
        while index:
            parent_index = (index - 1) >> 1
            parent = heap[parent_index]
            parent_key = key[parent]
            if parent_key > var_key or (
                    parent_key == var_key and parent < var):
                break
            heap[index] = parent
            pos[parent] = index
            index = parent_index
        heap[index] = var
        pos[var] = index

    def _pop_free(self) -> int:
        """Best unassigned variable (0 when none is left).

        Assigned variables met on top leave the heap; a backtrack puts
        them back.
        """
        heap, pos, key, val = self._heap, self._heap_pos, self._key, self._val
        while heap:
            top = heap[0]
            pos[top] = -1
            last = heap.pop()
            size = len(heap)
            if size:
                # Sift ``last`` down from the root.
                last_key = key[last]
                index = 0
                child_index = 1
                while child_index < size:
                    child = heap[child_index]
                    child_key = key[child]
                    right_index = child_index + 1
                    if right_index < size:
                        right = heap[right_index]
                        right_key = key[right]
                        if right_key > child_key or (
                                right_key == child_key and right < child):
                            child_index = right_index
                            child = right
                            child_key = right_key
                    if last_key > child_key or (
                            last_key == child_key and last < child):
                        break
                    heap[index] = child
                    pos[child] = index
                    index = child_index
                    child_index = 2 * index + 1
                heap[index] = last
                pos[last] = index
            if val[2 * top] == 0:
                return top
        return 0

    def _rescale(self) -> None:
        """Scale every activity by 1e-100 and re-order the heap."""
        activity, jitter, key = self._activity, self._jitter, self._key
        for var in range(1, self.n_vars + 1):
            activity[var] *= 1e-100
            key[var] = activity[var] + jitter[var]
        self._var_inc *= 1e-100
        # A sorted array is a heap.
        heap = self._heap
        heap.sort(key=lambda var: (-key[var], var))
        pos = self._heap_pos
        for index, var in enumerate(heap):
            pos[var] = index

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """1UIP learned clause + backjump level for ``conflict``."""
        learned: list[int] = [0]  # slot 0 holds the asserting literal
        level, reason, seen = self._level, self._reason, self._seen
        trail = self._trail
        activity, jitter, key = self._activity, self._jitter, self._key
        heap_pos = self._heap_pos
        counter = 0
        lit = 0
        index = len(trail) - 1
        clause = conflict
        current_level = len(self._trail_lim)
        while True:
            for q in clause:
                if q == lit:
                    continue
                true_lit = q ^ 1  # every other literal of ``clause`` is false
                if not seen[true_lit] and level[true_lit] > 0:
                    seen[true_lit] = True
                    # VSIDS bump.
                    var = q >> 1
                    bumped = activity[var] + self._var_inc
                    activity[var] = bumped
                    key[var] = bumped + jitter[var]
                    if bumped > 1e100:
                        self._rescale()
                    elif heap_pos[var] >= 0:
                        self._sift_up(var)
                    if level[true_lit] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                lit = trail[index]
                index -= 1
                if seen[lit]:
                    break
            seen[lit] = False
            counter -= 1
            if counter == 0:
                break
            next_clause = reason[lit]
            assert next_clause is not None
            clause = next_clause
        learned[0] = self._codes[lit ^ 1]
        for q in learned:
            seen[q ^ 1] = False
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause; move that
        # literal into watch position 1.
        max_pos = 1
        max_level = level[learned[1] ^ 1]
        for k in range(2, len(learned)):
            k_level = level[learned[k] ^ 1]
            if k_level > max_level:
                max_pos, max_level = k, k_level
        learned[1], learned[max_pos] = learned[max_pos], learned[1]
        return learned, max_level

    def _backtrack(self, level: int) -> None:
        """Undo every decision level above ``level``."""
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        trail = self._trail
        val, phase = self._val, self._phase
        heap, heap_pos, sift_up = self._heap, self._heap_pos, self._sift_up
        for lit in trail[bound:]:
            val[lit] = 0
            val[lit ^ 1] = 0
            var = lit >> 1
            phase[var] = lit  # phase saving
            if heap_pos[var] < 0:
                heap_pos[var] = len(heap)
                heap.append(var)
                sift_up(var)
        del trail[bound:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(trail))

    def _analyze_final(self, lit: int) -> tuple[int, ...]:
        """Assumptions implicated in the failure of assumption ``lit``.

        ``lit`` was about to be assumed but is already false: walk the
        implication graph of its negation back to the decisions (which
        are all assumptions in the prefix) and return the used
        assumption literals, ``lit`` included, as DIMACS literals sorted
        by variable.
        """
        core: set[int] = {self._dimacs(lit)}
        level, reason = self._level, self._reason
        seen = [False] * (self.n_vars + 1)
        seen[lit >> 1] = True
        trail, trail_lim = self._trail, self._trail_lim
        # Level-0 literals imply nothing about the assumptions.
        above_root = trail[trail_lim[0]:] if trail_lim else []
        for trail_lit in reversed(above_root):
            if not seen[trail_lit >> 1]:
                continue
            clause = reason[trail_lit]
            if clause is None:
                core.add(self._dimacs(trail_lit))
            else:
                for q in clause:
                    if q != trail_lit and level[q ^ 1] > 0:
                        seen[q >> 1] = True
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
        ready for more clauses and another solve.  An assumption naming
        no allocated variable raises :class:`SatError`, whatever the
        verdict would be.
        """
        self.core = ()
        self._model = [0]
        assumed = [self._code(lit) for lit in assumptions]
        if self._unsat:
            return False
        self._backtrack(0)
        if self._propagate() is not None:
            self._unsat = True
            return False

        stats = self.stats
        val = self._val
        trail_lim = self._trail_lim
        conflict_budget = 0
        restart_index = 0
        restart_base = 64
        spent = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflict_budget -= 1
                spent += 1
                if not trail_lim:
                    self._unsat = True
                    return False
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                stats.learned += 1
                if len(learned) > stats.max_learned_length:
                    stats.max_learned_length = len(learned)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None) or \
                            self._propagate() is not None:
                        self._unsat = True
                        return False
                else:
                    self._watches[learned[0]].append(learned)
                    self._watches[learned[1]].append(learned)
                    self._enqueue(learned[0], learned)
                self._var_inc /= 0.95
                if conflict_limit is not None and spent >= conflict_limit:
                    self._backtrack(0)
                    return None
                continue
            if conflict_budget <= 0 and \
                    len(trail_lim) > len(assumed):
                restart_index += 1
                stats.restarts += 1
                conflict_budget = restart_base * luby(restart_index)
                self._backtrack(0)
                continue
            if len(trail_lim) < len(assumed):
                # Assumptions occupy the first decision levels, in
                # order; a false one refutes the assumption set.
                lit = assumed[len(trail_lim)]
                value = val[lit]
                if value == -1:
                    self.core = self._analyze_final(lit)
                    self._backtrack(0)
                    return False
                trail_lim.append(len(self._trail))
                if value == 0:
                    self._enqueue(lit, None)
                continue
            var = self._pop_free()
            if var == 0:
                self._model = val[::2]
                self._backtrack(0)
                return True
            stats.decisions += 1
            trail_lim.append(len(self._trail))
            self._enqueue(self._phase[var], None)
