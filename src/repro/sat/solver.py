"""CDCL SAT solver in pure Python.

A conflict-driven clause-learning solver with two-watched-literal
propagation, first-UIP conflict analysis, EVSIDS branching, phase saving,
Luby restarts and activity-based learned-clause reduction.  It replaces an
external SAT backend for logic-equivalence checking and for the SAT-attack
futility demonstration; performance is adequate for the miter sizes this
project produces (thousands of variables).  :func:`solve_cnf` is the
single entry point; ``tests/test_sat.py`` pins its search statistics
(decisions, propagations, conflicts, restarts, learned and deleted
clauses) on fixed instances, so a change to the search shows up there.

Literals follow the DIMACS convention (+v / -v); internally literal
``l`` is indexed as ``2*v + (1 if l < 0 else 0)``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field


def _lit_index(literal: int) -> int:
    return (abs(literal) << 1) | (literal < 0)


class VarOrderHeap:
    """Lazy-delete EVSIDS branching heap of the solver.

    A min-heap over ``(-activity, var)`` entries: the top valid entry is
    the unassigned variable of maximal activity, ties broken toward the
    *lowest* variable index — exactly the variable the historical
    O(num_vars) linear scan returned (``activity > best`` kept the first
    maximum).  Entries are never removed in place; instead a fresh entry
    is pushed whenever a variable's activity changes or the variable is
    unassigned, and stale entries (activity no longer current, or the
    variable is currently assigned) are discarded as they surface.  The
    invariant is that every *unassigned* variable always has one entry
    carrying its *current* activity, maintained by pushing on bump, on
    unassignment and on rescale/rebuild.
    """

    __slots__ = ("_activity", "_heap")

    def __init__(self, activity) -> None:
        self._activity = activity  # shared view of the solver's activities
        self._heap: list[tuple[float, int]] = []

    def rebuild(self) -> None:
        """Reset to one fresh entry per variable (index 0 excluded)."""
        activity = self._activity
        self._heap = [
            (-float(activity[var]), var) for var in range(1, len(activity))
        ]
        heapq.heapify(self._heap)

    def push(self, var: int) -> None:
        heapq.heappush(self._heap, (-float(self._activity[var]), var))

    def push_all(self) -> None:
        """Refresh every entry (after a global activity rescale)."""
        self.rebuild()

    def pop_best(self, assign) -> int:
        """Best unassigned variable, or 0 when none remain."""
        heap = self._heap
        activity = self._activity
        while heap:
            neg_activity, var = heapq.heappop(heap)
            if assign[var] == -1 and -neg_activity == activity[var]:
                return var
        return 0


def _luby(x: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (0-based index).

    Ported from MiniSat's ``luby`` with base 2.
    """
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


@dataclass
class SolverStats:
    """Counters exposed after a solve call."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0


@dataclass
class SatResult:
    """Outcome of a solve: ``status`` in {"sat", "unsat", "unknown"}."""

    status: str
    model: dict[int, bool] | None = None
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def sat(self) -> bool:
        return self.status == "sat"

    @property
    def unsat(self) -> bool:
        return self.status == "unsat"


class CdclSolver:
    """Incremental-ish CDCL solver (solve with assumptions supported)."""

    def __init__(self, num_vars: int, conflict_limit: int | None = None) -> None:
        self.num_vars = num_vars
        self.conflict_limit = conflict_limit
        self.clauses: list[list[int]] = []
        self._clause_is_learned: list[bool] = []
        self._clause_activity: list[float] = []
        self.watches: list[list[int]] = [[] for _ in range((num_vars + 1) * 2)]
        # assignment state
        self.assign: list[int] = [-1] * (num_vars + 1)  # -1 unassigned, 0/1
        self.level_of: list[int] = [0] * (num_vars + 1)
        self.reason: list[int] = [-1] * (num_vars + 1)  # clause index or -1
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.phase: list[int] = [0] * (num_vars + 1)
        # branching
        self.activity: list[float] = [0.0] * (num_vars + 1)
        self.var_inc = 1.0
        self.var_decay = 1.0 / 0.95
        self._order = VarOrderHeap(self.activity)
        self.stats = SolverStats()
        self._ok = True
        self._qhead = 0  # next trail position to propagate

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------
    def add_clause(self, literals: list[int] | tuple[int, ...]) -> None:
        """Add a problem clause (deduplicated; tautologies dropped)."""
        seen: set[int] = set()
        clause: list[int] = []
        for literal in literals:
            if -literal in seen:
                return  # tautology
            if literal in seen:
                continue
            seen.add(literal)
            clause.append(literal)
        if not clause:
            self._ok = False
            return
        if len(clause) == 1:
            if not self._enqueue_root_unit(clause[0]):
                self._ok = False
            return
        self._attach(clause, learned=False)

    def _attach(self, clause: list[int], learned: bool) -> int:
        index = len(self.clauses)
        self.clauses.append(clause)
        self._clause_is_learned.append(learned)
        self._clause_activity.append(0.0)
        self.watches[_lit_index(clause[0])].append(index)
        self.watches[_lit_index(clause[1])].append(index)
        return index

    def _enqueue_root_unit(self, literal: int) -> bool:
        var, value = abs(literal), int(literal > 0)
        if self.assign[var] == -1:
            self._assign(var, value, reason=-1)
            return True
        return self.assign[var] == value

    # ------------------------------------------------------------------
    # Assignment and propagation
    # ------------------------------------------------------------------
    @property
    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _assign(self, var: int, value: int, reason: int) -> None:
        self.assign[var] = value
        self.level_of[var] = self._decision_level
        self.reason[var] = reason
        self.phase[var] = value
        self.trail.append(var)

    def _lit_value(self, literal: int) -> int:
        """0 false, 1 true, -1 unassigned under current assignment."""
        value = self.assign[abs(literal)]
        if value == -1:
            return -1
        return value if literal > 0 else 1 - value

    def _propagate(self) -> int:
        """Unit propagation; returns conflicting clause index or -1."""
        queue_start = self._qhead
        while queue_start < len(self.trail):
            var = self.trail[queue_start]
            queue_start += 1
            false_literal = var if self.assign[var] == 0 else -var
            watch_index = _lit_index(false_literal)
            watching = self.watches[watch_index]
            keep: list[int] = []
            i = 0
            while i < len(watching):
                ci = watching[i]
                i += 1
                clause = self.clauses[ci]
                # normalise: watched false literal at position 1
                if clause[0] == false_literal:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) == 1:
                    keep.append(ci)
                    continue
                # search replacement watch
                found = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches[_lit_index(clause[1])].append(ci)
                        found = True
                        break
                if found:
                    continue
                keep.append(ci)
                if self._lit_value(first) == 0:
                    # conflict: restore remaining watches and report
                    keep.extend(watching[i:])
                    self.watches[watch_index] = keep
                    self._qhead = len(self.trail)
                    return ci
                # unit: imply first
                self.stats.propagations += 1
                self._assign(abs(first), int(first > 0), reason=ci)
            self.watches[watch_index] = keep
        self._qhead = len(self.trail)
        return -1

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        learned: list[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        literal = 0
        clause_index = conflict
        trail_pos = len(self.trail) - 1
        while True:
            clause = self.clauses[clause_index]
            self._bump_clause(clause_index)
            start = 1 if literal else 0
            for lit in clause[start:] if literal else clause:
                var = abs(lit)
                if seen[var] or self.level_of[var] == 0:
                    continue
                seen[var] = True
                self._bump_var(var)
                if self.level_of[var] == self._decision_level:
                    counter += 1
                else:
                    learned.append(lit)
            # pick next literal to resolve from the trail
            while not seen[abs(self.trail[trail_pos])]:
                trail_pos -= 1
            var = self.trail[trail_pos]
            trail_pos -= 1
            seen[var] = False
            counter -= 1
            literal = var if self.assign[var] == 1 else -var
            if counter == 0:
                learned[0] = -literal
                break
            clause_index = self.reason[var]
        # backtrack level = second-highest level in learned clause
        if len(learned) == 1:
            return learned, 0
        back_level = max(self.level_of[abs(l)] for l in learned[1:])
        # move a literal of back_level into watch position 1
        for k in range(1, len(learned)):
            if self.level_of[abs(learned[k])] == back_level:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, back_level

    def _bump_var(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._order.push_all()
        else:
            self._order.push(var)

    def _bump_clause(self, index: int) -> None:
        if self._clause_is_learned[index]:
            self._clause_activity[index] += 1.0

    def _backtrack(self, level: int) -> None:
        while len(self.trail_lim) > level:
            mark = self.trail_lim.pop()
            while len(self.trail) > mark:
                var = self.trail.pop()
                self.assign[var] = -1
                self.reason[var] = -1
                self._order.push(var)
        self._qhead = min(self._qhead, len(self.trail))

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------
    def _pick_branch(self) -> int:
        best_var = self._order.pop_best(self.assign)
        if best_var == 0:
            return 0
        return best_var if self.phase[best_var] else -best_var

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(self, assumptions: list[int] | None = None) -> SatResult:
        if not self._ok:
            return SatResult("unsat", stats=self.stats)
        self._qhead = 0
        self._backtrack(0)
        self._order.rebuild()
        if self._propagate() != -1:
            return SatResult("unsat", stats=self.stats)
        assumptions = list(assumptions or [])
        restart_count = 0
        conflicts_until_restart = 32 * _luby(restart_count)
        conflicts_since_restart = 0
        max_learned = max(1000, len(self.clauses) // 2)

        while True:
            conflict = self._propagate()
            if conflict != -1:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if self._decision_level == 0:
                    return SatResult("unsat", stats=self.stats)
                if self._decision_level <= len(assumptions):
                    # conflict depends only on assumptions
                    return SatResult("unsat", stats=self.stats)
                learned, back_level = self._analyze(conflict)
                back_level = max(back_level, len(assumptions))
                self._backtrack(back_level)
                if len(learned) == 1:
                    self._backtrack(len(assumptions))
                    if not self._enqueue_root_or_assumed(learned[0]):
                        return SatResult("unsat", stats=self.stats)
                else:
                    index = self._attach(learned, learned=True)
                    self.stats.learned += 1
                    self._assign(abs(learned[0]), int(learned[0] > 0), index)
                self.var_inc *= self.var_decay
                if self.stats.learned - self.stats.deleted > max_learned:
                    self._reduce_db()
                    max_learned = int(max_learned * 1.3)
                continue

            if (
                self.conflict_limit is not None
                and self.stats.conflicts >= self.conflict_limit
            ):
                return SatResult("unknown", stats=self.stats)

            if conflicts_since_restart >= conflicts_until_restart:
                self.stats.restarts += 1
                restart_count += 1
                conflicts_since_restart = 0
                conflicts_until_restart = 32 * _luby(restart_count)
                self._backtrack(len(assumptions))
                continue

            # place assumptions first
            if self._decision_level < len(assumptions):
                literal = assumptions[self._decision_level]
                value = self._lit_value(literal)
                if value == 1:
                    self.trail_lim.append(len(self.trail))  # dummy level
                    continue
                if value == 0:
                    return SatResult("unsat", stats=self.stats)
                self.trail_lim.append(len(self.trail))
                self._assign(abs(literal), int(literal > 0), reason=-1)
                continue

            literal = self._pick_branch()
            if literal == 0:
                model = {
                    v: bool(self.assign[v]) for v in range(1, self.num_vars + 1)
                }
                return SatResult("sat", model=model, stats=self.stats)
            self.stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._assign(abs(literal), int(literal > 0), reason=-1)

    def _enqueue_root_or_assumed(self, literal: int) -> bool:
        value = self._lit_value(literal)
        if value == 0:
            return False
        if value == -1:
            self._assign(abs(literal), int(literal > 0), reason=-1)
        return True

    def _reduce_db(self) -> None:
        """Drop the less active half of the learned clauses."""
        learned_indices = [
            i
            for i in range(len(self.clauses))
            if self._clause_is_learned[i] and len(self.clauses[i]) > 2
        ]
        if not learned_indices:
            return
        learned_indices.sort(key=self._clause_activity.__getitem__)
        locked = {self.reason[v] for v in self.trail}
        to_drop = set(learned_indices[: len(learned_indices) // 2]) - locked
        if not to_drop:
            return
        self._rebuild_without(to_drop)
        self.stats.deleted += len(to_drop)

    def _rebuild_without(self, drop: set[int]) -> None:
        remap: dict[int, int] = {}
        new_clauses: list[list[int]] = []
        new_learned: list[bool] = []
        new_activity: list[float] = []
        for index, clause in enumerate(self.clauses):
            if index in drop:
                continue
            remap[index] = len(new_clauses)
            new_clauses.append(clause)
            new_learned.append(self._clause_is_learned[index])
            new_activity.append(self._clause_activity[index])
        self.clauses = new_clauses
        self._clause_is_learned = new_learned
        self._clause_activity = new_activity
        self.watches = [[] for _ in range((self.num_vars + 1) * 2)]
        for index, clause in enumerate(self.clauses):
            self.watches[_lit_index(clause[0])].append(index)
            self.watches[_lit_index(clause[1])].append(index)
        for var in range(1, self.num_vars + 1):
            if self.reason[var] != -1:
                self.reason[var] = remap.get(self.reason[var], -1)


def solve_cnf(
    cnf,
    assumptions: list[int] | None = None,
    conflict_limit: int | None = None,
) -> SatResult:
    """Build a :class:`CdclSolver` for *cnf* and solve it."""
    solver = CdclSolver(cnf.num_vars, conflict_limit=conflict_limit)
    for clause in cnf.clauses:
        solver.add_clause(clause)
    return solver.solve(assumptions=assumptions)
