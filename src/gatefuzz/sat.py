"""Incremental CDCL SAT solver over CNF formulas and one distance floor.

A :class:`SolverSession` decides one :class:`~gatefuzz.cnf.CnfFormula` (the
formula object itself is never mutated), and its variables are the
formula's: every array is sized once from ``var_count``, and a literal or
assumption outside them is a ``ValueError``.  It decides satisfiability
under assumptions, returns total models (unconstrained variables default to
false), and accepts permanently added clauses and kept models.  That is what
solution enumeration needs: a blocking clause excludes one model, and a kept
model keeps every later model at least ``d`` primary inputs away from it.

The engine is a deliberately compact MiniSat-style CDCL: two-watched-literal
propagation, first-UIP conflict learning, activity-driven decisions with
phase-false polarity, and Luby restarts.  Everything is deterministic for a
fixed ``decision_seed``.

Clauses are added at level 0, where assignments are permanent: a true
literal satisfies the clause and false ones drop out; none left makes the
session UNSAT, one left is propagated as a unit, and otherwise the clause is
watched by two literals.  A session loads its formula's clauses in one
pass: a clause of two or more literals on distinct unassigned variables is
watched there and then, and every other clause goes through
:meth:`SolverSession.add_clause`, as does every clause of a formula with a
literal out of range.  The session is the one that adding the clauses one
at a time with ``add_clause`` makes: the same watch lists in the same order,
the same assignments, the same debug clause list and the same error.

The distance floor (diverse solutions, after Hebrard, Hnich, O'Sullivan &
Walsh, AAAI 2005) ranges over the primary inputs, variables
``1..input_count``, so a kept model is one int, its input word, with bit
``input_count - v`` for input ``v``: the first input is the most significant
bit, as in :attr:`~gatefuzz.pattern.InputPattern.word`, so a model's input
word is its pattern's word.  ``_enqueue`` and ``_cancel_until`` keep two more
such masks, the assigned inputs and the true ones; at a model the true ones
are :attr:`SatResult.inputs`.  A floor ``d`` on a word
``w`` can imply or fail only once at most ``d`` inputs are unassigned, so it
is checked only then, whenever an input literal is dequeued.  With ``a`` the
assigned inputs that differ from ``w`` and ``u`` the unassigned ones,
``a + u < d`` is a conflict, whose clause is the "differs from ``w``"
literals of the assigned inputs that agree with it, all false; ``a + u ==
d`` with ``u > 0`` implies that every unassigned input differs, each with
the reason clause of its literal and those false ones.  Conflict analysis
thus only ever sees clauses.

The check does not visit every kept word.  The kept words are indexed by
pigeonhole (multi-index hashing: Greene, Parnas & Yao, FOCS 1994; Norouzi,
Punjani & Fleet, CVPR 2012): the inputs are split into ``d + 1`` contiguous
blocks, and each block has a dict from a word's bits on it to the numbers of
the kept words with those bits.  With ``f`` inputs unassigned and
``r = d - f`` the room, at most ``f`` blocks hold an unassigned input, so at
least ``r + 1`` are fully assigned; a word the floor acts on (``a <= r``)
differs from the true inputs on at most ``r`` of those.  So the ``r + 1``
fully assigned blocks with the fewest words under the true inputs' bits
hold every such word.  Only they are looked up, and the words found are
visited in the order they were kept, so the implications and their reasons
are those of a full scan.  :meth:`SolverSession.near` asks the same index
whether a kept word is closer than ``d`` to a given word: such a word
differs from it on at most ``d - 1`` blocks, so all but the fullest are
looked up.  With fewer inputs than ``d + 1`` some blocks are empty, and
every kept word agrees on them: the lookup is then a full scan.

Values live in one array indexed by literal, as in MiniSat (Eén & Sörensson,
SAT 2003): ``_lit_val[lit]`` is the literal's own value, so the hot loops read
it with one index and no sign flip; assigning or unassigning a variable writes
both of its literals.

While asserts are on, every model is checked against every clause ever
added, kept as given in one list that holds the formula's own tuples, and
against every kept word, by one popcount of its XOR with the model's input
word.  The list stays empty under ``python -O``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain

from .cnf import CnfFormula

_TRUE = 1
_FALSE = -1
_UNDEF = 0

_RESTART_BASE = 100
_ACTIVITY_DECAY = 0.95
_ACTIVITY_RESCALE = 1e100


class SolverBudgetError(Exception):
    """Conflict budget exhausted before a verdict was reached."""


@dataclass
class SatResult:
    status: str  # "SAT" or "UNSAT"
    model: list[bool] | None = None  # indexed by variable, entry 0 unused
    inputs: int = 0  # the model's input word: bit input_count - v is input v

    @property
    def is_sat(self) -> bool:
        return self.status == "SAT"


def _luby(x):
    """Luby restart sequence 1,1,2,1,1,2,4,... (0-indexed)."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class SolverSession:
    """Exclusive-use incremental solver over one formula's variables.

    Clauses and kept models only accumulate, and every literal a clause or
    an assumption names must be one of the formula's variables.  The model
    sequence for a fixed ``decision_seed`` and clause/solve sequence is
    reproducible.
    """

    def __init__(self, formula: CnfFormula, decision_seed: int = 0,
                 conflict_budget: int | None = None):
        n = self.nvars = formula.var_count
        self.conflict_budget = conflict_budget
        self.conflicts = 0
        self.decisions = 0
        self.solve_calls = 0
        self.propagations = 0  # trail literals dequeued by unit propagation

        rng = random.Random(decision_seed)
        self._lit_val: list[int] = [_UNDEF] * (2 * n + 2)  # indexed by literal
        self._level: list[int] = [0] * (n + 1)
        self._reason: list = [None] * (n + 1)
        self._activity: list[float] = [0.0] + [rng.random() * 1e-9 for _ in range(n)]
        self._watches: list[list] = [[] for _ in range(2 * n + 2)]
        self._input_count = formula.input_count
        self._all_inputs = (1 << formula.input_count) - 1
        self._assigned_inputs = 0  # input masks: bit v - 1 is input v
        self._true_inputs = 0
        self._kept: list[int] = []  # input words of the kept models
        self._floor = 0  # their distance floor d; 0 until a model is kept
        self._index: list[tuple[int, dict]] = []  # per block: its mask, value -> word numbers
        self._rebuild_order()
        self._var_inc = 1.0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._unsat_forever = False
        self._clauses: list[tuple] = []  # every clause ever added, for the model check

        # the formula in one pass: a clause of two or more literals on
        # distinct unassigned variables is watched as add_clause would watch
        # it, and every other clause goes through add_clause; a literal out
        # of range sends every clause there, so its error is add_clause's
        clauses = formula.clauses
        signed = set(chain.from_iterable(clauses))
        if signed and (min(signed) < -n or max(signed) > n or 0 in signed):
            for clause in clauses:
                self.add_clause(clause)
        # the internal literal of each signed one at its index; a negative one counts from the end
        internal = [1, *range(2, 2 * n + 1, 2), *range(2 * n + 1, 2, -2)].__getitem__
        val = self._lit_val
        watches = self._watches
        trail = self._trail
        recorded = self._clauses
        for clause in clauses:
            lits = list(map(internal, clause))
            if (len({*map(abs, clause)}) == len(lits) > 1 and not self._unsat_forever
                    and not (trail and any(map(val.__getitem__, lits)))):  # all _UNDEF
                if __debug__:
                    recorded.append(tuple(clause))
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
            else:
                self.add_clause(clause)

    # -- literals --------------------------------------------------------------

    def _internal_lits(self, signed_lits):
        """Internal literals of signed ones; raises ValueError for a literal
        whose variable is not in 1..nvars."""
        n = self.nvars
        internal = []
        for signed in signed_lits:
            if not 0 < abs(signed) <= n:
                raise ValueError(f"literal {signed} is not a variable in 1..{n}")
            internal.append(signed << 1 if signed > 0 else (-signed << 1) | 1)
        return internal

    # -- constraints -------------------------------------------------------------

    def add_clause(self, clause) -> None:
        """Permanently conjoin a clause of nonzero signed literals."""
        if not clause:
            raise ValueError("empty clause")
        lits = dict.fromkeys(self._internal_lits(clause))  # repeats dropped, in order
        if any(lit ^ 1 in lits for lit in lits):
            return  # tautology, always satisfied
        if __debug__:
            self._clauses.append(tuple(clause))
        if self._unsat_forever:
            return
        assert not self._trail_lim, "clauses are added at decision level 0"
        val = self._lit_val
        free = []
        for lit in lits:
            value = val[lit]
            if value == _TRUE:
                return
            if value == _UNDEF:
                free.append(lit)
        if not free:
            self._unsat_forever = True
        elif len(free) == 1:
            self._enqueue(free[0], None)
            if self._propagate() is not None:
                self._unsat_forever = True
        else:
            self._attach(free)

    def keep_distance(self, word: int, d: int) -> None:
        """Keep every later model at least ``d`` primary inputs away from
        the input word ``word`` (bit ``input_count - v`` is input ``v``, as in
        :attr:`SatResult.inputs`).

        A session has one floor: a ``d`` outside ``1..input_count``, or other
        than an earlier call's, raises ValueError, and so does a word wider
        than the inputs.
        """
        if word < 0 or word >> self._input_count:
            raise ValueError(f"input word {word} does not fit in {self._input_count} bits")
        if not 1 <= d <= self._input_count:
            raise ValueError(f"distance {d} is not in 1..{self._input_count}, "
                             f"the primary inputs")
        if self._floor not in (0, d):
            raise ValueError(f"distance {d} differs from the session's floor {self._floor}")
        if not self._floor:
            self._floor = d
            n = self._input_count
            # d + 1 contiguous blocks, as even as the inputs allow; some are empty below d + 1 inputs
            self._index = [((1 << n * (k + 1) // (d + 1)) - (1 << n * k // (d + 1)), {})
                           for k in range(d + 1)]
        number = len(self._kept)
        self._kept.append(word)
        for mask, bucket in self._index:
            bucket.setdefault(word & mask, []).append(number)
        if self._unsat_forever:
            return
        assert not self._trail_lim, "models are kept at decision level 0"
        if self._input_count - self._assigned_inputs.bit_count() > d:
            return  # with more than d inputs free the floor neither implies nor fails
        if self._check_distance([number]) is not None or self._propagate() is not None:
            self._unsat_forever = True

    def near(self, word: int) -> bool:
        """Whether a kept word is closer than the floor to the input word
        ``word``; False before a model is kept."""
        # such a word differs on at most d - 1 of the d + 1 blocks, so the
        # index finds it without the block of the most candidates
        found = [bucket.get(word & mask, ()) for mask, bucket in self._index]
        found.sort(key=len)
        kept, d = self._kept, self._floor
        for numbers in found[:-1]:
            for i in numbers:
                if (word ^ kept[i]).bit_count() < d:
                    return True
        return False

    def _attach(self, clause):
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    # -- assignment machinery --------------------------------------------------

    def _enqueue(self, lit, reason):
        val = self._lit_val
        val[lit] = _TRUE
        val[lit ^ 1] = _FALSE
        var = lit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        if var <= self._input_count:
            bit = 1 << self._input_count - var
            self._assigned_inputs |= bit
            if not lit & 1:
                self._true_inputs |= bit

    def _propagate(self):
        """Unit propagation; returns a conflicting clause or None."""
        val = self._lit_val
        trail = self._trail
        watches = self._watches
        enqueue = self._enqueue
        input_count = self._input_count
        words = self._kept
        qhead = start = self._qhead
        conflict = None
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchers = watches[false_lit]
            kept = []
            for idx, clause in enumerate(watchers):
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if val[first] == _TRUE:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    if val[clause[k]] != _FALSE:
                        clause[1], clause[k] = clause[k], clause[1]
                        watches[clause[1]].append(clause)
                        break
                else:
                    kept.append(clause)
                    if val[first] == _FALSE:
                        conflict = clause
                        kept.extend(watchers[idx + 1:])
                        break
                    enqueue(first, clause)
            watches[false_lit] = kept
            if conflict is None and false_lit >> 1 <= input_count and words:
                conflict = self._check_distance()
            if conflict is not None:
                break
        self.propagations += qhead - start
        self._qhead = len(trail)
        return conflict

    def _check_distance(self, numbers=None):
        """Hold the kept words numbered ``numbers``, or else every kept word,
        to the distance floor under the current input masks, in the order
        they were kept; returns a conflicting clause or None."""
        assigned = self._assigned_inputs
        free = self._input_count - assigned.bit_count()
        room = self._floor - free  # the fewest assigned inputs that must differ
        if room < 0:
            return None  # every word can still reach the floor
        ones = self._true_inputs
        val = self._lit_val
        if numbers is None:
            # the room + 1 fully assigned blocks of fewest words hold every
            # word the floor acts on (see the module docstring)
            hits = [bucket.get(ones & mask, ()) for mask, bucket in self._index
                    if assigned & mask == mask]
            hits.sort(key=len)
            numbers = set().union(*hits[:room + 1])
        kept = self._kept
        for i in sorted([i for i in numbers if ((kept[i] ^ ones) & assigned).bit_count() <= room]):
            w = kept[i]
            differ = (w ^ ones) & assigned
            short = differ.bit_count() < room
            if not (short or free):
                continue  # met exactly, and nothing is left to imply
            reason = _differs(assigned ^ differ, w, self._input_count)  # all false
            if short:
                return reason
            for lit in _differs(self._all_inputs ^ assigned, w, self._input_count):
                # an earlier word may have set this input the other way; the
                # check at its dequeue reports the conflict
                if val[lit] == _UNDEF:
                    self._enqueue(lit, [lit] + reason)
        return None

    def _decision_level(self):
        return len(self._trail_lim)

    def _new_decision_level(self):
        self._trail_lim.append(len(self._trail))

    def _cancel_until(self, level):
        if self._decision_level() <= level:
            return
        floor = self._trail_lim[level]
        val = self._lit_val
        reason = self._reason
        order = self._order
        activity = self._activity
        input_count = self._input_count
        inputs = 0
        for lit in reversed(self._trail[floor:]):
            val[lit] = val[lit ^ 1] = _UNDEF
            var = lit >> 1
            reason[var] = None
            heappush(order, (-activity[var], var))
            if var <= input_count:
                inputs |= 1 << input_count - var
        self._assigned_inputs &= ~inputs
        self._true_inputs &= ~inputs
        del self._trail[floor:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)
        if len(order) > 2 * self.nvars:
            self._rebuild_order()

    def _rebuild_order(self):
        """One live heap entry per variable, keyed by its activity."""
        self._order = [(-self._activity[v], v) for v in range(1, self.nvars + 1)]
        heapify(self._order)

    def _bump(self, var):
        self._activity[var] += self._var_inc
        if self._activity[var] > _ACTIVITY_RESCALE:
            for v in range(1, self.nvars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            self._rebuild_order()  # every key changed
        else:
            heappush(self._order, (-self._activity[var], var))

    def _pick_branch_var(self):
        """The unassigned variable of highest activity, or None.  Every
        unassigned variable has a live entry: a bump or an unassignment
        pushes one, and a rescale, or a backtrack that leaves over two
        entries per variable, rebuilds the heap."""
        order = self._order
        val = self._lit_val
        activity = self._activity
        while order:
            act, var = heappop(order)
            if val[2 * var] == _UNDEF and -act == activity[var]:
                return var
        return None

    def _analyze(self, conflict):
        """First-UIP learning; returns (learnt_internal_lits, backtrack_level)."""
        learnt = [0]
        seen = bytearray(self.nvars + 1)
        counter = 0
        p = None
        index = len(self._trail) - 1
        bt_level = 0
        clause = conflict
        current = self._decision_level()
        while True:
            start = 0 if p is None else 1
            for q in clause[start:]:
                var = q >> 1
                if not seen[var] and self._level[var] > 0:
                    seen[var] = 1
                    self._bump(var)
                    if self._level[var] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
                        bt_level = max(bt_level, self._level[var])
            while not seen[self._trail[index] >> 1]:
                index -= 1
            p = self._trail[index]
            index -= 1
            seen[p >> 1] = 0
            counter -= 1
            if counter == 0:
                break
            clause = self._reason[p >> 1]
        learnt[0] = p ^ 1
        return learnt, bt_level

    def _record_learnt(self, learnt, bt_level):
        self._cancel_until(bt_level)
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        # position 1 must hold a literal from the backtrack level to keep the
        # watch invariant after the jump
        best = max(range(1, len(learnt)), key=lambda i: self._level[learnt[i] >> 1])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        self._attach(learnt)
        self._enqueue(learnt[0], learnt)

    # -- search ----------------------------------------------------------------

    def solve(self, assumptions=()) -> SatResult:
        """Decide satisfiability under the given signed-literal assumptions.

        Returns a total model on SAT.  Raises :class:`SolverBudgetError` when
        the configured conflict budget runs out.  UNSAT is a result, not an
        error.  The session is left at decision level 0 with all learned
        clauses retained.
        """
        assumed = self._internal_lits(assumptions)
        self.solve_calls += 1
        if self._unsat_forever:
            return SatResult("UNSAT")
        budget = self.conflict_budget
        conflicts_here = 0
        restart_count = 0
        restart_limit = _RESTART_BASE * _luby(0)
        conflicts_since_restart = 0
        try:
            while True:
                conflict = self._propagate()
                if conflict is not None:
                    self.conflicts += 1
                    conflicts_here += 1
                    conflicts_since_restart += 1
                    if self._decision_level() == 0:
                        self._unsat_forever = True
                        return SatResult("UNSAT")
                    if budget is not None and conflicts_here > budget:
                        raise SolverBudgetError(
                            f"conflict budget {budget} exhausted")
                    learnt, bt_level = self._analyze(conflict)
                    self._record_learnt(learnt, bt_level)
                    self._var_inc /= _ACTIVITY_DECAY
                    continue
                if conflicts_since_restart >= restart_limit:
                    restart_count += 1
                    restart_limit = _RESTART_BASE * _luby(restart_count)
                    conflicts_since_restart = 0
                    self._cancel_until(0)
                    continue
                next_lit = None
                while self._decision_level() < len(assumed):
                    lit = assumed[self._decision_level()]
                    value = self._lit_val[lit]
                    if value == _TRUE:
                        self._new_decision_level()
                    elif value == _FALSE:
                        return SatResult("UNSAT")
                    else:
                        next_lit = lit
                        break
                if next_lit is None:
                    var = self._pick_branch_var()
                    if var is None:
                        # every input is assigned, so the true ones are the input word
                        return SatResult("SAT", self._extract_model(), self._true_inputs)
                    next_lit = (var << 1) | 1  # phase default: false
                    self.decisions += 1
                self._new_decision_level()
                self._enqueue(next_lit, None)
        finally:
            self._cancel_until(0)

    def _extract_model(self):
        val = self._lit_val
        model = [False] + [value == _TRUE for value in val[2::2]]
        if __debug__:
            true = {v if model[v] else -v for v in range(1, self.nvars + 1)}
            clause = next(filter(true.isdisjoint, self._clauses), None)
            assert clause is None, f"model violates clause {list(clause)}"
            n = self._input_count
            inputs = int("0" + "".join("1" if b else "0" for b in model[1:n + 1]), 2)
            assert inputs == self._true_inputs, \
                f"model's input word {inputs} is not the true-input mask {self._true_inputs}"
            for w in self._kept:
                assert (w ^ inputs).bit_count() >= self._floor, \
                    f"model is closer than {self._floor} to kept inputs " \
                    f"{[v if w >> n - v & 1 else -v for v in range(1, n + 1)]}"
        return model


def _differs(inputs, word, input_count):
    """The internal literals "input ``v`` differs from ``word``", for each
    input ``v`` in the mask ``inputs`` (bit ``input_count - v``), lowest
    ``v`` first."""
    lits = []
    while inputs:
        top = inputs.bit_length() - 1
        lits.append((input_count - top) << 1 | (word >> top & 1))
        inputs ^= 1 << top
    return lits

