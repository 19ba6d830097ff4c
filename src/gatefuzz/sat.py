"""Incremental CDCL SAT solver over CNF formulas and at-least-k constraints.

A :class:`SolverSession` decides one :class:`~gatefuzz.cnf.CnfFormula` (the
formula object itself is never mutated), and its variables are the
formula's: every array is sized once from ``var_count``, and a literal or
assumption outside them is a ``ValueError``.  It decides satisfiability
under assumptions, returns total models (unconstrained variables default to
false), and accepts permanently added clauses and at-least-k cardinality
constraints.  That is what solution enumeration needs: a blocking clause
excludes one model, and an at-least-k constraint over the literals that
differ from a model keeps every later model at least k away from it (for
k >= 1 it implies that model's blocking clause).

The engine is a deliberately compact MiniSat-style CDCL: two-watched-literal
propagation, first-UIP conflict learning, activity-driven decisions with
phase-false polarity, and Luby restarts.  Everything is deterministic for a
fixed ``decision_seed``.

A clause is the at-least-1 case, and both kinds of constraint go through one
level-0 add path: literals fixed at level 0 are permanent, so false ones
drop out and each true one lowers k; too few left makes the session UNSAT,
exactly k left are propagated as units, and otherwise the constraint is
watched, by two literals when k is 1.

At-least-k constraints with k > 1 are native, after MiniCard (Liffiton &
Maglalang, SAT 2012), and add no helper variables, so the solver decides
only the formula's own variables.  Such a constraint watches k+1 literals
that are not false.  When a watched literal becomes false the watch moves to
an unwatched literal that is not false; when none is left, the other watched
literals must all be true and are propagated.  A propagated literal's reason
is the clause of that literal and the constraint's false literals, and a
conflict is the clause of its false literals, so conflict analysis only ever
sees clauses.  A literal listed twice counts twice.

Values live in one array indexed by literal, as in MiniSat (Eén & Sörensson,
SAT 2003): ``_lit_val[lit]`` is the literal's own value, so the hot loops read
it with one index and no sign flip; assigning or unassigning a variable writes
both of its literals.

Every model is checked against every clause and at-least-k constraint ever
added while asserts are on.  The check is bitmask arithmetic over literals,
indexed like ``_lit_val``.  The model's true literals are packed into one int
and cut into blocks of ``_CHECK_BLOCK_BITS`` literals.  A constraint is kept
as ``(block, mask)`` segments, one per block that holds its literals, and a
literal listed twice goes into two segments, so it still counts twice; a
complementary pair sets two bits of which exactly one is true, so it counts
once.  With ``w`` the block of true literals, a clause holds when ``w & mask``
is nonzero for one of its segments, and an at-least-k constraint when the
popcounts of ``w & mask`` over its segments sum to at least k.  A mask is
never wider than a block, so the check's store grows with the number of
literals and not with the distance between their variables; it is recorded
only while asserts are on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .cnf import CnfFormula

_TRUE = 1
_FALSE = -1
_UNDEF = 0

_RESTART_BASE = 100
_ACTIVITY_DECAY = 0.95
_ACTIVITY_RESCALE = 1e100
_CHECK_BLOCK_BITS = 512  # literals per block in the debug model check


class SolverBudgetError(Exception):
    """Conflict budget exhausted before a verdict was reached."""


@dataclass
class SatResult:
    status: str  # "SAT" or "UNSAT"
    model: list[bool] | None = None  # indexed by variable, entry 0 unused

    @property
    def is_sat(self) -> bool:
        return self.status == "SAT"


class _AtLeast:
    """At least ``k`` of ``lits`` (internal literals) true; positions
    0..k of ``lits`` are the watched ones."""

    __slots__ = ("lits", "k")

    def __init__(self, lits, k):
        self.lits = lits
        self.k = k


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

    Clauses and constraints only accumulate, and every literal they or an
    assumption name must be one of the formula's variables.  The model
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
        self._card_watches: list[list[_AtLeast]] = [[] for _ in range(2 * n + 2)]
        self._rebuild_order()
        self._var_inc = 1.0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._unsat_forever = False
        # every constraint ever added, for the model check: a clause is kept
        # under the block of its first segment as (mask, other segments)
        self._check_clauses: dict[int, list[tuple[int, tuple]]] = {}
        self._check_cards: list[tuple[tuple[tuple[int, int], ...], int]] = []

        for clause in formula.clauses:
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

    @staticmethod
    def _signed(internal):
        var = internal >> 1
        return -var if internal & 1 else var

    # -- constraints -------------------------------------------------------------

    def add_clause(self, clause) -> None:
        """Permanently conjoin a clause of nonzero signed literals."""
        if not clause:
            raise ValueError("empty clause")
        lits = dict.fromkeys(self._internal_lits(clause))  # repeats dropped, in order
        if any(lit ^ 1 in lits for lit in lits):
            return  # tautology, always satisfied
        self._add(list(lits), 1)

    def encode_at_least_k(self, literals, k: int) -> None:
        """Require at least ``k`` of the signed literals to be true.

        Positions are counted, so a literal listed twice counts twice.  The
        constraint is native and adds no variables.  Raises ValueError unless
        ``1 <= k <= len(literals)``.
        """
        literals = list(literals)
        if k > len(literals) or k < 1:
            raise ValueError(f"at-least-{k} over {len(literals)} literals is not satisfiable")
        self._add(self._internal_lits(literals), k)

    def _add(self, lits, k):
        """Add at-least-``k`` over internal literals at decision level 0,
        where assignments are permanent: false literals drop out and each
        true one lowers ``k``.  A clause is the case ``k == 1``."""
        if __debug__:
            if k == 1:
                (block, mask), *rest = _segments(lits)
                self._check_clauses.setdefault(block, []).append((mask, tuple(rest)))
            else:
                self._check_cards.append((_segments(lits), k))
        if self._unsat_forever:
            return
        assert not self._trail_lim, "constraints are added at decision level 0"
        val = self._lit_val
        free = []
        for lit in lits:
            value = val[lit]
            if value == _TRUE:
                k -= 1
            elif value == _UNDEF:
                free.append(lit)
        if k <= 0:
            return
        if len(free) < k:
            self._unsat_forever = True
            return
        if len(free) == k:
            for lit in free:
                value = val[lit]
                if value == _FALSE:  # its complement was just enqueued
                    self._unsat_forever = True
                    return
                if value == _UNDEF:
                    self._enqueue(lit, None)
            if self._propagate() is not None:
                self._unsat_forever = True
            return
        if k == 1:
            self._attach(free)
            return
        card = _AtLeast(free, k)
        for lit in free[:k + 1]:
            self._card_watches[lit].append(card)

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

    def _propagate(self):
        """Unit propagation; returns a conflicting clause or None."""
        val = self._lit_val
        trail = self._trail
        watches = self._watches
        card_watches = self._card_watches
        enqueue = self._enqueue
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
            if conflict is None and card_watches[false_lit]:
                conflict = self._propagate_cards(false_lit)
            if conflict is not None:
                break
        self.propagations += qhead - start
        self._qhead = len(trail)
        return conflict

    def _propagate_cards(self, false_lit):
        """Visit the at-least-k constraints watching ``false_lit``; returns a
        conflicting clause or None."""
        val = self._lit_val
        card_watches = self._card_watches
        enqueue = self._enqueue
        watchers = card_watches[false_lit]
        kept = []
        conflict = None
        for idx, card in enumerate(watchers):
            lits = card.lits
            k = card.k
            # this entry watches false_lit, so its lowest position is watched
            i = lits.index(false_lit)
            for j in range(k + 1, len(lits)):
                if val[lits[j]] != _FALSE:
                    lits[i], lits[j] = lits[j], lits[i]
                    card_watches[lits[i]].append(card)
                    break
            else:
                # Every unwatched literal is false, so only the watched ones
                # that are not false are left to make up k.
                kept.append(card)
                free = [l for l in lits[:k + 1] if val[l] != _FALSE]
                if len(free) < k:
                    conflict = [l for l in lits if val[l] == _FALSE]
                    kept.extend(watchers[idx + 1:])
                    break
                # most visits find the free watched literals already true;
                # the false ones are listed only for a reason, and before
                # the first enqueue, which may falsify a complement
                false_lits = None
                for lit in free:
                    # a complement among them turns false here; its own
                    # watch reports the conflict
                    if val[lit] == _UNDEF:
                        if false_lits is None:
                            false_lits = [l for l in lits if val[l] == _FALSE]
                        enqueue(lit, [lit] + false_lits)
        card_watches[false_lit] = kept
        return conflict

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
        for lit in reversed(self._trail[floor:]):
            val[lit] = val[lit ^ 1] = _UNDEF
            var = lit >> 1
            reason[var] = None
            heappush(order, (-activity[var], var))
        del self._trail[floor:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

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
        pushes one, and a rescale rebuilds the heap."""
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
                        model = self._extract_model()
                        return SatResult("SAT", model)
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
            true_lits = int("".join("1" if v == _TRUE else "0" for v in reversed(val)), 2)
            size = _CHECK_BLOCK_BITS >> 3
            packed = true_lits.to_bytes(len(val) // 8 + 1, "little")
            words = [int.from_bytes(packed[i:i + size], "little")
                     for i in range(0, len(packed), size)]
            for block, clauses in self._check_clauses.items():
                w = words[block]
                for mask, rest in clauses:
                    if not w & mask:
                        assert any(words[b] & m for b, m in rest), \
                            f"model violates clause {_segment_literals(((block, mask),) + rest)}"
            for segments, k in self._check_cards:
                true_count = 0
                for block, mask in segments:
                    true_count += (words[block] & mask).bit_count()
                assert true_count >= k, \
                    f"model violates at-least-{k} over {_segment_literals(segments)}"
        return model


# Shared one-bit masks: most segments of a clause whose variables lie far
# apart hold a single literal, and sharing their mask saves its int.
_BIT = tuple(1 << i for i in range(_CHECK_BLOCK_BITS))


def _segments(internal_lits):
    """``(block, mask)`` segments of internal literals: bit ``lit %
    _CHECK_BLOCK_BITS`` of a block's mask is set for each literal in it.  A
    literal listed again starts a new segment, so it counts again."""
    segments = []
    block = mask = -1
    for lit in sorted(internal_lits):
        bit = _BIT[lit % _CHECK_BLOCK_BITS]
        if lit // _CHECK_BLOCK_BITS == block and not mask & bit:
            mask |= bit
        else:
            if block >= 0:
                segments.append((block, mask))
            block = lit // _CHECK_BLOCK_BITS
            mask = bit
    segments.append((block, mask))
    return tuple(segments)


def _segment_literals(segments):
    """The signed literals of a constraint's segments, for messages."""
    return [SolverSession._signed(block * _CHECK_BLOCK_BITS + i)
            for block, mask in segments
            for i in range(mask.bit_length()) if mask >> i & 1]
