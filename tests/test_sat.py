import itertools
import math
import random

import pytest

from gatefuzz import sat as sat_module
from gatefuzz.cnf import CnfFormula, encode
from gatefuzz.fixtures import load_circuit
from gatefuzz.graph import build_graph
from gatefuzz.netlist import scan_convert
from gatefuzz.pattern import InputPattern
from gatefuzz.sat import _FALSE, _TRUE, _UNDEF, SolverBudgetError, SolverSession
from gatefuzz.seedgen import GenConfig, generate
from gatefuzz.simulate import simulate
from gatefuzz.targets import TargetSpec

from conftest import all_patterns, random_netlist


def formula_of(clauses, nvars):
    # every variable is a primary input, so any of them can carry a floor
    return CnfFormula(clauses=[tuple(c) for c in clauses], var_count=nvars,
                      input_count=nvars)


def model_of(*inputs):
    """A total model as ``solve`` returns it: entry 0 unused."""
    return [False] + [bool(b) for b in inputs]


def input_word(model, inputs=None):
    """The word of a model's first ``inputs`` variables (all by default) as
    ``keep_distance`` takes it: the first input is the most significant bit."""
    bits = model[1:] if inputs is None else model[1:inputs + 1]
    return int("0" + "".join("1" if bit else "0" for bit in bits), 2)


def brute_force_sat(clauses, nvars, fixed=()):
    """Exhaustive satisfiability oracle over total assignments."""
    fixed_map = {abs(l): l > 0 for l in fixed}
    for bits in itertools.product([False, True], repeat=nvars):
        assignment = {v: bits[v - 1] for v in range(1, nvars + 1)}
        if any(assignment[v] != want for v, want in fixed_map.items()):
            continue
        if all(any(assignment[abs(l)] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def test_single_unit_sat():
    s = SolverSession(formula_of([(1,)], 1))
    r = s.solve()
    assert r.is_sat and r.model[1] is True


def test_contradiction_unsat():
    s = SolverSession(formula_of([(1,), (-1,)], 1))
    assert s.solve().status == "UNSAT"


def test_unconstrained_variables_default_false():
    s = SolverSession(formula_of([(1,)], 4))
    r = s.solve()
    assert r.model[1] is True
    assert r.model[2] is r.model[3] is r.model[4] is False


def test_assumptions_flip_result():
    s = SolverSession(formula_of([(1, 2)], 2))
    assert s.solve(assumptions=[-1, -2]).status == "UNSAT"
    r = s.solve(assumptions=[-1])
    assert r.is_sat and r.model[2] is True
    assert s.solve().is_sat  # session still usable, no pollution


def test_oracle_equivalence_random_formulas():
    rng = random.Random(31)
    for trial in range(120):
        nvars = rng.randint(1, 11)
        n_clauses = rng.randint(1, 4 * nvars)
        clauses = []
        for _ in range(n_clauses):
            width = rng.randint(1, min(4, nvars))
            vs = rng.sample(range(1, nvars + 1), width)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        expected = brute_force_sat(clauses, nvars)
        got = SolverSession(formula_of(clauses, nvars)).solve()
        assert got.is_sat == expected, (trial, clauses)


def test_oracle_equivalence_under_assumptions():
    rng = random.Random(32)
    for _ in range(60):
        nvars = rng.randint(2, 10)
        clauses = []
        for _ in range(rng.randint(2, 3 * nvars)):
            width = rng.randint(1, min(3, nvars))
            vs = rng.sample(range(1, nvars + 1), width)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        assumptions = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, nvars + 1), rng.randint(0, nvars))]
        session = SolverSession(formula_of(clauses, nvars))
        got = session.solve(assumptions=assumptions)
        assert got.is_sat == brute_force_sat(clauses, nvars, fixed=assumptions)
        if got.is_sat:
            for lit in assumptions:
                assert got.model[abs(lit)] == (lit > 0)


def test_model_satisfies_all_clauses():
    rng = random.Random(33)
    for _ in range(40):
        nvars = rng.randint(1, 12)
        clauses = [tuple(v if rng.random() < 0.5 else -v
                         for v in rng.sample(range(1, nvars + 1), rng.randint(1, min(3, nvars))))
                   for _ in range(rng.randint(1, 3 * nvars))]
        r = SolverSession(formula_of(clauses, nvars)).solve()
        if r.is_sat:
            for c in clauses:
                assert any(r.model[abs(l)] == (l > 0) for l in c)


def test_determinism_same_seed_same_models():
    graph = build_graph(scan_convert(load_circuit("c17")))
    f = encode(graph)

    def model_sequence(seed):
        s = SolverSession(f, decision_seed=seed)
        models = []
        while True:
            r = s.solve()
            if not r.is_sat:
                break
            models.append(tuple(r.model[1:]))
            s.add_clause([-v if r.model[v] else v
                          for v in map(f.node_var, range(f.input_count))])
        return models

    first = model_sequence(42)
    second = model_sequence(42)
    assert first == second
    assert len(first) == 32  # one model per input assignment


def test_add_blocking_clause_excludes_model():
    s = SolverSession(formula_of([(1, 2)], 2))
    seen = set()
    while True:
        r = s.solve()
        if not r.is_sat:
            break
        bits = (r.model[1], r.model[2])
        assert bits not in seen
        seen.add(bits)
        s.add_clause([-1 if r.model[1] else 1, -2 if r.model[2] else 2])
    assert seen == {(True, False), (False, True), (True, True)}


def test_add_single_negation_flips():
    s = SolverSession(formula_of([(1, 2)], 2))
    r = s.solve()
    assert r.is_sat
    s.add_clause([-1] if r.model[1] else [1])
    r2 = s.solve()
    assert r2.status == "UNSAT" or r2.model[1] != r.model[1]


@pytest.mark.parametrize("m,k", [(2, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 4), (6, 3)])
def test_at_least_k_counts_by_enumeration(m, k):
    # a floor of k over m inputs keeps the words at least k away from the
    # kept one: sum over j >= k of C(m, j) of the 2**m
    kept = model_of(*(v % 2 for v in range(1, m + 1)))
    sat_count = 0
    for bits in itertools.product([0, 1], repeat=m):
        s = SolverSession(formula_of([], m))
        s.keep_distance(input_word(kept), k)
        assumptions = [v if bits[v - 1] else -v for v in range(1, m + 1)]
        if s.solve(assumptions=assumptions).is_sat:
            sat_count += 1
    assert sat_count == sum(math.comb(m, j) for j in range(k, m + 1))


def test_at_least_2_of_4_is_11_of_16():
    # one session, enumerated with blocking clauses: 16 - 1 - 4 words
    s = SolverSession(formula_of([], 4))
    s.keep_distance(input_word(model_of(0, 1, 1, 0)), 2)
    words = set()
    while (r := s.solve()).is_sat:
        words.add(tuple(r.model[1:]))
        s.add_clause([-v if r.model[v] else v for v in range(1, 5)])
    assert len(words) == 11
    assert all(sum(a != b for a, b in zip(w, (0, 1, 1, 0))) >= 2 for w in words)


def test_at_least_k_negated_literals():
    # far from an all-true model means at least two inputs false
    s = SolverSession(formula_of([], 3))
    s.keep_distance(input_word(model_of(1, 1, 1)), 2)
    r = s.solve()
    assert r.is_sat
    assert sum(not r.model[v] for v in (1, 2, 3)) >= 2
    assert s.solve(assumptions=[1, 2]).status == "UNSAT"


def test_at_least_k_infeasible():
    s = SolverSession(CnfFormula(clauses=[], var_count=4, input_count=3))
    for d in (0, 4):
        with pytest.raises(ValueError, match=rf"^distance {d} is not in 1..3, the primary inputs$"):
            s.keep_distance(input_word(model_of(0, 0, 0, 0), 3), d)
    s.keep_distance(input_word(model_of(0, 0, 0, 0), 3), 2)
    with pytest.raises(ValueError, match=r"^distance 3 differs from the session's floor 2$"):
        s.keep_distance(input_word(model_of(1, 1, 1, 0), 3), 3)
    s.keep_distance(input_word(model_of(1, 1, 1, 0), 3), 2)  # the same floor is accepted
    # two of three inputs true and two of three false: no model is left
    assert s.solve().status == "UNSAT"


def test_keep_distance_takes_the_input_word_first_input_first():
    # input 1 is the most significant bit of the word, as in a pattern
    s = SolverSession(formula_of([], 3))
    s.keep_distance(0b100, 3)
    r = s.solve()
    assert r.model[1:] == [False, True, True] and r.inputs == 0b011
    for word in (-1, 0b1000):
        with pytest.raises(ValueError, match=rf"^input word {word} does not fit in 3 bits$"):
            s.keep_distance(word, 3)


def test_budget_exhausted_is_distinct_error():
    # 2-variable complete contradiction: needs a decision and conflicts
    clauses = [(1, 2), (1, -2), (-1, 2), (-1, -2)]
    s = SolverSession(formula_of(clauses, 2), conflict_budget=0)
    with pytest.raises(SolverBudgetError):
        s.solve()
    # with room to work it proves UNSAT
    s2 = SolverSession(formula_of(clauses, 2), conflict_budget=100)
    assert s2.solve().status == "UNSAT"


def test_c17_output_assumption_model_simulates():
    netlist = scan_convert(load_circuit("c17"))
    graph = build_graph(netlist)
    f = encode(graph)
    out_var = f.node_var(graph.node_id("n22"))
    r = SolverSession(f).solve(assumptions=[out_var])
    assert r.is_sat
    pattern = InputPattern.from_word(r.inputs, f.input_count)
    assert simulate(graph, pattern)[graph.node_id("n22")] == 1
    # cross-check with brute force: some input must set n22=1
    assert any(simulate(graph, p)[graph.node_id("n22")] == 1 for p in all_patterns(5))


@pytest.mark.parametrize("bad", [0, 4, -4])
def test_literal_outside_the_variables_is_rejected(bad):
    # the session's variables are the formula's three: x1 holds, x2 does
    # not, and x3 is free, which a constraint added without the bad literal
    # would change
    s = SolverSession(formula_of([(1,), (-2,)], 3))
    for add in (lambda: s.add_clause([3, bad]),
                lambda: s.add_clause([1, -1, bad]),  # a tautology around it
                lambda: s.solve(assumptions=[3, bad])):
        calls = s.solve_calls
        with pytest.raises(ValueError, match=f"literal {bad} is not a variable in 1..3"):
            add()
        assert s.nvars == 3 and s.solve_calls == calls
        r = s.solve(assumptions=[-3])
        assert r.is_sat and r.model == [False, True, False, False]
    s.add_clause([-1])  # an UNSAT session still checks its assumptions
    with pytest.raises(ValueError, match=f"literal {bad} is not"):
        s.solve(assumptions=[bad])


def test_decisions_follow_activity_after_a_rescale(monkeypatch):
    # with no clauses every variable is decided, highest activity first
    s = SolverSession(formula_of([], 6))
    by_seed = sorted(range(1, 7), key=lambda v: -s._activity[v])
    assert by_seed == [1, 2, 5, 3, 6, 4]
    monkeypatch.setattr("gatefuzz.sat._ACTIVITY_RESCALE", 0.5)
    s._bump(4)  # past the bound: every activity is scaled by 1e-100
    assert s._var_inc == 1e-100
    picked = []
    pick = s._pick_branch_var

    def recording_pick():
        picked.append(pick())
        return picked[-1]

    s._pick_branch_var = recording_pick
    assert s.solve().is_sat
    assert picked == [4, 1, 2, 5, 3, 6, None]


def _count_true(model, literals):
    return sum(model[abs(l)] == (l > 0) for l in literals)


def _distance(model, kept, nvars):
    return sum(model[v] != kept[v] for v in range(1, nvars + 1))


def _brute_force_floor_sat(nvars, clauses, kept, d, fixed):
    """Exhaustive oracle over clauses and kept models at distance ``d``."""
    for bits in itertools.product([False, True], repeat=nvars):
        model = (None,) + bits
        if (all(model[abs(l)] == (l > 0) for l in fixed)
                and all(_count_true(model, c) >= 1 for c in clauses)
                and all(_distance(model, w, nvars) >= d for w in kept)):
            return True
    return False


def _random_clause_literals(rng, nvars):
    """Distinct-variable literals, sometimes with a repeat or a complement,
    which ``add_clause`` drops or reads as a tautology."""
    lits = [v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, nvars + 1), rng.randint(1, min(6, nvars)))]
    roll = rng.random()
    if roll < 0.2:
        lits.append(rng.choice(lits))
    elif roll < 0.4:
        lits.append(-rng.choice(lits))
    rng.shuffle(lits)
    return lits


def _model_to_keep(rng, nvars, last):
    """The last model the session returned, or a random total model."""
    if last is not None and rng.random() < 0.5:
        return last
    return [False] + [rng.random() < 0.5 for _ in range(nvars)]


def test_incremental_cardinality_matches_brute_force():
    _check_incremental_cardinality()


def test_incremental_cardinality_matches_brute_force_with_rescales(monkeypatch):
    # at 1.0 the first bump of a session rescales
    monkeypatch.setattr("gatefuzz.sat._ACTIVITY_RESCALE", 1.0)
    assert _check_incremental_cardinality() > 20


def _check_incremental_cardinality():
    """Checks 500 random sessions of clauses and distance floors against the
    brute-force oracle; returns how many of them rescaled their activities."""
    rng = random.Random(34)
    rescaled = 0
    verdicts = {True: 0, False: 0}
    for trial in range(500):
        nvars = rng.randint(1, 10)
        d = rng.randint(1, nvars)  # the session's one floor
        clauses, kept, last = [], [], None
        session = SolverSession(formula_of([], nvars), decision_seed=trial)
        for _ in range(rng.randint(4, 12)):
            roll = rng.random()
            if roll < 0.3:
                # narrow clauses include units, which fix literals at level 0
                vs = rng.sample(range(1, nvars + 1), rng.randint(1, min(3, nvars)))
                clause = [v if rng.random() < 0.5 else -v for v in vs]
                clauses.append(clause)
                session.add_clause(clause)
            elif roll < 0.6:
                model = _model_to_keep(rng, nvars, last)
                kept.append(model)
                session.keep_distance(input_word(model), d)
            else:
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(range(1, nvars + 1),
                                                   rng.randint(0, min(3, nvars)))]
                got = session.solve(assumptions=assumptions)
                expected = _brute_force_floor_sat(nvars, clauses, kept, d, assumptions)
                assert got.is_sat == expected, (trial, clauses, kept, d, assumptions)
                verdicts[expected] += 1
                if got.is_sat:
                    last = got.model
                    assert all(got.model[abs(l)] == (l > 0) for l in assumptions)
                    assert all(_count_true(got.model, c) >= 1 for c in clauses)
                    assert all(_distance(got.model, w, nvars) >= d for w in kept)
        rescaled += session._var_inc < 1.0  # only a rescale lowers it
    assert verdicts[True] > 200 and verdicts[False] > 200
    return rescaled


def test_dense_sessions_match_brute_force():
    # several times the conflicts of the 500 trials above, so conflict
    # analysis, learnt clauses and backjumping are checked against the
    # oracle too
    assert _check_dense_sessions() >= 410


def test_dense_sessions_match_brute_force_with_restarts(monkeypatch):
    # no solve here reaches the default 100 conflicts before a restart; at a
    # base of 1 restarts are frequent.  _luby(n) with n > 0 is one restart.
    monkeypatch.setattr("gatefuzz.sat._RESTART_BASE", 1)
    luby, restarts = sat_module._luby, []
    monkeypatch.setattr("gatefuzz.sat._luby", lambda n: restarts.append(n) or luby(n))
    _check_dense_sessions()
    assert sum(n > 0 for n in restarts) >= 200


def _check_dense_sessions():
    """Checks 240 sessions of 8-12 variables, 20-50 mostly 3-literal clauses
    near the satisfiability threshold and a few distance floors, against a
    brute-force oracle that keeps the set of models as a bitset over all
    assignments.  Returns the conflicts of all sessions."""
    rng = random.Random(35)
    conflicts = 0
    verdicts = {True: 0, False: 0}
    for trial in range(240):
        nvars = rng.randint(8, 12)
        d = rng.randint(1, 4)  # the session's one floor
        assignments = range(1 << nvars)
        models = (1 << len(assignments)) - 1  # bit a set: assignment a is a model
        true_in = {}  # literal -> bitset of the assignments that make it true
        for v in range(1, nvars + 1):
            true_in[v] = sum(1 << a for a in assignments if a >> (v - 1) & 1)
            true_in[-v] = models ^ true_in[v]
        session = SolverSession(formula_of([], nvars), decision_seed=trial)
        last = None
        for _ in range(rng.randint(20, 50)):
            if rng.random() < 0.05:
                model = _model_to_keep(rng, nvars, last)
                session.keep_distance(input_word(model), d)
                word = sum(1 << (v - 1) for v in range(1, nvars + 1) if model[v])
                models &= sum(1 << a for a in assignments if (a ^ word).bit_count() >= d)
            else:
                clause = [v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, nvars + 1), 3)]
                session.add_clause(clause)
                models &= true_in[clause[0]] | true_in[clause[1]] | true_in[clause[2]]
            if rng.random() < 0.3:
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(range(1, nvars + 1), rng.randint(0, 4))]
                got = session.solve(assumptions=assumptions)
                expected = models
                for lit in assumptions:
                    expected &= true_in[lit]
                assert got.is_sat == (expected != 0), (trial, assumptions)
                verdicts[got.is_sat] += 1
                if got.is_sat:
                    last = got.model
                    model = sum(1 << (v - 1) for v in range(1, nvars + 1) if got.model[v])
                    assert models >> model & 1
                    assert all(got.model[abs(l)] == (l > 0) for l in assumptions)
        conflicts += session.conflicts
    assert verdicts[True] > 200 and verdicts[False] > 200
    return conflicts


@pytest.mark.parametrize("rescale_at", [sat_module._ACTIVITY_RESCALE, 1.0])
def test_picks_follow_activity(monkeypatch, rescale_at):
    # every pick of the dense sessions above, checked against a scan of the
    # variables; at a bound of 1.0 a bump past it rescales every activity
    monkeypatch.setattr("gatefuzz.sat._ACTIVITY_RESCALE", rescale_at)
    pick = SolverSession._pick_branch_var
    checked = {"var": 0, "None": 0, "rescaled": 0}

    def checked_pick(session):
        activity = session._activity
        live = {var for key, var in session._order if -key == activity[var]}
        unassigned = [v for v in range(1, session.nvars + 1)
                      if session._lit_val[2 * v] == _UNDEF]
        assert set(unassigned) <= live
        var = pick(session)
        if var is None:
            assert unassigned == []
            checked["None"] += 1
        else:
            assert var == max(unassigned, key=lambda v: (activity[v], -v))
            checked["var"] += 1
        checked["rescaled"] += session._var_inc < 1.0
        return var

    monkeypatch.setattr(SolverSession, "_pick_branch_var", checked_pick)
    _check_dense_sessions()
    assert checked["var"] > 8000 and checked["None"] > 1500
    assert (checked["rescaled"] > 2000) == (rescale_at == 1.0)


def test_decision_heap_stays_within_two_entries_per_variable(monkeypatch):
    # an exhaustion run of over a thousand conflicts: every backtrack pushes
    # the variables it unassigns, live entry or not, so the heap must be
    # rebuilt for its length to stay bounded
    sessions, lengths = [], []
    pick = SolverSession._pick_branch_var

    def recorded_pick(session):
        if session not in sessions:
            sessions.append(session)
        lengths.append(len(session._order) / session.nvars)
        return pick(session)

    monkeypatch.setattr(SolverSession, "_pick_branch_var", recorded_pick)
    rng = random.Random(100)
    n_inputs = rng.randint(12, 16)
    graph = build_graph(random_netlist(rng, n_inputs, 300))
    values = simulate(graph, InputPattern(tuple(rng.randrange(2) for _ in range(n_inputs))))
    spec = TargetSpec([(n, values[n]) for n in rng.sample(range(n_inputs, graph.node_count), 2)])
    report = generate(graph, spec, GenConfig(pattern_budget=100_000, d_min=3, seed=100))
    assert report.exhausted and report.conflicts > 1000
    (session,) = sessions
    assert max(lengths) <= 2
    assert len(session._order) <= 2 * session.nvars


def test_at_least_k_over_literals_fixed_at_level_0():
    # units fix inputs 1 and 2 as in the kept model, so a floor of 2 needs
    # both inputs left to differ: they are implied at level 0, before or
    # after the units
    kept = model_of(1, 0, 1, 0)
    for units_first in (True, False):
        s = SolverSession(formula_of([(1,), (-2,)] if units_first else [], 4))
        s.keep_distance(input_word(kept), 2)
        if not units_first:
            s.add_clause([1])
            s.add_clause([-2])
        r = s.solve()
        assert r.is_sat and r.model == model_of(1, 0, 0, 1)
        assert s.decisions == 0
        assert s.solve(assumptions=[3]).status == "UNSAT"
        assert s.conflicts == 0
    # units that agree in three places leave too few inputs to differ: the
    # session is UNSAT without a conflict, so no budget is spent
    for units_first in (True, False):
        s = SolverSession(formula_of([(1,), (-2,), (3,)] if units_first else [], 4),
                          conflict_budget=0)
        s.keep_distance(input_word(kept), 2)
        if not units_first:
            for unit in ([1], [-2], [3]):
                s.add_clause(unit)
        assert s.solve().status == "UNSAT"
        assert s.conflicts == 0


def test_budget_exhausted_on_cardinality_conflict():
    # floors of 2 from 000 and from 111 over three inputs, and no clause at
    # all, so every conflict comes from a floor
    s = SolverSession(formula_of([], 3), conflict_budget=0)
    s.keep_distance(input_word(model_of(0, 0, 0)), 2)
    s.keep_distance(input_word(model_of(1, 1, 1)), 2)
    with pytest.raises(SolverBudgetError):
        s.solve()
    assert s.conflicts == 1
    s.conflict_budget = None  # the session stays usable after the error
    assert s.solve().status == "UNSAT"


def test_propagations_count_dequeued_literals():
    # x1 -> x2 -> x3 -> x4: the assumption and its three implications are
    # each dequeued once, and nothing is left to decide
    s = SolverSession(formula_of([(-1, 2), (-2, 3), (-3, 4)], 4))
    r = s.solve(assumptions=[1])
    assert r.is_sat and r.model[1:] == [True] * 4
    assert s.decisions == 0
    assert s.propagations == 4
    # x1 implies x2 and x3, and dequeuing x2 finds the conflict: x3 is
    # implied but never dequeued, and the learnt unit -x1 is dequeued once
    s = SolverSession(formula_of([(-1, 2), (-1, 3), (-2, -3)], 3))
    assert s.solve(assumptions=[1]).status == "UNSAT"
    assert s.conflicts == 1
    assert s.propagations == 3


debug_check = pytest.mark.skipif(
    not __debug__, reason="the model check in _extract_model runs only with asserts on")


def _force(session, assignment):
    """Overwrite the session's value array and input masks with a total
    assignment (index v of ``assignment`` is variable v; index 0 unused)."""
    for var in range(1, session.nvars + 1):
        value = _TRUE if assignment[var] else _FALSE
        session._lit_val[2 * var] = value
        session._lit_val[2 * var + 1] = -value
    session._assigned_inputs = session._all_inputs
    session._true_inputs = input_word(assignment, session._input_count)


def _sat_session(nvars, clauses=(), kept=(), d=0):
    s = SolverSession(formula_of(clauses, nvars))
    for model in kept:
        s.keep_distance(input_word(model), d)
    assert s.solve().is_sat
    return s


@debug_check
def test_model_check_fires_on_violated_clause():
    s = _sat_session(3, clauses=[(1, -2), (2, 3)])
    _force(s, [None, True, True, False])
    s._extract_model()  # both clauses hold
    _force(s, [None, False, True, True])  # (1, -2) is violated
    with pytest.raises(AssertionError, match=r"violates clause \[1, -2\]"):
        s._extract_model()


@debug_check
def test_model_check_fires_on_violated_at_least_k():
    s = _sat_session(4, kept=[model_of(1, 0, 1, 1)], d=3)
    _force(s, [None, False, True, False, True])  # three inputs differ
    s._extract_model()
    _force(s, [None, False, True, True, True])  # only two do
    with pytest.raises(AssertionError, match="closer than 3"):
        s._extract_model()


@debug_check
@pytest.mark.parametrize("max_vars", [512, 8])
def test_mask_check_matches_literal_recount(max_vars):
    # 512: input words past a machine word, clauses over far-apart variables;
    # 8: narrow formulas whose clauses and kept models overlap heavily
    rng = random.Random(35)
    outcomes = {True: 0, False: 0}
    for trial in range(400):
        nvars = rng.randint(1, max_vars)
        s = SolverSession(formula_of([], nvars))
        assignment = [None] + [rng.random() < 0.5 for _ in range(nvars)]
        model = tuple(assignment)
        clauses, kept, d = [], [], 0
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.7:
                clause = _random_clause_literals(rng, nvars)
                if rng.random() < 0.3:
                    # every literal false, unless a complement made it a
                    # tautology, whose flip is a repeat
                    clause = [-l if _count_true(model, [l]) else l for l in clause]
                clauses.append(clause)
                s.add_clause(clause)
            else:
                word = _model_to_keep(rng, nvars, None)
                if not d:
                    # at the distance or one above it, so the first floor sits
                    # on the boundary of the check
                    d = min(nvars, max(1, _distance(model, word, nvars) + rng.randint(0, 1)))
                kept.append(word)
                s.keep_distance(input_word(word), d)
        holds = (all(_count_true(model, c) >= 1 for c in clauses)
                 and all(_distance(model, w, nvars) >= d for w in kept))
        _force(s, assignment)
        try:
            got = s._extract_model()
        except AssertionError:
            assert not holds, (trial, clauses, kept, d, assignment)
        else:
            assert holds, (trial, clauses, kept, d, assignment)
            assert got == [False] + assignment[1:]
        outcomes[holds] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100


@debug_check
def test_check_names_a_clause_as_given():
    # variables far apart, and a repeat the solver drops but the check keeps
    far = 2048
    formula = formula_of([(1, -far, far // 2)], far)
    s = SolverSession(formula)
    s.add_clause([2, 2, -(far - 1), far // 2 + 1])
    assert s._clauses[0] is formula.clauses[0]  # a reference, not a copy
    assert s._clauses[1] == (2, 2, -(far - 1), far // 2 + 1)
    assignment = [None] + [False] * far
    assignment[2] = True
    _force(s, assignment)  # -far holds the first clause, 2 the second
    s._extract_model()
    assignment[far] = True  # now no literal of the first clause holds
    _force(s, assignment)
    with pytest.raises(AssertionError,
                       match=rf"^model violates clause \[1, -{far}, {far // 2}\]$"):
        s._extract_model()
    assignment[far] = False
    assignment[2] = False
    assignment[far - 1] = True  # and now none of the second
    _force(s, assignment)
    with pytest.raises(AssertionError,
                       match=rf"^model violates clause \[2, 2, -{far - 1}, {far // 2 + 1}\]$"):
        s._extract_model()


@pytest.mark.skipif(__debug__, reason="the clause list is empty only under python -O")
def test_clause_list_stays_empty_without_asserts():
    s = SolverSession(formula_of([(1, -2), (2, 3)], 3))
    s.add_clause([-1, -3])
    assert s.solve().is_sat
    assert s._clauses == []


@debug_check
def test_model_check_fires_on_a_wrong_input_word():
    s = _sat_session(4, clauses=[(1, 2)])
    _force(s, [None, True, False, True, False])
    s._extract_model()
    s._true_inputs ^= 1 << 2  # input 2's bit, flipped
    with pytest.raises(AssertionError, match=r"^model's input word 10 is not the "
                                             r"true-input mask 14$"):
        s._extract_model()


@debug_check
def test_check_names_the_violated_clause():
    s = _sat_session(4, clauses=[(1, -2), (2, 3), (-1, 4)])
    _force(s, [None, True, True, False, True])
    s._extract_model()
    _force(s, [None, False, False, False, True])  # only (2, 3) is violated
    with pytest.raises(AssertionError, match=r"^model violates clause \[2, 3\]$"):
        s._extract_model()
    _force(s, [None, True, False, True, False])  # only (-1, 4) is violated
    with pytest.raises(AssertionError, match=r"^model violates clause \[-1, 4\]$"):
        s._extract_model()


@debug_check
def test_check_names_the_violated_at_least_k():
    kept = [model_of(1, 0, 1, 1), model_of(0, 0, 0, 0)]
    s = _sat_session(4, kept=kept, d=2)
    _force(s, [None, False, True, False, True])  # 3 and 2 inputs away
    s._extract_model()
    _force(s, [None, True, False, True, False])  # 1 from the first
    with pytest.raises(AssertionError,
                       match=r"^model is closer than 2 to kept inputs \[1, -2, 3, 4\]$"):
        s._extract_model()
    _force(s, [None, False, False, False, True])  # 1 from the second
    with pytest.raises(AssertionError,
                       match=r"^model is closer than 2 to kept inputs \[-1, -2, -3, -4\]$"):
        s._extract_model()


def _kept_words(rng, width, count):
    """Random input words, most of them a few flips from an earlier one, so
    that the index's buckets share words and near pairs are common."""
    words = []
    for _ in range(count):
        word = rng.getrandbits(width)
        if words and rng.random() < 0.7:
            word = rng.choice(words)
            for _ in range(rng.randint(0, 3)):
                word ^= 1 << rng.randrange(width)
        words.append(word)
    return words


def _session_keeping(monkeypatch, width, words, d):
    """A clause-free session that holds ``words`` in its index at floor
    ``d``, with no level-0 consequence of keeping them."""
    s = SolverSession(formula_of([], width))
    with monkeypatch.context() as m:
        m.setattr(SolverSession, "_check_distance", lambda self, numbers=None: None)
        m.setattr(SolverSession, "_propagate", lambda self: None)
        for word in words:
            s.keep_distance(word, d)
    return s


def test_index_finds_what_a_full_scan_finds(monkeypatch):
    # widths from 1, every floor from 1 to the width, so d + 1 blocks
    # include empty ones whenever the width is below d + 1
    rng = random.Random(41)
    seen = {"near": 0, "far": 0, "conflict": 0, "implied": 0, "quiet": 0}
    for width in [*range(1, 11), 31, 64, 70]:
        floors = range(1, width + 1) if width <= 10 else rng.sample(range(1, width + 1), 5)
        for d in floors:
            for _ in range(3):
                words = _kept_words(rng, width, rng.randint(0, 40))
                s = _session_keeping(monkeypatch, width, words, d)
                full = _session_keeping(monkeypatch, width, words, d)
                for _ in range(20):
                    probe = rng.getrandbits(width)
                    if words and rng.random() < 0.7:  # a few flips from a kept word
                        probe = rng.choice(words) ^ (probe & rng.getrandbits(width)
                                                     & rng.getrandbits(width))
                    near = any((probe ^ w).bit_count() < d for w in words)
                    assert s.near(probe) == near, (width, d, words, probe)
                    seen["near" if near else "far"] += 1
                # the floor check under partial assignments with at most d
                # inputs free, against the same code handed every kept word
                # in kept order
                for _ in range(8 if words else 0):
                    assigned = rng.sample(range(1, width + 1), width - rng.randint(0, d))
                    lits = [var << 1 | rng.getrandbits(1) for var in assigned]
                    for session in (s, full):
                        session._cancel_until(0)
                        session._new_decision_level()
                        for lit in lits:
                            session._enqueue(lit, None)
                    got = s._check_distance()
                    assert got == full._check_distance(list(range(len(words)))), \
                        (width, d, words, lits)
                    assert s._trail == full._trail
                    assert [s._reason[lit >> 1] for lit in s._trail] == \
                        [full._reason[lit >> 1] for lit in full._trail]
                    seen["conflict" if got is not None else
                         "implied" if len(s._trail) > len(lits) else "quiet"] += 1
    assert min(seen.values()) > 100, seen


def _session_state(s):
    return (s._watches, s._lit_val, s._trail, s._level, s._reason, s._qhead,
            s._assigned_inputs, s._true_inputs, s._unsat_forever, s._clauses, s.propagations)


def test_formula_load_equals_adding_its_clauses_one_at_a_time():
    # a session built from a formula is one of the same shape fed its
    # clauses by add_clause, watch order, debug list and next model included
    rng = random.Random(57)
    kinds = dict.fromkeys(("watched", "unit", "repeat", "tautology", "fixed", "emptied",
                           "unsat", "bad"), 0)
    for trial in range(600):
        n = rng.randint(1, 9)
        clauses, units = [], []
        for _ in range(rng.randint(0, 14)):
            roll = rng.random()
            lit = rng.choice((1, -1)) * rng.randint(1, n)
            if roll < 0.15:
                clauses.append((lit,))
                units.append(lit)
                kinds["unit"] += 1
                continue
            clause = [rng.choice((1, -1)) * v for v in rng.sample(range(1, n + 1),
                                                                   rng.randint(1, min(n, 4)))]
            if roll < 0.25:
                clause.insert(rng.randint(0, len(clause)), rng.choice(clause))
                kinds["repeat"] += 1
            elif roll < 0.32:
                clause.insert(rng.randint(0, len(clause)), -rng.choice(clause))
                kinds["tautology"] += 1
            elif roll < 0.45 and units:
                # literals an earlier unit set, true or false
                clause.insert(rng.randint(0, len(clause)), rng.choice((1, -1)) * rng.choice(units))
                kinds["fixed"] += 1
            elif roll < 0.52 and units:
                clause = [-u for u in rng.sample(units, rng.randint(1, len(units)))]
                kinds["emptied"] += 1
            else:
                kinds["watched"] += len(clause) > 1
            clauses.append(tuple(clause))
        input_count = rng.randint(0, n)
        seed = rng.randrange(100)
        formula = CnfFormula(clauses=clauses, var_count=n, input_count=input_count)
        fed = SolverSession(CnfFormula(clauses=[], var_count=n, input_count=input_count),
                            decision_seed=seed)
        if rng.random() < 0.1:
            # a literal 0 or beyond the variables, anywhere in the formula
            at = rng.randint(0, len(clauses))
            clauses.insert(at, (rng.randint(1, n), rng.choice((0, n + 1, -n - 1))))
            with pytest.raises(ValueError) as by_formula:
                SolverSession(formula, decision_seed=seed)
            with pytest.raises(ValueError) as by_clause:
                for clause in clauses:
                    fed.add_clause(clause)
            assert str(by_formula.value) == str(by_clause.value)
            assert str(by_formula.value).startswith("literal ")
            kinds["bad"] += 1
            continue
        built = SolverSession(formula, decision_seed=seed)
        for clause in clauses:
            fed.add_clause(clause)
        assert _session_state(built) == _session_state(fed), (trial, clauses)
        kinds["unsat"] += built._unsat_forever
        one, other = built.solve(), fed.solve()
        assert (one.status, one.model, one.inputs) == (other.status, other.model, other.inputs)
        assert _session_state(built) == _session_state(fed), (trial, clauses)
    assert min(kinds.values()) >= 40, kinds
