import itertools
import os
import random
import subprocess
import sys

import pytest

import gatefuzz
import gatefuzz.seedgen as seedgen_module
from gatefuzz.bench import parse_bench
from gatefuzz.coverage import first_sightings, measure, report_and_curve
from gatefuzz.fixtures import fixture_text, load_circuit
from gatefuzz.graph import build_graph
from gatefuzz.netlist import scan_convert
from gatefuzz.pattern import InputPattern
from gatefuzz.sat import SolverSession
from gatefuzz.seedgen import (GenConfig, GenConfigError, _lift, _parity_binds_every_input,
                              distance_extremes, generate, read_patterns, report_csv_row,
                              target_formula, write_patterns)
from gatefuzz.simulate import run_pass, run_ternary, simulate
from gatefuzz.targets import TargetError, TargetSpec, parse_targets

from conftest import all_patterns, random_netlist


FIXTURE_SPECS = (("c17", "c17.internal"), ("c17", "c17.outputs"), ("c432", "c432.mixed"),
                 ("or4", "or4.y1"), ("s27", "s27.scan"), ("and_tree16", "and_tree16.root"),
                 ("xor_ladder8", "xor_ladder8.parity"))


def _graph(text):
    return build_graph(scan_convert(parse_bench(text)))


def _qualifying_inputs(graph, entries):
    """All input patterns that drive every target entry (brute force)."""
    out = []
    for p in all_patterns(graph.input_count):
        v = simulate(graph, p)
        if all(v[n] == want for n, want in entries):
            out.append(p)
    return out


def test_unique_satisfying_input_exhausts():
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)")
    report = generate(g, parse_targets("y=1", g), GenConfig(pattern_budget=10))
    assert [p.bits for p in report.patterns] == [(1, 1)]
    assert report.exhausted and report.stop_reason == "exhausted"
    assert report.solver_calls >= 2  # the model, then the UNSAT proof


def test_or4_distance_two_code():
    g = _graph("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = OR(a, b, c, d)")
    spec = parse_targets("y=1", g)
    report = generate(g, spec, GenConfig(pattern_budget=100, d_min=2))
    qualifying = _qualifying_inputs(g, spec.entries)
    assert len(qualifying) == 15
    assert 2 <= len(report.patterns) <= 15
    for p, q in itertools.combinations(report.patterns, 2):
        assert (p.word ^ q.word).bit_count() >= 2
    # every emitted pattern drives the target
    for p in report.patterns:
        assert simulate(g, p)[g.node_id("y")] == 1
    # exhausted means no remaining qualifying input keeps distance >= 2
    assert report.exhausted
    emitted = set(report.patterns)
    for q in qualifying:
        if q not in emitted:
            assert any((q.word ^ p.word).bit_count() < 2 for p in report.patterns)


def test_every_pattern_hits_all_targets_randomized():
    rng = random.Random(88)
    done = single = 0
    while done < 15:
        n = random_netlist(rng, rng.randint(2, 7), rng.randint(2, 20))
        g = build_graph(scan_convert(n))
        nodes = rng.sample(range(g.node_count), rng.randint(1, 3))
        entries = [(node, rng.randrange(2)) for node in nodes]
        spec = parse_targets("".join(f"{g.names[n]}={v}\n" for n, v in entries), g)
        report = generate(g, spec, GenConfig(pattern_budget=8, d_min=2, seed=done))
        if len(report.patterns) < 2:
            # no pair, so no distance: both extremes read 0
            single += len(report.patterns)
            assert report.observed_d_min == report.observed_d_max == 0
        if not report.patterns:
            continue
        done += 1
        for p in report.patterns:
            v = simulate(g, p)
            assert all(v[n] == want for n, want in entries)
        distances = [(p.word ^ q.word).bit_count()
                     for p, q in itertools.combinations(report.patterns, 2)]
        for d in distances:
            assert d >= 2
            assert report.observed_d_min <= d <= report.observed_d_max
        if distances:  # the extremes are attained, not just bounds
            assert report.observed_d_min == min(distances)
            assert report.observed_d_max == max(distances)
        assert report.observed_d_max <= g.input_count
    assert single >= 1  # the one-pattern edge was exercised


def test_exhausted_confirmed_by_brute_force_randomized():
    # specs of 1-3 targets, valid and invalid; the targets are facts of the
    # session, so an invalid spec is refuted when they are added or by the
    # first solve, and a valid one exhausts the distance-d_min code
    rng = random.Random(89)
    kinds = {(valid, several): 0 for valid in (True, False) for several in (True, False)}
    floors = {2: 0, 3: 0, 4: 0}  # exhausted runs by d_min
    cubes = 0  # runs that lifted a cube with room for a completion
    while min(kinds.values()) < 3:
        n = random_netlist(rng, rng.randint(2, 6), rng.randint(1, 12))
        g = build_graph(scan_convert(n))
        nodes = rng.sample(range(g.node_count), rng.randint(1, min(3, g.node_count)))
        entries = [(node, rng.randrange(2)) for node in nodes]
        spec = parse_targets("".join(f"{g.names[node]}={v}\n" for node, v in entries), g)
        d_min = rng.randint(2, min(4, g.input_count))
        # a budget above the 2**6 input patterns: every run ends exhausted
        report = generate(g, spec, GenConfig(pattern_budget=1000, d_min=d_min,
                                             seed=rng.randrange(4)))
        assert report.exhausted
        qualifying = _qualifying_inputs(g, entries)
        assert (report.patterns == []) == (qualifying == [])
        kinds[bool(qualifying), len(entries) > 1] += 1
        floors[d_min] += 1
        cubes += report.lifted_models > 0 and report.free_inputs_max >= d_min
        emitted = set(report.patterns)
        assert emitted <= set(qualifying)
        for q in qualifying:
            if q not in emitted:
                assert any((q.word ^ p.word).bit_count() < d_min for p in report.patterns)
    assert floors[4] >= 10, floors
    assert cubes >= 25, cubes  # so the verdict covers completions, not just models


def _lift_one_at_a_time(g, entries, word):
    """Reference lifting: each input in order is made X by itself, one
    single-lane ternary pass each, and stays X if every target stays definite."""
    width = g.input_count
    free = 0
    for i in range(width):
        trial = free | 1 << width - 1 - i
        bits = [(word >> width - 1 - k & 1, trial >> width - 1 - k & 1) for k in range(width)]
        hi, lo = run_ternary(g, [int(b and not x) for b, x in bits],
                             [int(not b and not x) for b, x in bits], 1)
        if all((hi if v else lo)[n] for n, v in entries):
            free = trial
    return free


def test_every_completion_of_a_lifted_cube_reaches_the_targets():
    rng = random.Random(92)
    lifted = checked = 0
    for trial in range(300):
        g = None
        while g is None or g.input_count > 8:
            g = build_graph(scan_convert(random_netlist(rng, rng.randint(2, 7),
                                                        rng.randint(1, 20),
                                                        with_dffs=trial % 3 == 0)))
        nodes = rng.sample(range(g.node_count), rng.randint(1, min(3, g.node_count)))
        entries = [(node, rng.randrange(2)) for node in nodes]
        # generation solves and lifts on the cut; the reference lifts on the graph
        cut, targets, f, lits = target_formula(g, TargetSpec(entries=entries))
        session = SolverSession(f, decision_seed=trial)
        for lit in lits:
            session.add_clause([lit])
        result = session.solve()
        if not result.is_sat:
            continue
        free = _lift(cut, targets, result.inputs)
        assert free == _lift_one_at_a_time(g, entries, result.inputs), trial
        # every completion, by one exhaustive two-valued pass over the cube
        width = g.input_count
        positions = [i for i in range(width) if free >> width - 1 - i & 1]
        cube = [InputPattern.from_word(result.inputs & ~free | sum(
                    (c >> j & 1) << width - 1 - i for j, i in enumerate(positions)), width)
                for c in range(1 << len(positions))]
        words = run_pass(g, cube)
        everywhere = (1 << len(cube)) - 1
        for node, value in entries:
            assert words[node] == (everywhere if value else 0), (trial, node)
        checked += 1
        lifted += len(positions) >= 2
    assert checked >= 200 and lifted >= 100, (checked, lifted)


def _models(graph, entries, seeds):
    """The cut and targets of ``entries`` and a solver model per seed."""
    cut, targets, f, lits = target_formula(graph, TargetSpec(entries=entries))
    models = []
    for seed in seeds:
        session = SolverSession(f, decision_seed=seed)
        for lit in lits:
            session.add_clause([lit])
        result = session.solve()
        if result.is_sat:
            models.append(result.inputs)
    return cut, targets, models


@pytest.mark.parametrize("circuit,targets", FIXTURE_SPECS)
def test_lift_equals_the_one_at_a_time_reference_on_the_fixtures(circuit, targets):
    graph = build_graph(scan_convert(load_circuit(circuit)))
    entries = parse_targets(fixture_text(targets + ".targets"), graph).entries
    cut, cut_targets, models = _models(graph, entries, range(4))
    # the models, and completions of their cubes, which reach the targets too
    words = models + [p.word for p in generate(graph, TargetSpec(entries=entries),
                                                GenConfig(pattern_budget=12)).patterns]
    for word in words:
        assert _lift(cut, cut_targets, word) == _lift_one_at_a_time(graph, entries, word)


def test_lift_skips_its_passes_when_parity_binds_every_input(monkeypatch):
    # an input that reaches a target through XOR, XNOR, BUF and NOT alone is
    # never free; generate lifts no model when the walk marks them all, and
    # the reference's mask is then empty
    passes = []
    holding = seedgen_module._holding
    monkeypatch.setattr(seedgen_module, "_holding",
                        lambda *args: passes.append(1) or holding(*args))
    graph = build_graph(scan_convert(load_circuit("xor_ladder8")))
    spec = parse_targets(fixture_text("xor_ladder8.parity.targets"), graph)
    cut, targets, models = _models(graph, spec.entries, range(4))
    assert _parity_binds_every_input(cut, targets)
    for word in models:
        assert _lift_one_at_a_time(graph, spec.entries, word) == 0
    report = generate(graph, spec, GenConfig(pattern_budget=20))
    assert report.lifted_models > 1 and report.free_inputs_max == 0
    assert not passes
    rng = random.Random(94)
    skipped = tried = 0
    for trial in range(300):
        g = build_graph(scan_convert(random_netlist(rng, rng.randint(1, 6), rng.randint(1, 15))))
        entries = [(node, rng.randrange(2))
                   for node in rng.sample(range(g.node_count), rng.randint(1, min(3, g.node_count)))]
        cut, targets, models = _models(g, entries, (trial,))
        rigid = _parity_binds_every_input(cut, targets)
        for word in models:
            reference = _lift_one_at_a_time(g, entries, word)
            assert (0 if rigid else _lift(cut, targets, word)) == reference, trial
            skipped += rigid
            tried += not rigid
    assert skipped >= 20 and tried >= 100, (skipped, tried)


def _brute_extremes(words):
    distances = [(a ^ b).bit_count() for a, b in itertools.combinations(words, 2)]
    return (min(distances), max(distances)) if distances else (0, 0)


def test_distance_extremes_equal_brute_force():
    # fields wide enough for a distance of every input: up to 1,100 inputs,
    # with repeats (distance 0) and complements (the width itself)
    rng = random.Random(95)
    for width in (1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 63, 64, 65, 127, 128, 255, 256, 257,
                  511, 1023, 1024, 1100):
        every = (1 << width) - 1
        for count in (0, 1, 2, 3, 5, 40):
            for _ in range(4):
                words = [rng.getrandbits(width) for _ in range(count)]
                for i in range(count):
                    roll = rng.random()
                    if i and roll < 0.2:
                        words[i] = words[rng.randrange(i)]
                    elif i and roll < 0.4:
                        words[i] = words[rng.randrange(i)] ^ every
                    elif roll < 0.5:
                        words[i] = rng.choice((0, every))
                assert distance_extremes(words, width) == _brute_extremes(words), (width, words)


def test_invalid_target_yields_empty_exhausted_report():
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\ny = AND(a, n)")
    report = generate(g, parse_targets("y=1", g), GenConfig(pattern_budget=5))
    assert report.patterns == []
    assert report.exhausted
    assert report.solver_calls == 1


def test_validity_witness_is_the_first_generated_pattern():
    # one session gives both: the verdict is generation's first solve, on the
    # formula of the targets' cut
    rng = random.Random(91)
    valid = invalid = 0
    for _ in range(60):
        g = build_graph(scan_convert(random_netlist(rng, rng.randint(2, 7),
                                                    rng.randint(2, 20))))
        nodes = rng.sample(range(g.node_count), rng.randint(1, 4))
        spec = parse_targets("".join(f"{g.names[n]}={rng.randrange(2)}\n" for n in nodes), g)
        _, _, f, lits = target_formula(g, spec)
        for seed in (0, 1, 5):
            first = SolverSession(f, decision_seed=seed).solve(assumptions=lits)
            report = generate(g, spec, GenConfig(pattern_budget=3, seed=seed))
            if first.is_sat:
                valid += 1
                assert report.patterns[0] == InputPattern.from_word(first.inputs, f.input_count)
            else:
                invalid += 1
                assert report.patterns == [] and report.exhausted
    assert valid >= 100 and invalid >= 30


def test_determinism():
    g = build_graph(scan_convert(load_circuit("c17")))
    spec = parse_targets("n22=1", g)
    a = generate(g, spec, GenConfig(pattern_budget=12, seed=3))
    b = generate(g, spec, GenConfig(pattern_budget=12, seed=3))
    assert a.patterns == b.patterns
    assert a.solver_calls == b.solver_calls
    assert a.propagations == b.propagations > 0


def _assert_report_coverage_is_measured(graph, spec, report):
    """The report's coverage and curve are those a fresh measure gives its
    patterns; with targets and a pattern, every state is reached and no site
    toggles, since every pattern drives every target to its value."""
    assert report.coverage == measure(graph, spec, report.patterns)
    firsts = first_sightings(graph, spec, report.patterns)
    assert report.curve == report_and_curve(spec, firsts, len(report.patterns))[1]
    if spec.entries and report.patterns:
        assert report.coverage.state_coverage_pct == 100.0
        assert report.coverage.site_coverage_pct == 0.0


@pytest.mark.parametrize("circuit,targets", FIXTURE_SPECS)
def test_report_coverage_equals_measure_on_the_fixtures(circuit, targets):
    graph = build_graph(scan_convert(load_circuit(circuit)))
    spec = parse_targets(fixture_text(targets + ".targets"), graph)
    for seed in range(3):
        report = generate(graph, spec, GenConfig(pattern_budget=50, seed=seed))
        assert report.patterns
        _assert_report_coverage_is_measured(graph, spec, report)


def test_report_coverage_equals_measure_randomized():
    rng = random.Random(93)
    covered = 0
    for trial in range(100):
        g = build_graph(scan_convert(random_netlist(rng, rng.randint(2, 7),
                                                    rng.randint(1, 20))))
        nodes = rng.sample(range(g.node_count), rng.randint(1, min(3, g.node_count)))
        spec = TargetSpec(entries=[(node, rng.randrange(2)) for node in nodes])
        report = generate(g, spec, GenConfig(pattern_budget=8, seed=trial))
        _assert_report_coverage_is_measured(g, spec, report)
        covered += bool(report.patterns)
    assert covered >= 50, covered


_GEN_PATTERNS = """
from gatefuzz.fixtures import fixture_text, load_circuit
from gatefuzz.graph import build_graph, cone
from gatefuzz.netlist import scan_convert
from gatefuzz.seedgen import GenConfig, generate
from gatefuzz.targets import parse_targets
print(__debug__)
for circuit, targets, budget, seeds in (("c432", "c432.mixed", 200, (0, 7)),
                                        ("xor_ladder8", "xor_ladder8.parity", 1000, (0,)),
                                        ("s27", "s27.scan", 1000, (0,))):
    graph = build_graph(scan_convert(load_circuit(circuit)))
    spec = parse_targets(fixture_text(targets + ".targets"), graph)
    for seed in seeds:
        report = generate(graph, spec, GenConfig(pattern_budget=budget, d_min=2, seed=seed))
        print(report.stop_reason, report.solver_calls, report.conflicts, report.decisions,
              report.propagations)
        print(" ".join(p.to_string() for p in report.patterns))
"""


def test_c432_patterns_are_the_same_with_asserts_on_and_off():
    # the model check in the solver must not steer the search; c432 makes one
    # solve per seed, so the runs to exhaustion are the ones that check many
    # models
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gatefuzz.__file__)))
    env.pop("PYTHONOPTIMIZE", None)
    runs = [subprocess.run([sys.executable, *flags, "-c", _GEN_PATTERNS], env=env,
                           capture_output=True, text=True, check=True).stdout.splitlines()
            for flags in ([], ["-O"])]
    assert runs[0][0] == "True" and runs[1][0] == "False"
    assert runs[0][1:] == runs[1][1:]
    stats = [line.split() for line in runs[0][1::2]]
    counts = [len(line.split()) for line in runs[0][2::2]]
    assert [line[0] for line in stats] == ["budget", "budget", "exhausted", "exhausted"]
    assert counts[:3] == [200, 200, 64]
    assert stats[2][1] == "65"  # xor_ladder8's parity leaves no input free


def test_d_min_exceeding_inputs_is_config_error():
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)")
    with pytest.raises(GenConfigError, match="d_min"):
        generate(g, TargetSpec(entries=[]), GenConfig(d_min=3))


def test_target_outside_the_graph_is_a_target_error():
    # cut_targets checks the spec against the graph before it cuts the cone
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)")
    with pytest.raises(TargetError, match="target node 3 is not in graph"):
        generate(g, TargetSpec(entries=[(0, 1), (3, 1)]), GenConfig())


@pytest.mark.parametrize("sabotage, debug_error", [
    # no floor and no index at all: the end pass refuses the repeated model
    ("keep_distance", RuntimeError),
    # a floor the solver ignores, while the index still answers near: the
    # model check refuses the repeated model first when asserts are on
    ("_check_distance", AssertionError),
], ids=["no-floor", "floor-ignored"])
def test_distance_guard_raises_on_an_unsound_solver(monkeypatch, sabotage, debug_error):
    # without its distance floor the solver returns the first model again,
    # which must be refused, asserts on or off
    g = _graph("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = OR(a, b, c, d)")
    monkeypatch.setattr(SolverSession, sabotage, lambda self, *args: None)
    with pytest.raises(debug_error if __debug__ else RuntimeError, match="closer than"):
        generate(g, parse_targets("y=1", g), GenConfig(pattern_budget=15, d_min=2))


def test_target_check_raises_on_an_unsound_lift(monkeypatch):
    # a lift that frees every input lets completions miss the AND's one
    # qualifying pattern; the two-valued check must refuse them, asserts on
    # or off
    g = _graph("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = AND(a, b, c, d)")
    monkeypatch.setattr("gatefuzz.seedgen._lift",
                        lambda graph, targets, word: (1 << graph.input_count) - 1)
    with pytest.raises(RuntimeError, match=r"^pattern [01]{4} misses target y=1$"):
        generate(g, parse_targets("y=1", g), GenConfig(pattern_budget=15, d_min=2))


def test_config_validation():
    with pytest.raises(GenConfigError):
        GenConfig(pattern_budget=0)
    with pytest.raises(GenConfigError):
        GenConfig(d_min=1)
    with pytest.raises(GenConfigError, match="conflict_budget must be >= 0"):
        GenConfig(conflict_budget=-1)
    assert GenConfig(conflict_budget=0).conflict_budget == 0  # stop at the first conflict


def test_write_patterns_header_and_bits():
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)")
    report = generate(g, parse_targets("y=1", g), GenConfig(pattern_budget=4))
    text = write_patterns(report, g)
    assert text == "# a b\n11\n"
    assert read_patterns(text) == [InputPattern((1, 1))]


def test_write_patterns_empty_report():
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\ny = AND(a, n)")
    report = generate(g, parse_targets("y=1", g), GenConfig(pattern_budget=4))
    assert write_patterns(report, g) == "# a b\n"


def test_report_csv_row_shape():
    g = build_graph(scan_convert(load_circuit("c17")))
    report = generate(g, parse_targets("n22=1", g), GenConfig(pattern_budget=5))
    fields = report_csv_row(report, g).split(",")
    assert fields[0] == "c17"
    assert fields[1] == "6" and fields[2] == "11" and fields[3] == "5"
    assert fields[4] == "9.09"  # one target of 11 nodes
    assert fields[5] == str(report.pattern_count)
    assert fields[6] == ""  # wall clock lives in the manifest, not data files
    # the report's own coverage: every pattern drives n22 to 1, none to 0
    assert fields[7:9] == ["100.00", "0.00"]
    assert fields[-1] == str(report.observed_d_max)
