import hashlib
import random
import sys

import pytest

from gatefuzz.bench import parse_bench
from gatefuzz import cgf
from gatefuzz.cgf import FULL_RANDOM_PROB, MULTI_FLIP_CONTINUE_PROB, WINDOW, run_cgf
from gatefuzz.coverage import (CoverageReport, TargetCoverage, first_sightings, measure,
                               report_and_curve)
from gatefuzz.fixtures import fixture_text, load_circuit
from gatefuzz.graph import build_graph
from gatefuzz.netlist import scan_convert
from gatefuzz.pattern import InputPattern
from gatefuzz.seedgen import GenConfig, generate
from gatefuzz.simulate import simulate
from gatefuzz.targets import TargetSpec, parse_targets

from conftest import random_netlist


def _graph(text):
    return build_graph(scan_convert(parse_bench(text)))


def test_budget_must_be_positive():
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)")
    with pytest.raises(ValueError):
        run_cgf(g, parse_targets("y=1", g), budget=0)


def test_budget_one_executes_exactly_one():
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)")
    result = run_cgf(g, parse_targets("y=1", g), budget=1, rng_seed=5)
    assert len(result.executed) == 1
    assert result.report.patterns_applied == 1


def test_executed_count_equals_budget():
    g = build_graph(scan_convert(load_circuit("c17")))
    spec = parse_targets("n22=1\nn23=0", g)
    for budget in (1, 7, 64, 130):
        result = run_cgf(g, spec, budget=budget, rng_seed=1)
        assert len(result.executed) == budget
        assert len(result.curve) == budget


def test_deterministic_under_seed():
    g = build_graph(scan_convert(load_circuit("c17")))
    spec = parse_targets("n22=1\nn23=0", g)
    a = run_cgf(g, spec, budget=50, rng_seed=9)
    b = run_cgf(g, spec, budget=50, rng_seed=9)
    assert a.executed == b.executed
    assert a.curve == b.curve


def test_or2_hits_with_overwhelming_probability():
    # P(miss 16 uniform tries) = (1/4)^16; check across 15 seeded runs
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)")
    spec = parse_targets("y=1", g)
    hits = sum(run_cgf(g, spec, budget=16, rng_seed=s).report.state_coverage_pct == 100.0
               for s in range(15))
    assert hits == 15


def test_and_tree_rarely_reached_but_sat_always():
    netlist = parse_bench(fixture_text("and_tree16.bench"), name="and_tree16")
    g = build_graph(scan_convert(netlist))
    spec = parse_targets("root=1", g)
    coverages = [run_cgf(g, spec, budget=100, rng_seed=s).report.state_coverage_pct
                 for s in range(15)]
    assert sum(coverages) / len(coverages) <= 10.0  # 2^-16 event per random try
    report = generate(g, spec, GenConfig(pattern_budget=1))
    assert len(report.patterns) == 1  # the SAT route reaches it in one pattern


def test_corpus_admission_is_coverage_driven():
    g = build_graph(scan_convert(load_circuit("c17")))
    spec = parse_targets("n22=1\nn23=0", g)
    result = run_cgf(g, spec, budget=200, rng_seed=3)
    # admission only on new (node, value) pairs: at most 2 per target node
    assert len(result.corpus.seeds) <= 2 * len(spec)
    assert result.corpus.seeds[0] == result.executed[0]  # every pair is unseen at first
    # every admitted seed was executed
    executed = set(result.executed)
    for seed in result.corpus.seeds:
        assert seed in executed


def test_sat_coverage_dominates_cgf():
    g = build_graph(scan_convert(load_circuit("c17")))
    spec = parse_targets("n10=1\nn16=1\nn19=0", g)
    sat_report = generate(g, spec, GenConfig(pattern_budget=20))
    assert sat_report.patterns  # valid spec
    sat_cov = measure(g, spec, sat_report.patterns)
    assert sat_cov.state_coverage_pct == 100.0
    for s in range(5):
        cgf_cov = run_cgf(g, spec, budget=20, rng_seed=s).report
        assert sat_cov.state_coverage_pct >= cgf_cov.state_coverage_pct


def reference_random_pattern(rng, width):
    """One draw of all the inputs; the first input is the draw's top bit."""
    word = rng.getrandbits(width)
    return InputPattern(tuple(word >> (width - 1 - i) & 1 for i in range(width)))


_WIDTHS = [0, 1, 63, 64, 65, 200]


@pytest.mark.parametrize("width", _WIDTHS)
def test_random_pattern_makes_the_reference_draws(width):
    # an empty corpus breeds a uniform random word
    for seed in range(300):
        rng, ref = random.Random(seed), random.Random(seed)
        word = cgf._breed(rng, [], width)
        assert InputPattern.from_word(word, width) == reference_random_pattern(ref, width)
        assert rng.random() == ref.random()  # the RNG is left in the same state


def reference_mutate(rng, parent, width):
    """Breeding on bit tuples: the mutation distribution ``run_cgf`` documents."""
    if width == 0:
        return parent
    if rng.random() < FULL_RANDOM_PROB:
        return reference_random_pattern(rng, width)
    w = 1
    while w < width and rng.random() < MULTI_FLIP_CONTINUE_PROB:
        w += 1
    positions = set()
    while len(positions) < w:
        positions.add(rng.randrange(width))
    bits = list(parent.bits)
    for pos in positions:
        bits[pos] ^= 1
    return InputPattern(tuple(bits))


# corpus sizes on both sides of each power of two up to 129
_CORPUS_SIZES = sorted({0, 1} | {p + d for p in (2, 4, 8, 16, 32, 64, 128) for d in (-1, 0, 1)})


@pytest.mark.parametrize("width", sorted({*_WIDTHS, 2, 3, 31, 32, 33, 130}))
def test_mutate_makes_the_reference_draws(width):
    # a corpus breeds a mutant of a uniformly chosen seed (an empty one, a
    # random word).  _breed draws from getrandbits directly, the reference
    # with Random.choice and Random.randrange: after every breed the word and
    # the RNG state agree
    parent_rng = random.Random(width)
    for seed in range(300):
        size = _CORPUS_SIZES[seed % len(_CORPUS_SIZES)]
        parents = [reference_random_pattern(parent_rng, width) for _ in range(size)]
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            child = cgf._breed(rng, [p.word for p in parents], width)
            expected = (reference_mutate(ref, ref.choice(parents), width) if parents
                        else reference_random_pattern(ref, width))
            assert InputPattern.from_word(child, width) == expected, (seed, size)
            assert rng.getstate() == ref.getstate(), (seed, size)


def sequential_cgf(graph, spec, budget, rng_seed):
    """Reference: breed, simulate and admit one mutant at a time, with one
    scalar evaluation per mutant; coverage is recounted per pattern."""
    rng = random.Random(rng_seed)
    width = graph.input_count
    seeds, seen, executed, valuations = [], set(), [], []
    for _ in range(budget):
        if not seeds:
            candidate = reference_random_pattern(rng, width)
        else:
            candidate = reference_mutate(rng, rng.choice(seeds), width)
        executed.append(candidate)
        valuation = simulate(graph, candidate)
        valuations.append(valuation)
        new_pairs = {(n, valuation[n]) for n in spec.nodes()} - seen
        if new_pairs:
            seen |= new_pairs
            seeds.append(candidate)

    def percentages(per_target):
        if not per_target:
            return 100.0, 100.0
        k = len(per_target)
        return (100.0 * sum(t.reached_state for t in per_target) / k,
                100.0 * sum(t.toggled for t in per_target) / k)

    per_target = [TargetCoverage(node=n, desired=v) for n, v in spec.entries]
    curve = []
    for number, valuation in enumerate(valuations, start=1):
        for t in per_target:
            bit = valuation[t.node]
            t.saw_0 |= bit == 0
            t.saw_1 |= bit == 1
            if bit == t.desired and not t.reached_state:
                t.reached_state, t.first_reach_index = True, number
        curve.append((number,) + percentages(per_target))
    report = CoverageReport(per_target, *percentages(per_target), patterns_applied=budget)
    return executed, seeds, report, curve


def _equivalence_cases():
    c17 = build_graph(scan_convert(load_circuit("c17")))
    yield "c17", c17, parse_targets("n22=1\nn23=0", c17)
    yield "c17-empty", c17, TargetSpec(entries=[])
    c432 = build_graph(scan_convert(load_circuit("c432")))
    yield "c432", c432, parse_targets(fixture_text("c432.mixed.targets"), c432)
    rng = random.Random(31)
    for case in range(20):
        g = build_graph(scan_convert(random_netlist(rng, rng.randint(2, 12),
                                                    rng.randint(5, 60), with_dffs=True)))
        nodes = rng.sample(range(g.node_count), rng.randint(1, min(8, g.node_count)))
        yield f"random-{case}", g, TargetSpec(entries=[(n, rng.randrange(2)) for n in nodes])
    # every gate a target: admissions come now and then all through a run,
    # so windows hopeful or not both admit some lanes and pass over others
    for with_dffs in (False, True):
        g = build_graph(scan_convert(random_netlist(rng, 12, 120, with_dffs=with_dffs)))
        gates = [n for n in range(g.node_count) if g.kinds[n] != "INPUT"]
        yield f"random-many-{with_dffs}", g, TargetSpec(entries=[(n, 1) for n in gates])
    # (root, 0) is admitted at once and (root, 1) next to never, so after
    # the first window every walk executes its whole window
    tree = build_graph(scan_convert(parse_bench(fixture_text("and_tree16.bench"),
                                                name="and_tree16")))
    yield "and_tree16-never-hits", tree, parse_targets("root=1", tree)
    # one node listed twice, another at both values
    n22, n23 = c17.name_to_id["n22"], c17.name_to_id["n23"]
    yield "c17-repeated", c17, TargetSpec(entries=[(n22, 1), (n23, 0), (n22, 1), (n23, 1)])


def _schedule_boundaries(first, cap):
    """Execution counts at which a window ends when no lane hits after the
    first pattern's admission and the windows double from ``first`` lanes
    to ``cap``."""
    ends, end, size = [], 1, first
    while len(ends) < 6:
        end += size
        ends.append(end)
        size = min(2 * size, cap)
    return ends


# budgets around window edges, of WINDOW-lane windows and of windows that
# double from 8 lanes to WINDOW or to 64: where a window ends must not move
# the executed sequence
_BUDGETS = sorted({1, 200}
                  | {edge + d for first, cap in ((WINDOW, WINDOW), (8, WINDOW), (8, 64))
                     for edge in [cap] + _schedule_boundaries(first, cap) for d in (-1, 0, 1)})


@pytest.mark.parametrize("budget", _BUDGETS)
def test_windowed_run_equals_sequential_loop(budget):
    for name, g, spec in _equivalence_cases():
        rng_seed = budget + len(name)
        result = run_cgf(g, spec, budget=budget, rng_seed=rng_seed)
        executed, seeds, report, curve = sequential_cgf(g, spec, budget, rng_seed)
        assert result.executed == executed, name
        assert result.corpus.seeds == seeds, name
        assert result.report == report, name
        assert result.curve == curve, name
        # the report read from admissions is the one a simulation pass gives
        firsts = first_sightings(g, spec, result.executed)
        assert (result.report, result.curve) == report_and_curve(
            spec, firsts, len(result.executed)), name
        if not spec.entries:
            assert not seeds


def _record_windows(monkeypatch):
    windows = []
    real_run_words = cgf.run_words

    def recording_run_words(graph, patterns):
        windows.append(list(patterns))
        return real_run_words(graph, patterns)

    monkeypatch.setattr(cgf, "run_words", recording_run_words)
    return windows


def test_never_hitting_run_simulates_full_windows(monkeypatch):
    tree = build_graph(scan_convert(parse_bench(fixture_text("and_tree16.bench"),
                                                name="and_tree16")))
    spec = parse_targets("root=1", tree)
    windows = _record_windows(monkeypatch)
    result = run_cgf(tree, spec, budget=300, rng_seed=4)
    passes = list(map(len, windows))
    assert len(result.corpus.seeds) == 1  # only the first pattern's (root, 0)
    assert passes[:2] == [WINDOW, WINDOW]  # the first pattern hits at lane 0
    assert max(passes) == WINDOW and passes.count(WINDOW) >= 2
    # the first window is hopeful: lane 1 is bred from the first pattern, and
    # lane 2 on as if lane 1 were admitted too.  Lane 1 is not, so lane 2 is
    # bred again and comes out the same, and lane 3 does not: of all simulated
    # lanes, only the first window's last WINDOW - 3 are dropped
    assert sum(passes) == 300 + WINDOW - 3


def _c17_n22_run(monkeypatch, rng_seed):
    g = build_graph(scan_convert(load_circuit("c17")))
    spec = parse_targets("n22=1", g)
    windows = _record_windows(monkeypatch)
    result = run_cgf(g, spec, budget=50, rng_seed=rng_seed)
    assert (result.executed, result.corpus.seeds, result.report, result.curve) == \
        sequential_cgf(g, spec, 50, rng_seed)
    n22 = g.name_to_id["n22"]
    return windows, result, [simulate(g, p)[n22] for p in result.executed]


def test_every_pair_seen_inside_a_hopeful_window(monkeypatch):
    # the first window is hopeful, and its first two lanes show n22 at both
    # values: the walk stops at lane 1 with lanes left in the window, and the
    # rest of the budget is bred from the RNG as it stood after lane 1
    windows, result, n22 = _c17_n22_run(monkeypatch, rng_seed=1)
    assert len(windows) == 1 and len(windows[0]) > 2
    assert n22[:2] == [0, 1]
    assert result.corpus.seeds == result.executed[:2] == InputPattern.from_words(
        windows[0][:2], 5)


def test_hopeful_window_walks_on_past_a_lane_not_admitted(monkeypatch):
    # lane 1 of the first, hopeful window shows n22 at lane 0's value, so it
    # is not admitted; lane 2, bred as if it were, is bred again from the
    # real corpus and compared
    windows, result, n22 = _c17_n22_run(monkeypatch, rng_seed=0)
    assert len(windows) >= 2 and n22[:3] == [1, 1, 1]
    assert result.corpus.seeds[0] == result.executed[0]
    assert result.executed[:3] == InputPattern.from_words(windows[0][:3], 5)
    assert result.executed[3] != InputPattern.from_word(windows[0][3], 5)


def _many_admissions_case():
    g = build_graph(scan_convert(random_netlist(random.Random(2), 32, 400)))
    return g, TargetSpec(entries=[(n, 1) for n in range(g.node_count) if g.kinds[n] != "INPUT"])


def test_breeds_at_most_four_mutants_per_execution(monkeypatch):
    """A circuit that keeps admitting seeds, so walks stop early and often.
    An executed lane is bred at most twice, once into its window and once by
    the walk; the lane the walk breeds differently leads the next window
    unbred, and the lanes after it are dropped, bred once.  The bound caps
    those dropped lanes (this run breeds about 2.9 mutants per execution)."""
    g, spec = _many_admissions_case()
    breeds = 0
    real_breed = cgf._breed

    def breed(*args):
        nonlocal breeds
        breeds += 1
        return real_breed(*args)

    monkeypatch.setattr(cgf, "_breed", breed)
    budget = 256
    result = run_cgf(g, spec, budget=budget, rng_seed=2)
    assert len(result.corpus.seeds) >= 40  # admissions all through the run
    assert breeds <= 4 * budget


def _walk_outcomes(windows, result):
    """Lays the simulated windows along the executed sequence.

    Each window's executed lanes are a prefix of it, and the next window
    starts at the next execution.  Checks that no window exceeds
    :data:`WINDOW` and that each later one holds as many lanes as
    :data:`WINDOW` and the rest of the budget allow.  Returns the number of
    lanes executed after an admitted lane of their own window (kept by the
    walk) and of windows cut short before another window (whose first lane
    the walk bred differently).
    """
    executed = [p.word for p in result.executed]
    admitted = {executed.index(seed.word) for seed in result.corpus.seeds}
    kept = carried = start = 0
    for i, window in enumerate(windows):
        assert len(window) <= WINDOW
        count = 0
        while count < len(window) and window[count] == executed[start + count]:
            count += 1
        firsts = [lane for lane in range(count) if start + lane in admitted]
        kept += count - 1 - firsts[0] if firsts else 0
        start += count
        if i + 1 < len(windows):
            assert windows[i + 1][0] == executed[start]
            carried += count < len(window)
            assert len(windows[i + 1]) == min(WINDOW, len(executed) - start)
    return kept, carried


def test_a_window_fits_one_int_digit():
    assert WINDOW == sys.int_info.bits_per_digit


def test_walk_reaches_both_outcomes_of_a_rebreed(monkeypatch):
    windows = _record_windows(monkeypatch)
    kept = carried = 0
    for name, g, spec in _equivalence_cases():
        windows.clear()
        result = run_cgf(g, spec, budget=200, rng_seed=200 + len(name))
        assert result.passes == len(windows), name
        case_kept, case_carried = _walk_outcomes(windows, result)
        kept += case_kept
        carried += case_carried
    assert kept and carried


def test_one_pass_serves_several_admissions(monkeypatch):
    # the circuit of the four-breeds test, with over 40 admissions
    g, spec = _many_admissions_case()
    windows = _record_windows(monkeypatch)
    result = run_cgf(g, spec, budget=256, rng_seed=2)
    assert result.passes == len(windows) < len(result.corpus.seeds)
    kept, carried = _walk_outcomes(windows, result)
    assert kept and carried
    assert sum(map(len, windows)) < 2 * 256  # fewer than two lanes per execution


def _fuzz_20k_case(case_seed):
    """The benchmark's fuzz-20k case: a 64-input, 20,000-gate random netlist
    and its 64 highest-level gates (ties by declaration order) at their
    values under a witness drawn from ``"witness-<case seed>"``."""
    g = build_graph(scan_convert(random_netlist(random.Random(case_seed), 64, 20_000)))
    gates = [n for n in range(g.node_count) if g.kinds[n] != "INPUT"]
    chosen = sorted(gates, key=lambda n: (-g.levels[n], int(g.names[n][1:])))[:64]
    rng = random.Random(f"witness-{case_seed}")
    values = simulate(g, InputPattern([rng.randrange(2) for _ in range(64)]))
    return g, TargetSpec([(n, values[n]) for n in chosen])


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# (case seed, trial) -> sha256 of the executed patterns, of the corpus, and
# of the report and curve; the executed digests are the benchmark's
# executed_sha256 fingerprints of these cases
_FUZZ_20K_DIGESTS = {
    (0, 0): ("d5566e6216ea36f9ecf1fd827e7284c801989ac77b4cc092a31194b89f790ec9",
             "0bac6b56f5cd9d953b1335a85f5895764166aeb5b5236283baaa966e8477f659",
             "a22cb3b8e4fd357ebf70d7b6937e43312faea1cf7d425bc9203e2660894cb5bf"),
    (0, 1): ("05e72743c9fd9a495b1c72859a691153c96af4029501127267b4106bf2c06b59",
             "bda0ce0c510941997057b3d04456d18d60d2c334efeecc6aa15d3509fa2fa7fe",
             "043ddcd7704352d0875e71d82b14fd6a7466dcbaa1acf75f1ee714c41cf75e76"),
    (21, 0): ("33405f519cbeffc58ad5842552a186ea030dedaffaf69d7ed59394234704957d",
              "37becbb51b83df4e95f62ca1c15d91267c5d60ecd38ffbc40f0f22bd930f51ff",
              "23fc72bf289be318f20fc96a6e98130200fe09ad24d902836ae72e9a8004905a"),
    (21, 1): ("b72ac6d8d52cda70d70092360cd522d2f6819d0b34b8523e64aabaab451665eb",
              "edafc812a9204be3d07ce6a0a7479fca6e68885ab23c083e2e0efc5b8f33c913",
              "c9e55196c089acad68532b2e094b04e8f82f9ca911c8b702b21388fdaea5502c"),
}


@pytest.mark.parametrize("case_seed", [0, 21])
def test_fuzz_20k_trials_pinned(case_seed):
    # the trials of the benchmark's 20k-gate workload, two per case at rng
    # seeds case seed + trial, budget 256; a change that moves these bytes on
    # purpose updates the digests
    g, spec = _fuzz_20k_case(case_seed)
    for trial in range(2):
        result = run_cgf(g, spec, budget=256, rng_seed=case_seed + trial)
        assert (_sha("\n".join(p.to_string() for p in result.executed)),
                _sha("\n".join(p.to_string() for p in result.corpus.seeds)),
                _sha(repr((result.report, result.curve)))) == _FUZZ_20K_DIGESTS[case_seed, trial]
