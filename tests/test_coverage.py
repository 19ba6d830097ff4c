import random

import pytest

from gatefuzz.bench import parse_bench
from gatefuzz.cgf import run_cgf
import gatefuzz.coverage as coverage_module
from gatefuzz.coverage import curve_csv, first_sightings, measure, report_and_curve
from gatefuzz.fixtures import load_circuit
from gatefuzz.graph import build_graph, fanin_cone
from gatefuzz.netlist import scan_convert
from gatefuzz.pattern import InputPattern
from gatefuzz.simulate import simulate
from gatefuzz.targets import TargetError, TargetSpec, parse_targets

from conftest import all_patterns, random_netlist


def _graph(text):
    return build_graph(scan_convert(parse_bench(text)))


def naive_measure(graph, spec, patterns):
    """Oracle: per-pattern scalar recount without any batching."""
    reached = {n: False for n, _ in spec.entries}
    saw = {n: set() for n, _ in spec.entries}
    for p in patterns:
        v = simulate(graph, p)
        for n, want in spec.entries:
            saw[n].add(v[n])
            if v[n] == want:
                reached[n] = True
    k = len(spec.entries)
    if k == 0:
        return 100.0, 100.0
    state = 100.0 * sum(reached.values()) / k
    site = 100.0 * sum(1 for n in saw if saw[n] == {0, 1}) / k
    return state, site


def test_three_of_four_is_75_percent():
    # four independent buffers; patterns reach the desired value on 3 of them
    g = _graph("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\n"
               "OUTPUT(w)\nOUTPUT(x)\nOUTPUT(y)\nOUTPUT(z)\n"
               "w = BUF(a)\nx = BUF(b)\ny = BUF(c)\nz = BUF(d)")
    spec = parse_targets("w=1\nx=1\ny=1\nz=1", g)
    report = measure(g, spec, [InputPattern((1, 1, 1, 0))])
    assert report.state_coverage_pct == 75.0
    assert report.patterns_applied == 1


def test_empty_pattern_list_zero_coverage():
    g = build_graph(scan_convert(load_circuit("c17")))
    spec = parse_targets("n22=1\nn23=0", g)
    report = measure(g, spec, [])
    assert report.state_coverage_pct == 0.0
    assert report.site_coverage_pct == 0.0


def test_site_coverage_requires_both_values():
    g = _graph("INPUT(a)\nOUTPUT(y)\ny = BUF(a)")
    spec = parse_targets("y=1", g)
    one_sided = measure(g, spec, [InputPattern((1,)), InputPattern((1,))])
    assert one_sided.state_coverage_pct == 100.0
    assert one_sided.site_coverage_pct == 0.0
    toggled = measure(g, spec, [InputPattern((1,)), InputPattern((0,))])
    assert toggled.site_coverage_pct == 100.0


def test_first_reach_index_is_one_based():
    g = _graph("INPUT(a)\nOUTPUT(y)\ny = BUF(a)")
    spec = parse_targets("y=1", g)
    report = measure(g, spec, [InputPattern((0,)), InputPattern((1,))])
    assert report.per_target[0].first_reach_index == 2


def test_unreached_target_has_no_index():
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)")
    spec = parse_targets("y=1", g)
    report = measure(g, spec, [InputPattern((0, 1))])
    assert report.per_target[0].first_reach_index is None
    assert not report.per_target[0].reached_state


def test_missing_target_node_raises():
    # nodes 0 and 1 exist; -1 would otherwise read as the last node, and 2
    # and 99 would index past the graph
    g = _graph("INPUT(a)\nOUTPUT(y)\ny = BUF(a)")
    runs = (lambda spec: measure(g, spec, [InputPattern((0,))]),
            lambda spec: first_sightings(g, spec, [InputPattern((0,))]),
            lambda spec: run_cgf(g, spec, budget=4))
    for node in (99, 2, -1):
        for run in runs:
            with pytest.raises(TargetError, match=f"target node {node} is not in graph"):
                run(TargetSpec(entries=[(1, 1), (node, 1)]))


def test_curve_single_full_hit():
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)")
    spec = parse_targets("y=1", g)
    patterns = [InputPattern((1, 1))]
    curve = report_and_curve(spec, first_sightings(g, spec, patterns), len(patterns))[1]
    assert len(curve) == 1
    index, state, site = curve[0]
    assert index == 1 and state == 100.0


def test_curve_monotone_and_matches_measure():
    rng = random.Random(7)
    for _ in range(20):
        n = random_netlist(rng, rng.randint(2, 6), rng.randint(2, 15))
        g = build_graph(scan_convert(n))
        nodes = rng.sample(range(g.node_count), rng.randint(1, 4))
        spec = TargetSpec(entries=[(node, rng.randrange(2)) for node in nodes])
        patterns = [InputPattern(tuple(rng.randrange(2) for _ in range(g.input_count)))
                    for _ in range(rng.randint(1, 90))]
        curve = report_and_curve(spec, first_sightings(g, spec, patterns), len(patterns))[1]
        assert len(curve) == len(patterns)
        for (i1, s1, t1), (i2, s2, t2) in zip(curve, curve[1:]):
            assert i2 == i1 + 1 and s2 >= s1 and t2 >= t1
        final = measure(g, spec, patterns)
        assert curve[-1][1] == final.state_coverage_pct
        assert curve[-1][2] == final.site_coverage_pct


def test_matches_naive_oracle_randomized():
    rng = random.Random(8)
    for _ in range(25):
        n = random_netlist(rng, rng.randint(2, 5), rng.randint(2, 12), with_dffs=True)
        g = build_graph(scan_convert(n))
        nodes = rng.sample(range(g.node_count), rng.randint(1, 3))
        spec = TargetSpec(entries=[(node, rng.randrange(2)) for node in nodes])
        patterns = [InputPattern(tuple(rng.randrange(2) for _ in range(g.input_count)))
                    for _ in range(rng.randint(0, 70))]
        report = measure(g, spec, patterns)
        state, site = naive_measure(g, spec, patterns)
        assert report.state_coverage_pct == state
        assert report.site_coverage_pct == site


def test_monotone_under_extension_and_permutation_invariant():
    rng = random.Random(9)
    for _ in range(20):
        n = random_netlist(rng, rng.randint(2, 5), rng.randint(2, 10))
        g = build_graph(scan_convert(n))
        nodes = rng.sample(range(g.node_count), rng.randint(1, 3))
        spec = TargetSpec(entries=[(node, rng.randrange(2)) for node in nodes])
        patterns = [InputPattern(tuple(rng.randrange(2) for _ in range(g.input_count)))
                    for _ in range(rng.randint(1, 40))]
        base = measure(g, spec, patterns)
        extended = measure(g, spec, patterns + patterns[:3])
        assert extended.state_coverage_pct >= base.state_coverage_pct
        assert extended.site_coverage_pct >= base.site_coverage_pct
        shuffled = patterns[:]
        rng.shuffle(shuffled)
        permuted = measure(g, spec, shuffled)
        assert permuted.state_coverage_pct == base.state_coverage_pct
        assert permuted.site_coverage_pct == base.site_coverage_pct


def test_csv_outputs():
    g = build_graph(scan_convert(load_circuit("c17")))
    spec = parse_targets("n22=1\nn23=0", g)
    patterns = all_patterns(5)[:8]
    curve = report_and_curve(spec, first_sightings(g, spec, patterns), len(patterns))[1]
    text = curve_csv(curve)
    assert text.splitlines()[0] == "pattern_index,state_coverage_pct,site_coverage_pct"
    assert len(text.splitlines()) == 9


def prefix_scan(graph, spec, patterns):
    """Oracle: scalar per-pattern accumulation, one curve point per prefix,
    plus each entry's (reached, saw_0, saw_1, first_reach_index)."""
    state = [[False, False, False, None] for _ in spec.entries]
    curve = []
    k = len(spec.entries)
    for number, p in enumerate(patterns, start=1):
        v = simulate(graph, p)
        for (n, want), s in zip(spec.entries, state):
            s[1 + v[n]] = True
            if v[n] == want and not s[0]:
                s[0], s[3] = True, number
        if k == 0:
            curve.append((number, 100.0, 100.0))
        else:
            curve.append((number, 100.0 * sum(s[0] for s in state) / k,
                          100.0 * sum(s[1] and s[2] for s in state) / k))
    return [tuple(s) for s in state], curve


@pytest.mark.parametrize("pass_lanes", [None, 64])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 1000])
def test_one_pass_matches_oracles_at_every_width(count, pass_lanes, monkeypatch):
    if pass_lanes is not None:
        monkeypatch.setattr(coverage_module, "PASS_LANES", pass_lanes)
    rng = random.Random(count)
    g = build_graph(scan_convert(random_netlist(rng, 8, 200, with_dffs=True)))
    # a low gate whose cone holds few of the 200 gates, plus deep gates
    narrow = min(range(g.input_count, g.node_count), key=lambda n: (g.levels[n], n))
    assert len(fanin_cone(g, [narrow])) < g.node_count // 10
    nodes = [narrow] + rng.sample(range(g.input_count, g.node_count), 4)
    spec = TargetSpec(entries=[(node, rng.randrange(2)) for node in dict.fromkeys(nodes)])
    patterns = [InputPattern(tuple(rng.randrange(2) for _ in range(g.input_count)))
                for _ in range(count)]
    report, curve = report_and_curve(spec, first_sightings(g, spec, patterns), len(patterns))
    assert report == measure(g, spec, patterns)
    assert curve == report_and_curve(spec, first_sightings(g, spec, patterns), len(patterns))[1]
    assert (report.state_coverage_pct, report.site_coverage_pct) == naive_measure(g, spec, patterns)
    per_target, expected_curve = prefix_scan(g, spec, patterns)
    assert [(t.reached_state, t.saw_0, t.saw_1, t.first_reach_index)
            for t in report.per_target] == per_target
    assert curve == expected_curve
    assert report.patterns_applied == count
