import inspect
import random

import pytest

from gatefuzz.bench import parse_bench
from gatefuzz.cnf import encode
from gatefuzz.fixtures import load_circuit
from gatefuzz.graph import build_graph
from gatefuzz.netlist import scan_convert
from gatefuzz.pattern import InputPattern
from gatefuzz.simulate import (SimulationError, compile_ops, fanin_cone, run_pass,
                               simulate)

from conftest import all_patterns, random_netlist
from oracle import ref_eval


def _graph(text):
    return build_graph(scan_convert(parse_bench(text)))


def _valuation(words, lane):
    return [(w >> lane) & 1 for w in words]


def test_and_11():
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)")
    v = simulate(g, InputPattern((1, 1)))
    assert v[g.node_id("y")] == 1


def test_xnor_10():
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XNOR(a, b)")
    v = simulate(g, InputPattern((1, 0)))
    assert v[g.node_id("y")] == 0


def test_c17_against_oracle_exhaustive():
    netlist = scan_convert(load_circuit("c17"))
    g = build_graph(netlist)
    for p in all_patterns(5):
        expected = ref_eval(netlist, p.bits)
        got = simulate(g, p)
        for name, value in expected.items():
            assert got[g.node_id(name)] == value, (p.to_string(), name)


def test_c17_specific_vector():
    netlist = scan_convert(load_circuit("c17"))
    g = build_graph(netlist)
    v = simulate(g, InputPattern.from_string("01111"))
    expected = ref_eval(netlist, (0, 1, 1, 1, 1))
    assert v[g.node_id("n22")] == expected["n22"]
    assert v[g.node_id("n23")] == expected["n23"]


def test_pattern_length_mismatch():
    g = _graph("INPUT(a)\nOUTPUT(y)\ny = NOT(a)")
    with pytest.raises(SimulationError, match="1 inputs"):
        simulate(g, InputPattern((0, 1)))


def test_batch_of_one_equals_simulate():
    g = build_graph(scan_convert(load_circuit("c17")))
    p = InputPattern.from_string("10110")
    words = run_pass(g, compile_ops(g), [p])
    assert _valuation(words, 0) == simulate(g, p)
    assert all(w >> 1 == 0 for w in words)


def test_batch_matches_scalar_on_random_circuits():
    rng = random.Random(21)
    for _ in range(15):
        n = random_netlist(rng, rng.randint(1, 6), rng.randint(1, 25), with_dffs=True)
        g = build_graph(scan_convert(n))
        patterns = [InputPattern(tuple(rng.randrange(2) for _ in range(g.input_count)))
                    for _ in range(64)]
        words = run_pass(g, compile_ops(g), patterns)
        for lane in (0, 17, 40, 63):
            assert _valuation(words, lane) == simulate(g, patterns[lane])


def test_empty_batch():
    g = _graph("INPUT(a)\nOUTPUT(y)\ny = NOT(a)")
    assert run_pass(g, compile_ops(g), []) == [0, 0]


def test_batch_of_any_width_equals_per_lane_simulate():
    for lanes in (0, 1, 64, 65, 1000):
        rng = random.Random(lanes)
        g = build_graph(scan_convert(random_netlist(rng, 7, 40, with_dffs=True)))
        patterns = [InputPattern(tuple(rng.randrange(2) for _ in range(g.input_count)))
                    for _ in range(lanes)]
        words = run_pass(g, compile_ops(g), patterns)
        assert all(w >> lanes == 0 for w in words)
        for lane, p in enumerate(patterns):
            assert _valuation(words, lane) == simulate(g, p)


def test_cone_pass_matches_full_pass_inside_the_cone():
    rng = random.Random(23)
    g = build_graph(scan_convert(random_netlist(rng, 6, 60)))
    patterns = [InputPattern(tuple(rng.randrange(2) for _ in range(g.input_count)))
                for _ in range(100)]
    target = g.node_count - 20
    cone = fanin_cone(g, [target])
    assert len(cone) < g.node_count - g.input_count
    words = run_pass(g, compile_ops(g, [target]), patterns)
    full = run_pass(g, compile_ops(g), patterns)
    for node in range(g.node_count):
        in_view = node in cone or node in g.primary_inputs
        assert words[node] == (full[node] if in_view else 0)


def test_valuation_satisfies_every_cnf_clause():
    rng = random.Random(22)
    circuits = [scan_convert(load_circuit("c17"))]
    for _ in range(10):
        circuits.append(scan_convert(random_netlist(rng, rng.randint(1, 5),
                                                    rng.randint(1, 20))))
    for netlist in circuits:
        g = build_graph(netlist)
        f = encode(g)
        for _ in range(10):
            p = InputPattern(tuple(rng.randrange(2) for _ in range(g.input_count)))
            v = simulate(g, p)
            assignment = {f.node_to_var[n]: v[n] for n in range(g.node_count)}
            for clause in f.clauses:
                # helper variables (absent from the node map) satisfy their
                # stages by construction; check clauses over node vars only
                if all(abs(lit) in assignment for lit in clause):
                    assert any(assignment[abs(lit)] == (lit > 0) for lit in clause)


def test_package_attribute_is_the_submodule():
    import gatefuzz.simulate as module
    assert inspect.ismodule(module)
    assert module.simulate is simulate
