import hashlib
import random

import pytest

from gatefuzz.bench import parse_bench
from gatefuzz.cnf import CnfFormula, encode, write_dimacs
from gatefuzz.fixtures import load_circuit
from gatefuzz.graph import build_graph
from gatefuzz.netlist import scan_convert

from conftest import random_netlist


def _encode(text):
    graph = build_graph(scan_convert(parse_bench(text)))
    return graph, encode(graph)


def test_textbook_and():
    graph, f = _encode("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)")
    a = f.node_var(graph.node_id("a"))
    b = f.node_var(graph.node_id("b"))
    y = f.node_var(graph.node_id("y"))
    assert sorted(tuple(sorted(c)) for c in f.clauses) == sorted(
        [tuple(sorted(c)) for c in [(-y, a), (-y, b), (y, -a, -b)]])


def test_textbook_not():
    graph, f = _encode("INPUT(a)\nOUTPUT(y)\ny = NOT(a)")
    a = f.node_var(graph.node_id("a"))
    y = f.node_var(graph.node_id("y"))
    assert sorted(tuple(sorted(c)) for c in f.clauses) == sorted(
        [tuple(sorted(c)) for c in [(y, a), (-y, -a)]])


def test_c17_pinned_counts():
    # 6 two-input NANDs at 3 clauses each, one variable per node
    graph = build_graph(scan_convert(load_circuit("c17")))
    f = encode(graph)
    assert f.var_count == 11
    assert f.clause_count == 18
    assert [f.node_var(n) for n in range(graph.node_count)] == list(range(1, 12))


def test_input_vars_are_first_in_input_order():
    graph, f = _encode("INPUT(b)\nINPUT(a)\nOUTPUT(y)\ny = AND(a, b)")
    assert f.input_count == 2
    assert f.node_var(graph.node_id("b")) == 1
    assert f.node_var(graph.node_id("a")) == 2
    assert f.node_var(graph.node_id("y")) == 3


def test_xor_chain_helpers():
    graph, f = _encode("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = XOR(a, b, c, d)")
    # two helper stages, each 4 clauses, plus the final 4-clause stage
    assert f.var_count == 5 + 2
    assert f.clause_count == 12
    # the helpers, 6 and 7, come after the node variables and stand for no node
    assert [f.node_var(n) for n in range(graph.node_count)] == [1, 2, 3, 4, 5]
    assert {abs(lit) for c in f.clauses for lit in c} == set(range(1, 8))


def test_const_unit_clauses():
    from gatefuzz.netlist import Netlist, RawGate
    n = Netlist(name="consts", primary_inputs=["a"], primary_outputs=["y"])
    n.gates = [RawGate("k1", "CONST1", ()), RawGate("y", "AND", ("a", "k1"))]
    n = scan_convert(n)
    f = encode(build_graph(n))
    assert sum(1 for c in f.clauses if len(c) == 1) == 1


def test_dimacs_empty_formula():
    f = CnfFormula(clauses=[], var_count=0)
    assert write_dimacs(f) == "p cnf 0 0\n"


def test_dimacs_single_unit():
    f = CnfFormula(clauses=[(1,)], var_count=1)
    assert write_dimacs(f) == "p cnf 1 1\n1 0\n"


def test_dimacs_c17_line_count():
    graph = build_graph(scan_convert(load_circuit("c17")))
    f = encode(graph)
    text = write_dimacs(f)
    # header + clauses + one map comment per node
    assert len(text.splitlines()) == 1 + f.clause_count + graph.node_count
    assert f"p cnf {f.var_count} {f.clause_count}" in text


def test_dimacs_assumptions_are_units():
    graph = build_graph(scan_convert(load_circuit("c17")))
    f = encode(graph)
    text = write_dimacs(f, assumptions=[3, -5])
    lines = text.splitlines()
    assert lines[-2:] == ["3 0", "-5 0"]
    assert f"p cnf {f.var_count} {f.clause_count + 2}" in text


def test_encode_deterministic():
    rng = random.Random(9)
    for _ in range(10):
        n = random_netlist(rng, rng.randint(1, 5), rng.randint(1, 15))
        g1 = build_graph(scan_convert(n))
        g2 = build_graph(scan_convert(n))
        assert write_dimacs(encode(g1)) == write_dimacs(encode(g2))


@pytest.mark.parametrize("name,digest", [
    ("c432", "8fa1c5c1ab6ac38acaff265e30f6ca67062dd6e15fae90b2d29c0aeb22f82452"),
    # s27 after scan conversion is not declared in topological order (a gate
    # reads a later one)
    ("s27", "2437f798227ddbfb83448c891f9534c0ad4a0d6dcfd430773d60822c066538ec"),
    ("xor_ladder8", "e6ebb8774dac6038ac6ede4ba81255f819e62d7cf127f366e119ef36d047b549"),
])
def test_dimacs_pinned(name, digest):
    text = write_dimacs(encode(build_graph(scan_convert(load_circuit(name)))))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_wide_gates_pinned_clause_order():
    # declared out of order (w reads the later u and v), yet node n is
    # variable n + 1 and the gates' clauses come in id order:
    # w = 4, u = 5, v = 6, z = 7; the wide XOR/XNOR chains go through helpers
    # 8..10, and the NAND and the NOR write their wide clause last
    graph, f = _encode("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\n"
                       "w = NAND(u, v, c)\nu = XOR(a, b, c)\nv = XNOR(a, b, c, u)\nz = NOR(w, a)")
    assert graph.names == ["a", "b", "c", "w", "u", "v", "z"]
    assert graph.levels == [0, 0, 0, 3, 1, 2, 4]
    assert f.var_count == 10
    assert f.clauses == [
        (4, 5), (4, 6), (4, 3), (-4, -5, -6, -3),
        (-8, 1, 2), (-8, -1, -2), (8, -1, 2), (8, 1, -2),
        (-5, 8, 3), (-5, -8, -3), (5, -8, 3), (5, 8, -3),
        (-9, 1, 2), (-9, -1, -2), (9, -1, 2), (9, 1, -2),
        (-10, 9, 3), (-10, -9, -3), (10, -9, 3), (10, 9, -3),
        (6, 10, 5), (6, -10, -5), (-6, -10, 5), (-6, 10, -5),
        (-7, -4), (-7, -1), (7, 4, 1),
    ]
