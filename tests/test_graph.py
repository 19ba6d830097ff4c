import dataclasses
import random

import pytest

from gatefuzz.bench import parse_bench, write_bench
from gatefuzz.cgf import run_cgf
from gatefuzz.cnf import encode
from gatefuzz.coverage import first_sightings, report_and_curve
from gatefuzz.fixtures import load_circuit
from gatefuzz.graph import CycleError, build_graph, cone, diff_graphs, to_dot
from gatefuzz.netlist import Netlist, NetlistError, RawGate, scan_convert
from gatefuzz.sat import SolverSession
from gatefuzz.seedgen import target_formula
from gatefuzz.simulate import run_pass
from gatefuzz.targets import TargetSpec

from conftest import all_patterns, random_netlist
from oracle import heap_levelize, trace_cycle


def _graph(text):
    return build_graph(scan_convert(parse_bench(text)))


def test_c17_shape():
    g = build_graph(scan_convert(load_circuit("c17")))
    assert g.node_count == 11  # 5 inputs + 6 gates
    assert max(g.levels) == 3
    assert g.input_count == 5
    assert g.kinds[:5] == ["INPUT"] * 5 and "INPUT" not in g.kinds[5:]


def test_single_buf():
    g = _graph("INPUT(a)\nOUTPUT(y)\ny = BUF(a)")
    assert g.node_count == 2
    assert sorted(g.levels) == [0, 1]


def test_self_loop_cycle():
    with pytest.raises(CycleError, match="y"):
        _graph("INPUT(a)\nOUTPUT(y)\ny = AND(y, a)")


def test_two_gate_cycle_names_reported():
    with pytest.raises(CycleError) as exc:
        _graph("INPUT(a)\nOUTPUT(u)\nu = AND(v, a)\nv = OR(u, a)")
    assert {"u", "v"} <= set(exc.value.cycle)


def test_topo_order_inputs_first_and_valid():
    # the inputs are nodes 0..I-1, and level order is a topological order
    rng = random.Random(5)
    for _ in range(30):
        n = random_netlist(rng, rng.randint(1, 5), rng.randint(1, 25), with_dffs=True)
        g = build_graph(scan_convert(n))
        assert g.name_to_id == {name: i for i, name in enumerate(g.names)}
        assert g.names[:g.input_count] == scan_convert(n).primary_inputs
        assert all(g.kinds[node] == "INPUT" for node in range(g.input_count))
        assert "INPUT" not in g.kinds[g.input_count:]
        for node, srcs in enumerate(g.fanins):
            for s in srcs:
                assert g.levels[s] < g.levels[node]


def test_levelize_matches_heap_kahn():
    rng = random.Random(17)
    orders = {True: 0, False: 0}
    for trial in range(240):
        n = random_netlist(rng, rng.randint(1, 5), rng.randint(1, 40), with_dffs=trial % 2 == 1)
        if trial % 4 >= 2:
            rng.shuffle(n.gates)
        g = build_graph(scan_convert(n))
        in_order = all(src < node for node, srcs in enumerate(g.fanins) for src in srcs)
        orders[in_order] += 1
        assert g.levels == heap_levelize(g.fanins)[1]
    assert orders[True] >= 120 and orders[False] >= 60


def test_declaration_order_is_topological_for_bundled_circuits():
    for name in ("c17", "c432"):
        g = build_graph(scan_convert(load_circuit(name)))
        assert all(src < node for node, srcs in enumerate(g.fanins) for src in srcs)
        assert g.levels == heap_levelize(g.fanins)[1]
    g = build_graph(scan_convert(load_circuit("s27")))
    assert g.levels == heap_levelize(g.fanins)[1]


def test_forward_reference_to_the_last_gate():
    # every gate reads only earlier ones, except that the next-to-last gate
    # reads the last: the latest place a forward reference can sit in an
    # acyclic netlist, after every earlier node is levelled
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
               "u = AND(a, b)\nv = NOT(u)\nw = OR(v, a)\ny = XOR(w, z)\nz = NOT(b)")
    assert g.levels == heap_levelize(g.fanins)[1]
    assert dict(zip(g.names, g.levels)) == {"a": 0, "b": 0, "u": 1, "v": 2, "w": 3,
                                            "y": 4, "z": 1}


def test_chain_declared_last_gate_first_levels_without_recursion():
    # the search descends the whole chain from the first declared gate
    length = 50_000
    gates = [(f"g{i}", "NOT", [f"g{i - 1}" if i else "a"]) for i in range(length)]
    g = build_graph(_hand_built(["a"], gates[::-1], [f"g{length - 1}"]))
    assert g.levels[1:] == list(range(length, 0, -1))


def _random_cyclic_netlist(rng):
    """A combinational netlist whose gates may read any signal, themselves too."""
    inputs = [f"x{i}" for i in range(rng.randint(1, 4))]
    outputs = [f"g{i}" for i in range(rng.randint(1, 12))]
    gates = []
    for i, out in enumerate(outputs):
        readable = inputs + outputs[:i]
        if rng.random() >= 0.3:
            readable += outputs[i + 1:]
        if rng.random() < 0.1:
            readable.append(out)
        if rng.random() < 0.2:
            gates.append((out, rng.choice(("NOT", "BUF")), [rng.choice(readable)]))
        else:
            arity = rng.choice((2, 2, 3))
            gates.append((out, rng.choice(("AND", "NAND", "OR", "NOR", "XOR", "XNOR")),
                          [rng.choice(readable) for _ in range(arity)]))
    if rng.random() < 0.5:
        rng.shuffle(gates)
    return _hand_built(inputs, gates, outputs[-1:])


def test_cycle_reported_matches_oracle_walk():
    rng = random.Random(23)
    cyclic = self_loops = 0
    for _ in range(900):
        n = _random_cyclic_netlist(rng)
        ids = n.validate()
        names = list(ids)
        fanins = [()] * len(n.primary_inputs) + [tuple(ids[s] for s in g.inputs) for g in n.gates]
        if len(heap_levelize(fanins)[0]) == len(fanins):
            assert build_graph(n).levels == heap_levelize(fanins)[1]
            continue
        expected = [names[i] for i in trace_cycle(fanins)]
        with pytest.raises(CycleError) as exc:
            build_graph(n)
        assert exc.value.cycle == expected
        assert str(exc.value) == "combinational cycle: " + " -> ".join(expected)
        cyclic += 1
        self_loops += len(expected) == 2
    assert cyclic >= 500 and self_loops >= 40 and cyclic - self_loops >= 300


@pytest.mark.parametrize("text,name", [
    ("INPUT(a)\nOUTPUT(y)\nu = NOT(a)\nv = AND(u, a)\ny = AND(y, v)", "y"),
    ("INPUT(a)\nOUTPUT(y)\nu = NOT(a)\nv = AND(v, u)\ny = OR(v, a)", "v"),
])
def test_self_loop_declared_in_order(text, name):
    with pytest.raises(CycleError) as exc:
        _graph(text)
    assert exc.value.cycle == [name, name]
    assert str(exc.value) == f"combinational cycle: {name} -> {name}"


def _hand_built(primary_inputs, gates, primary_outputs):
    return Netlist(name="hand", primary_inputs=primary_inputs,
                   primary_outputs=primary_outputs,
                   gates=[RawGate(out, kind, tuple(ins)) for out, kind, ins in gates])


@pytest.mark.parametrize("netlist,message", [
    (_hand_built(["a", "b", "a"], [("y", "AND", ["a", "b"])], ["y"]),
     "duplicate primary input 'a' in 'hand'"),
    (_hand_built(["a", "b"], [("y", "AND", ["a", "b"]), ("y", "NOT", ["a"])], ["y"]),
     "duplicate definition of 'y'"),
    (_hand_built(["a", "b"], [("b", "NOT", ["a"])], ["b"]),
     "duplicate definition of 'b'"),
    (_hand_built(["a"], [("u", "NOT", ["a"]), ("y", "AND", ["u", "q"])], ["y"]),
     "undefined signal 'q' feeding gate 'y'"),
    (_hand_built(["a"], [("y", "NOT", ["a"])], ["y", "z"]),
     "undefined primary output 'z'"),
    (_hand_built(["a"], [("q", "DFF", ["a"])], ["q"]),
     "netlist 'hand' holds a DFF and must be scan-converted before graph build"),
    (_hand_built(["a", "b"], [("y", "MUX", ["a", "b"])], ["y"]),
     "unsupported gate kind 'MUX'"),
    (_hand_built(["a"], [("", "NOT", ["a"])], ["a"]),
     "gate output name must be nonempty"),
    (_hand_built(["a", "b"], [("y", "NOT", ["a", "b"])], ["y"]),
     "NOT requires exactly 1 input, got 2 for 'y'"),
    (_hand_built(["a"], [("y", "CONST1", ["a"])], ["y"]),
     "CONST1 takes no inputs, got 1 for 'y'"),
    (_hand_built(["a"], [("y", "AND", ["a"])], ["y"]),
     "AND requires >= 2 inputs, got 1 for 'y'"),
])
def test_hand_built_netlist_rejected_by_build_graph(netlist, message):
    with pytest.raises(NetlistError) as exc:
        build_graph(netlist)
    assert str(exc.value) == message


VIOLATIONS_IN_RULE_ORDER = [
    # a repeated primary input comes before every gate error
    (_hand_built(["a", "b", "b", "a"], [("y", "MUX", ["a"]), ("", "AND", [])], ["z"]),
     "duplicate primary input 'b' in 'hand'"),
    # per gate: kind, then output, then arity, then duplicate
    (_hand_built(["a"], [("", "MUX", ["a"])], ["y"]), "unsupported gate kind 'MUX'"),
    (_hand_built(["a"], [("", "AND", ["a"])], ["y"]), "gate output name must be nonempty"),
    (_hand_built(["a"], [("a", "NOT", [])], ["a"]), "NOT requires exactly 1 input, got 0 for 'a'"),
    # the gates in order: an earlier gate's error first, whatever its rule
    (_hand_built(["a", "b"], [("a", "AND", ["a", "b"]), ("y", "MUX", ["a", "b"])], ["y"]),
     "duplicate definition of 'a'"),
    (_hand_built(["a", "b"], [("u", "OR", ["b"]), ("", "NOT", ["a"]), ("u", "AND", ["a", "b"])],
                 ["u"]), "OR requires >= 2 inputs, got 1 for 'u'"),
    (_hand_built(["a", "b"], [("u", "CONST1", []), ("u", "BUF", ["a", "b"])], ["u"]),
     "BUF requires exactly 1 input, got 2 for 'u'"),
    # every gate error before any undefined signal, even one read earlier
    (_hand_built(["a"], [("u", "AND", ["a", "ghost"]), ("v", "CONST0", ["a"])], ["v"]),
     "CONST0 takes no inputs, got 1 for 'v'"),
    (_hand_built(["a"], [("u", "AND", ["a", "ghost"]), ("a", "NOT", ["a"])], ["u"]),
     "duplicate definition of 'a'"),
    # undefined signals in gate order, then input order, before any undefined output
    (_hand_built(["a"], [("u", "AND", ["a", "p", "q"]), ("v", "OR", ["r", "a"])], ["z"]),
     "undefined signal 'p' feeding gate 'u'"),
    (_hand_built(["a"], [("u", "AND", ["a", "a"]), ("v", "OR", ["a", "r"])], ["z", "w"]),
     "undefined signal 'r' feeding gate 'v'"),
    (_hand_built(["a"], [("u", "AND", ["a", "a"])], ["u", "z", "w"]),
     "undefined primary output 'z'"),
    # an empty primary input name breaks no rule, so the next error is named
    (_hand_built(["", "a"], [("u", "AND", ["a", ""])], ["u", "z"]),
     "undefined primary output 'z'"),
]


@pytest.mark.parametrize("netlist,message", VIOLATIONS_IN_RULE_ORDER)
def test_validate_names_the_first_violation_in_rule_order(netlist, message):
    with pytest.raises(NetlistError) as exc:
        netlist.validate()
    assert str(exc.value) == message


@pytest.mark.parametrize("netlist,message", VIOLATIONS_IN_RULE_ORDER)
def test_build_graph_raises_what_validate_raises(netlist, message):
    # graph build checks the netlist by validating it, so it names the same
    # first violation, with the same type
    assert not netlist.has_dff
    with pytest.raises(NetlistError) as by_validate:
        netlist.validate()
    with pytest.raises(NetlistError) as by_graph:
        build_graph(netlist)
    assert type(by_graph.value) is type(by_validate.value)
    assert str(by_graph.value) == str(by_validate.value) == message


@pytest.mark.parametrize("netlist", [case[0] for case in VIOLATIONS_IN_RULE_ORDER])
@pytest.mark.parametrize("dff", [("q", "DFF", ("a",)), ("q", "DFF", ("a", "ghost"))])
@pytest.mark.parametrize("first", [True, False])
def test_build_graph_names_a_dff_before_any_violation(netlist, dff, first):
    # a DFF comes first, whatever else is wrong, and wherever the DFF is
    gates = [RawGate(*dff), *netlist.gates] if first else [*netlist.gates, RawGate(*dff)]
    sequential = Netlist(netlist.name, netlist.primary_inputs, netlist.primary_outputs, gates)
    with pytest.raises(NetlistError) as exc:
        build_graph(sequential)
    assert type(exc.value) is NetlistError
    assert str(exc.value) == ("netlist 'hand' holds a DFF and must be scan-converted before "
                              "graph build")


def test_an_empty_primary_input_name_is_valid():
    n = _hand_built(["", "a"], [("u", "AND", ["a", ""])], ["u"])
    assert n.validate() == {"": 0, "a": 1, "u": 2}


def test_combinational_netlist_builds_without_scan_convert():
    rng = random.Random(17)
    for _ in range(20):
        converted = scan_convert(random_netlist(rng, rng.randint(1, 5), rng.randint(1, 25),
                                                with_dffs=True))
        fresh = parse_bench(write_bench(converted), name=converted.name)
        assert build_graph(fresh) == build_graph(converted)


def test_validate_returns_ids_in_declaration_order():
    n = _hand_built(["b", "a"], [("z", "AND", ["a", "b"]), ("m", "NOT", ["z"]),
                                 ("c", "OR", ["m", "b"])], ["c"])
    ids = n.validate()
    assert list(ids.items()) == [("b", 0), ("a", 1), ("z", 2), ("m", 3), ("c", 4)]
    g = build_graph(scan_convert(n))
    assert g.names == list(ids)
    assert g.name_to_id == ids


def test_levels_definition():
    g = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nu = AND(a, b)\nv = NOT(u)\nz = OR(v, a)")
    assert g.levels[g.node_id("a")] == 0
    assert g.levels[g.node_id("u")] == 1
    assert g.levels[g.node_id("v")] == 2
    assert g.levels[g.node_id("z")] == 3


def test_diff_identical_graphs_empty():
    g = build_graph(scan_convert(load_circuit("c17")))
    d = diff_graphs(g, g)
    assert d.changed == [] and d.added == []


def test_diff_random_self_empty():
    rng = random.Random(6)
    for _ in range(20):
        n = random_netlist(rng, rng.randint(1, 5), rng.randint(1, 20))
        g = build_graph(scan_convert(n))
        d = diff_graphs(g, g)
        assert d.changed == [] and d.added == []


def test_diff_kind_change():
    a = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)")
    b = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)")
    d = diff_graphs(a, b)
    assert d.changed == [b.node_id("y")]
    assert d.added == []


def test_diff_inserted_gate_on_wire():
    original = load_circuit("c17")
    mutated = parse_bench(
        "INPUT(n1)\nINPUT(n2)\nINPUT(n3)\nINPUT(n6)\nINPUT(n7)\n"
        "OUTPUT(n22)\nOUTPUT(n23)\n"
        "n10 = NAND(n1, n3)\n"
        "n11 = NAND(n3, n6)\n"
        "nX = NAND(n11, n11)\n"   # inserted on the n11 -> n16 wire
        "n16 = NAND(n2, nX)\n"
        "n19 = NAND(n11, n7)\n"
        "n22 = NAND(n10, n16)\n"
        "n23 = NAND(n16, n19)\n", name="c17m")
    a = build_graph(scan_convert(original))
    b = build_graph(scan_convert(mutated))
    d = diff_graphs(a, b)
    assert [b.names[i] for i in d.added] == ["nX"]
    assert [b.names[i] for i in d.changed] == ["n16"]


def test_diff_deletions_ignored():
    a = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = AND(a, b)\ny = NOT(u)")
    b = _graph("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a)")
    d = diff_graphs(a, b)
    assert d.added == []
    assert [b.names[i] for i in d.changed] == ["y"]


def test_dot_export_mentions_every_node():
    g = build_graph(scan_convert(load_circuit("c17")))
    dot = to_dot(g)
    for name in g.names:
        assert name in dot
    assert dot.startswith("digraph")


def test_dot_export_escapes_quotes_and_backslashes():
    netlist = parse_bench('INPUT(a"b)\nINPUT(c\\d)\nOUTPUT(y)\ny = AND(a"b, c\\d)', name='q"\\n')
    dot = to_dot(build_graph(netlist))
    assert dot.splitlines()[:3] == ['digraph "q\\"\\\\n" {', "  rankdir=LR;",
                                    '  n0 [label="a\\"b\\nINPUT" shape=box];']
    assert '  n1 [label="c\\\\d\\nINPUT" shape=box];' in dot
    # outside the escapes, each line's quotes pair up
    for line in dot.splitlines():
        assert line.replace("\\\\", "").replace('\\"', "").count('"') % 2 == 0


def _every_model(formula, literals):
    """The input words of every model of ``formula`` under the target
    ``literals``, enumerated to exhaustion at distance floor 1."""
    session = SolverSession(formula)
    for lit in literals:
        session.add_clause([lit])
    words = set()
    while (result := session.solve()).is_sat:
        assert result.inputs not in words
        words.add(result.inputs)
        session.keep_distance(result.inputs, 1)
    return words


def _full_pass_coverage(graph, spec, patterns):
    """Coverage report and curve read from one pass over the whole graph,
    which no cut takes part in."""
    words = run_pass(graph, patterns)
    firsts = []
    for node, _ in spec.entries:
        lanes = [[lane + 1 for lane in range(len(patterns)) if (words[node] >> lane & 1) == v]
                 for v in (0, 1)]
        firsts.append([hits[0] if hits else None for hits in lanes])
    return report_and_curve(spec, firsts, len(patterns))


def test_the_cut_answers_as_the_graph_under_its_targets():
    # gates outside the cone depend on the inputs alone, so the cut's formula
    # has the graph's input projections under the targets, and simulation,
    # coverage and CGF see the same values
    rng = random.Random(95)
    partial = invalid = 0
    for trial in range(120):
        g = None
        while g is None or not 1 <= g.input_count <= 8:
            netlist = random_netlist(rng, rng.randint(1, 8), rng.randint(1, 30),
                                     with_dffs=trial % 3 == 0)
            if trial % 4 == 0:
                rng.shuffle(netlist.gates)
            g = build_graph(scan_convert(netlist))
        nodes = rng.sample(range(g.node_count), rng.randint(1, min(4, g.node_count)))
        spec = TargetSpec(entries=[(node, rng.randrange(2)) for node in nodes])
        cut, new_id = cone(g, nodes)
        cut_spec = TargetSpec(entries=[(new_id[node], value) for node, value in spec.entries])
        partial += cut is not g
        patterns = all_patterns(g.input_count)
        words = run_pass(g, patterns)
        qualifying = {p.word for lane, p in enumerate(patterns)
                      if all(words[node] >> lane & 1 == value for node, value in spec.entries)}
        invalid += not qualifying
        # the whole graph's formula, and the cut's that generation solves
        full = encode(g)
        full_lits = [full.node_var(node) * (1 if value else -1) for node, value in spec.entries]
        _, targets, cut_formula, cut_lits = target_formula(g, spec)
        assert targets == cut_spec.entries
        models = _every_model(full, full_lits)
        assert models == _every_model(cut_formula, cut_lits) == qualifying, trial
        # the report a full pass gives, on both, but for the node ids it names
        shuffled = rng.sample(patterns, len(patterns))
        report, curve = _full_pass_coverage(g, spec, shuffled)
        firsts = first_sightings(g, spec, shuffled)
        assert report_and_curve(spec, firsts, len(shuffled)) == (report, curve)
        cut_firsts = first_sightings(cut, cut_spec, shuffled)
        assert report_and_curve(cut_spec, cut_firsts, len(shuffled)) == (dataclasses.replace(
            report, per_target=[dataclasses.replace(t, node=new_id[t.node])
                                for t in report.per_target]), curve)
        full_run = run_cgf(g, spec, budget=40, rng_seed=trial)
        cut_run = run_cgf(cut, cut_spec, budget=40, rng_seed=trial)
        assert cut_run.executed == full_run.executed
        assert cut_run.corpus == full_run.corpus and cut_run.curve == full_run.curve
        assert (full_run.report, full_run.curve) == _full_pass_coverage(g, spec, full_run.executed)
    assert partial >= 90 and invalid >= 20, (partial, invalid)
