import inspect
import random

import pytest

from gatefuzz.bench import parse_bench
from gatefuzz.cnf import encode
from gatefuzz.fixtures import load_circuit
import gatefuzz.simulate as simulate_module
from gatefuzz.graph import build_graph, cone, fanin_cone
from gatefuzz.netlist import Netlist, RawGate, scan_convert
from gatefuzz.pattern import InputPattern
from gatefuzz.simulate import SimulationError, run_pass, run_ternary, simulate
from gatefuzz.targets import TargetError, TargetSpec, cut_targets

from conftest import all_patterns, blif_constants_netlist, every_arity_netlist, random_netlist
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
    words = run_pass(g, [p])
    assert _valuation(words, 0) == simulate(g, p)
    assert all(w >> 1 == 0 for w in words)


def test_batch_matches_scalar_on_random_circuits():
    rng = random.Random(21)
    for _ in range(15):
        n = random_netlist(rng, rng.randint(1, 6), rng.randint(1, 25), with_dffs=True)
        g = build_graph(scan_convert(n))
        patterns = [InputPattern(tuple(rng.randrange(2) for _ in range(g.input_count)))
                    for _ in range(64)]
        words = run_pass(g, patterns)
        for lane in (0, 17, 40, 63):
            assert _valuation(words, lane) == simulate(g, patterns[lane])


def test_empty_batch():
    g = _graph("INPUT(a)\nOUTPUT(y)\ny = NOT(a)")
    assert run_pass(g, []) == [0, 0]


def test_batch_of_any_width_equals_per_lane_simulate():
    for lanes in (0, 1, 64, 65, 1000):
        rng = random.Random(lanes)
        g = build_graph(scan_convert(random_netlist(rng, 7, 40, with_dffs=True)))
        patterns = [InputPattern(tuple(rng.randrange(2) for _ in range(g.input_count)))
                    for _ in range(lanes)]
        words = run_pass(g, patterns)
        assert all(w >> lanes == 0 for w in words)
        for lane, p in enumerate(patterns):
            assert _valuation(words, lane) == simulate(g, p)


def _assert_cut_of(g, needed, view):
    """``cone(g, needed)`` after checking that the cut holds exactly the
    inputs, at their ids, and then the gates of ``view`` in id order, each
    with its name, kind and level and its fanins renumbered."""
    cut, new_id = cone(g, needed)
    old = list(range(g.input_count)) + sorted(set(view).difference(range(g.input_count)))
    assert [new_id[node] for node in old] == list(range(cut.node_count))
    assert cut.input_count == g.input_count
    assert cut.names == [g.names[node] for node in old]
    assert cut.name_to_id == {name: new for new, name in enumerate(cut.names)}
    assert cut.kinds == [g.kinds[node] for node in old]
    assert cut.levels == [g.levels[node] for node in old]
    assert cut.fanins == [tuple(new_id[s] for s in g.fanins[node]) for node in old]
    return cut, new_id


def test_cone_pass_matches_full_pass_inside_the_cone():
    # the cut numbers its gates anew, so a cone node's word is read at
    # new_id[node], and the pass holds no word for a node outside the cone
    rng = random.Random(23)
    g = build_graph(scan_convert(random_netlist(rng, 6, 60)))
    patterns = [InputPattern(tuple(rng.randrange(2) for _ in range(g.input_count)))
                for _ in range(100)]
    target = g.node_count - 20
    view = fanin_cone(g, [target]) | set(range(g.input_count))
    assert len(view) < g.node_count
    cut, new_id = _assert_cut_of(g, [target], view)
    words = run_pass(cut, patterns)
    full = run_pass(g, patterns)
    assert len(words) == cut.node_count == len(view)
    for node in view:
        assert words[new_id[node]] == full[node]


def test_valuation_satisfies_every_cnf_clause():
    # node n is variable n + 1, also when gates read later ones (s27 after
    # scan conversion, shuffled netlists), where the id order is not a
    # topological order
    rng = random.Random(22)
    circuits = [scan_convert(load_circuit("c17"))]
    for _ in range(10):
        circuits.append(scan_convert(random_netlist(rng, rng.randint(1, 5),
                                                    rng.randint(1, 20))))
    circuits.append(scan_convert(load_circuit("s27")))
    for _ in range(10):
        shuffled = random_netlist(rng, rng.randint(1, 5), rng.randint(2, 20),
                                  with_dffs=rng.random() < 0.5)
        rng.shuffle(shuffled.gates)
        circuits.append(scan_convert(shuffled))
    out_of_order = 0
    for netlist in circuits:
        g = build_graph(netlist)
        f = encode(g)
        out_of_order += any(src > node for node, srcs in enumerate(g.fanins) for src in srcs)
        node_clauses = [c for c in f.clauses if all(abs(lit) <= g.node_count for lit in c)]
        for _ in range(10):
            p = InputPattern(tuple(rng.randrange(2) for _ in range(g.input_count)))
            v = simulate(g, p)
            # helper variables, numbered after the nodes, satisfy their
            # stages by construction; check clauses over node variables only
            for clause in node_clauses:
                assert any(v[abs(lit) - 1] == (lit > 0) for lit in clause)
    assert out_of_order >= 8


def test_package_attribute_is_the_submodule():
    import gatefuzz.simulate as module
    assert inspect.ismodule(module)
    assert module.simulate is simulate


# -- the kernel against the independent oracle ---------------------------------

# 30 to 32 lanes are where a word grows from one CPython digit to two
LANE_COUNTS = (0, 1, 8, 30, 31, 32, 64, 65)


def _assert_pass_matches_oracle(netlist, g, seed):
    """Every node of a pass over ``g``, the graph of the scan-converted
    ``netlist`` or a cut of it, at every lane count, equals ``ref_eval`` of
    the netlist at the node's name."""
    rng = random.Random(seed)
    for lanes in LANE_COUNTS:
        patterns = [InputPattern.from_word(rng.getrandbits(g.input_count), g.input_count)
                    for _ in range(lanes)]
        words = run_pass(g, patterns)
        assert len(words) == g.node_count
        assert all(w >> lanes == 0 for w in words)
        for lane, p in enumerate(patterns):
            expected = ref_eval(netlist, p.bits)
            got = {name: words[n] >> lane & 1 for n, name in enumerate(g.names)}
            assert got == {name: expected[name] for name in g.names}, (
                lanes, lane, p.to_string())


def _assert_kernel_matches_oracle(netlist, seed):
    """Every node of a full pass, at every lane count, equals ``ref_eval``."""
    netlist = scan_convert(netlist)
    g = build_graph(netlist)
    _assert_pass_matches_oracle(netlist, g, seed)
    return g


def test_kernel_matches_oracle_at_every_arity():
    rng = random.Random(41)
    for trial in range(3):
        g = _assert_kernel_matches_oracle(every_arity_netlist(rng), seed=trial)
        arities = {len(g.fanins[n]) for n in range(g.node_count) if g.kinds[n] != "INPUT"}
        assert arities == set(range(10))
        # a gate reads a later one, so the id order is not a topological order
        assert any(src > node for node, srcs in enumerate(g.fanins) for src in srcs)
        assert g.kinds[g.node_id("q")] == "INPUT"  # the DFF's output, scan-converted


def test_kernel_matches_oracle_on_blif_constants_and_a_latch():
    netlist = blif_constants_netlist()
    assert {g.kind for g in netlist.gates} >= {"CONST0", "CONST1", "DFF"}
    _assert_kernel_matches_oracle(netlist, seed=5)


def test_kernel_matches_oracle_on_random_circuits_in_any_declared_order():
    rng = random.Random(43)
    for trial in range(12):
        netlist = random_netlist(rng, rng.randint(1, 7), rng.randint(1, 50),
                                 with_dffs=trial % 2 == 0)
        if trial % 3 == 0:
            rng.shuffle(netlist.gates)
        _assert_kernel_matches_oracle(netlist, seed=trial)


def test_cone_kernel_matches_oracle_on_random_circuits_in_any_declared_order():
    rng = random.Random(44)
    for trial in range(12):
        netlist = random_netlist(rng, rng.randint(1, 7), rng.randint(1, 50),
                                 with_dffs=trial % 2 == 0)
        if trial % 3 == 0:
            rng.shuffle(netlist.gates)
        netlist = scan_convert(netlist)
        g = build_graph(netlist)
        needed = rng.sample(range(g.node_count), rng.randint(1, min(3, g.node_count)))
        cut, _ = _assert_cut_of(g, needed, fanin_cone(g, needed))
        _assert_pass_matches_oracle(netlist, cut, seed=trial)


def test_pass_over_a_circuit_without_inputs():
    netlist = Netlist(name="consts", primary_outputs=["y", "z"], gates=[
        RawGate("c0", "CONST0", ()), RawGate("c1", "CONST1", ()),
        RawGate("y", "NAND", ("c1", "c0")), RawGate("b", "BUF", ("c1",)),
        RawGate("z", "XOR", ("b", "c1", "c0"))])
    g = build_graph(netlist)
    assert g.input_count == 0
    expected = ref_eval(netlist, ())
    z = g.node_id("z")
    cut, _ = _assert_cut_of(g, [z], fanin_cone(g, [z]))
    assert cut.node_count < g.node_count
    for graph in (g, cut):
        assert run_pass(graph, []) == [0] * graph.node_count
        for lanes in (1, 3, 64):
            words = run_pass(graph, [InputPattern(())] * lanes)
            for node, name in enumerate(graph.names):
                assert words[node] == expected[name] * ((1 << lanes) - 1), (lanes, node)


def test_cone_keeps_one_cut_per_graph_and_needed_set():
    g = build_graph(scan_convert(load_circuit("c432")))
    a, b = g.node_count - 1, g.node_count - 7
    cut = cone(g, [a, b])
    assert cone(g, [a, b]) is cut
    assert cone(g, (b, a, b)) is cut
    other = cone(g, [a])
    assert other is not cut and other[0].node_count < cut[0].node_count
    # a cone of every gate is the graph itself
    whole = cone(g, range(g.input_count, g.node_count))
    assert whole[0] is g and whole[1] == range(g.node_count)
    # one simulation plan per graph, and a cut has its own
    assert simulate_module._plan(cut[0]) is simulate_module._plan(cut[0])
    assert simulate_module._plan(cut[0]) is not simulate_module._plan(g)
    # the memos are neither part of the graph's value nor of its repr
    fresh = build_graph(scan_convert(load_circuit("c432")))
    assert fresh == g and "cuts" not in repr(g) and "plan" not in repr(g)


@pytest.mark.parametrize("node", [-1, "end"])
def test_cone_raises_for_a_node_outside_the_graph_on_every_call(node):
    g = build_graph(scan_convert(load_circuit("c17")))
    if node == "end":
        node = g.node_count
    # the spec is checked before the cone's memo is read, so no call caches a cut
    for _ in range(2):
        with pytest.raises(TargetError, match=f"target node {node} is not in graph"):
            cut_targets(g, TargetSpec(entries=[(0, 1), (node, 1)]))
    assert not g.cuts


# -- three-valued evaluation against exhaustive two-valued passes ------------


def _assert_ternary_sound(g, rng, lanes=24):
    """Random partial patterns, one per lane, each input 0, 1 or X: a node
    that :func:`run_ternary` calls definite has that value under every
    completion, found by one exhaustive :func:`run_pass`; a lane without X is
    definite everywhere.  Returns (definite gates, X gates) over the lanes
    that have an X."""
    width = g.input_count
    words = run_pass(g, all_patterns(width))  # lane v is the pattern v
    ones, zeros = [0] * width, [0] * width
    completions = []  # per lane: the exhaustive lanes it covers, as a bitset
    for lane in range(lanes):
        covered = (1 << (1 << width)) - 1
        for i in range(width):
            value = rng.randrange(3)  # 2 is X
            if value == 2:
                continue
            (ones if value else zeros)[i] |= 1 << lane
            # patterns whose input i (bit width - 1 - i of v) is the value
            covered &= sum(1 << v for v in range(1 << width)
                           if (v >> (width - 1 - i) & 1) == value)
        completions.append(covered)
    hi, lo = run_ternary(g, ones, zeros, lanes)
    definite = unknown = 0
    for lane, covered in enumerate(completions):
        has_x = covered & (covered - 1) != 0  # more than one completion
        for node in range(g.node_count):
            is_1, is_0 = hi[node] >> lane & 1, lo[node] >> lane & 1
            assert not (is_1 and is_0), (node, lane)
            if is_1:
                assert words[node] & covered == covered, (node, lane)
            if is_0:
                assert words[node] & covered == 0, (node, lane)
            if not has_x:
                assert is_1 or is_0, (node, lane)
            elif g.kinds[node] != "INPUT":
                definite += is_1 or is_0
                unknown += not (is_1 or is_0)
    return definite, unknown


def test_ternary_values_hold_under_every_completion():
    rng = random.Random(47)
    definite = unknown = 0
    for trial in range(300):
        g = None
        while g is None or g.input_count > 8:
            netlist = random_netlist(rng, rng.randint(1, 6), rng.randint(1, 25),
                                     with_dffs=trial % 3 == 0)
            if trial % 4 == 0:
                rng.shuffle(netlist.gates)
            g = build_graph(scan_convert(netlist))
        d, u = _assert_ternary_sound(g, rng)
        definite += d
        unknown += u
    # wide gates, repeated fanins and both constants
    for trial in range(3):
        d, u = _assert_ternary_sound(build_graph(scan_convert(every_arity_netlist(rng))), rng)
        definite += d
        unknown += u
    assert definite > 10000 and unknown > 10000, (definite, unknown)


def _ternary_reference(g, inputs):
    """Every node's value, 0, 1 or None for X, with the inputs at ``inputs``:
    AND is 0 if any fanin is 0 and 1 if all are 1, OR is its dual, parity is
    definite only when every fanin is, and an inverting kind swaps 0 and 1."""
    values = dict(enumerate(inputs))

    def value(node):
        if node not in values:
            kind, srcs = g.kinds[node], [value(s) for s in g.fanins[node]]
            if kind in ("AND", "NAND"):
                v = 0 if 0 in srcs else 1 if all(srcs) else None
            elif kind in ("OR", "NOR"):
                v = 1 if 1 in srcs else 0 if None not in srcs else None
            elif kind in ("CONST0", "CONST1"):
                v = 0
            else:  # XOR, XNOR, BUF and NOT
                v = None if None in srcs else sum(srcs) % 2
            if kind in ("NAND", "NOR", "XNOR", "NOT", "CONST1") and v is not None:
                v = 1 - v
            values[node] = v
        return values[node]

    return [value(node) for node in range(g.node_count)]


def test_ternary_is_exact_against_a_scalar_reference():
    # soundness alone would pass a kernel that leaves X where the fanins'
    # definite values force a gate; here every node of every lane is exact
    rng = random.Random(48)
    graphs = [build_graph(scan_convert(every_arity_netlist(rng))) for _ in range(3)]
    for trial in range(20):
        netlist = random_netlist(rng, rng.randint(1, 8), rng.randint(1, 50),
                                 with_dffs=trial % 2 == 0)
        if trial % 3 == 0:
            rng.shuffle(netlist.gates)
        graphs.append(build_graph(scan_convert(netlist)))
    seen = set()
    for g in graphs:
        for lanes in (1, 8, 29, 31, 64, 65):
            patterns = [[rng.choice((0, 1, None)) for _ in range(g.input_count)]
                        for _ in range(lanes)]
            ones = [sum(1 << j for j, p in enumerate(patterns) if p[i] == 1)
                    for i in range(g.input_count)]
            zeros = [sum(1 << j for j, p in enumerate(patterns) if p[i] == 0)
                     for i in range(g.input_count)]
            hi, lo = run_ternary(g, ones, zeros, lanes)
            assert len(hi) == len(lo) == g.node_count
            assert all(w >> lanes == 0 for w in hi + lo)
            assert not any(h & z for h, z in zip(hi, lo))  # no lane both 1 and 0
            for lane, p in enumerate(patterns):
                expected = _ternary_reference(g, p)
                got = [1 if hi[n] >> lane & 1 else 0 if lo[n] >> lane & 1 else None
                       for n in range(g.node_count)]
                assert got == expected, (lanes, lane, p)
                seen.update((g.kinds[n], len(g.fanins[n]), v) for n, v in enumerate(expected))
    # every unrolled case, and the generic one, met each of 0, 1 and X
    for kind, arity in (("AND", 2), ("NOR", 2), ("XOR", 2), ("NOT", 1), ("BUF", 1),
                        ("NAND", 3), ("OR", 3), ("XNOR", 3), ("AND", 5)):
        assert {v for k, a, v in seen if (k, a) == (kind, arity)} == {0, 1, None}, (kind, arity)


def _reference_cone(g, nodes):
    cone, frontier = set(), list(nodes)
    while frontier:
        node = frontier.pop()
        if node not in cone:
            cone.add(node)
            frontier.extend(g.fanins[node])
    return cone


def test_plan_holds_each_cone_gate_once_after_its_fanins():
    rng = random.Random(47)
    for trial in range(80):
        netlist = random_netlist(rng, rng.randint(1, 6), rng.randint(1, 60),
                                 with_dffs=trial % 2 == 1)
        if trial % 3 == 0:
            rng.shuffle(netlist.gates)
        netlist = scan_convert(netlist)
        g = build_graph(netlist)
        needed = rng.sample(range(g.node_count), rng.randint(1, min(4, g.node_count)))
        view = _reference_cone(g, needed) | set(range(g.input_count))
        cut, new_id = _assert_cut_of(g, needed, view)
        # the graph's plan and the cut's, each over its own node ids
        for graph, gates in ((g, [n for n in range(g.node_count) if g.kinds[n] != "INPUT"]),
                             (cut, sorted(new_id[n] for n in view if g.kinds[n] != "INPUT"))):
            plan = simulate_module._plan(graph)
            order = [item[0] for _, _, _, items in plan for item in items]
            assert sorted(order) == gates  # every cone gate exactly once, nothing else
            position = {node: i for i, node in enumerate(order)}
            for _, arity, _, items in plan:
                for node, *srcs in items:
                    assert tuple(srcs) == graph.fanins[node] and len(srcs) == arity
                    assert all(graph.kinds[s] == "INPUT" or position[s] < position[node]
                               for s in srcs)
        patterns = [InputPattern.from_word(rng.getrandbits(g.input_count), g.input_count)
                    for _ in range(rng.choice(LANE_COUNTS))]
        words = run_pass(cut, patterns)
        full = run_pass(g, patterns)
        assert len(words) == cut.node_count  # no word for a node outside the cone
        for lane, p in enumerate(patterns):
            expected = ref_eval(netlist, p.bits)
            for node in view:
                assert words[new_id[node]] >> lane & 1 == expected[g.names[node]]
                assert full[node] >> lane & 1 == expected[g.names[node]]
