import inspect
import random

import pytest

from gatefuzz.bench import parse_bench
from gatefuzz.cnf import encode
from gatefuzz.fixtures import load_circuit
from gatefuzz.graph import build_graph
from gatefuzz.netlist import Netlist, RawGate, scan_convert
from gatefuzz.pattern import InputPattern
from gatefuzz.simulate import (SimulationError, compile_ops, fanin_cone, run_pass, run_ternary,
                               simulate)

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


def _node_at_slot(g, plan, view):
    """The inverse of ``plan.slot``, after checking that the plan's slots are
    exactly ``0..plan.size-1``, one for each node of ``view`` and each input,
    and that the inputs keep their ids."""
    nodes = set(view) | set(range(g.input_count))
    assert set(plan.slot) == nodes
    node_at = {plan.slot[node]: node for node in nodes}
    assert sorted(node_at) == list(range(plan.size))
    assert all(plan.slot[i] == i for i in range(g.input_count))
    assert plan.size == len(nodes)
    return node_at


def test_cone_pass_matches_full_pass_inside_the_cone():
    # a pass's words are indexed by slot, so a cone node's word is read at
    # plan.slot[node] and the pass holds no word for a node outside the cone
    rng = random.Random(23)
    g = build_graph(scan_convert(random_netlist(rng, 6, 60)))
    patterns = [InputPattern(tuple(rng.randrange(2) for _ in range(g.input_count)))
                for _ in range(100)]
    target = g.node_count - 20
    cone = fanin_cone(g, [target])
    assert len(cone) < g.node_count - g.input_count
    plan = compile_ops(g, [target])
    node_at = _node_at_slot(g, plan, cone)
    words = run_pass(g, plan, patterns)
    full = run_pass(g, compile_ops(g), patterns)
    assert len(words) == plan.size
    for slot, node in node_at.items():
        assert words[slot] == full[node]


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


def _assert_plan_matches_oracle(netlist, g, plan, view, seed):
    """Every node of ``view``, read at its slot of a pass over ``plan`` at
    every lane count, equals ``ref_eval`` of the scan-converted ``netlist``."""
    rng = random.Random(seed)
    for lanes in LANE_COUNTS:
        patterns = [InputPattern.from_word(rng.getrandbits(g.input_count), g.input_count)
                    for _ in range(lanes)]
        words = run_pass(g, plan, patterns)
        assert len(words) == plan.size
        assert all(w >> lanes == 0 for w in words)
        for lane, p in enumerate(patterns):
            expected = ref_eval(netlist, p.bits)
            got = {g.names[n]: words[plan.slot[n]] >> lane & 1 for n in view}
            assert got == {g.names[n]: expected[g.names[n]] for n in view}, (
                lanes, lane, p.to_string())


def _assert_kernel_matches_oracle(netlist, seed):
    """Every node of a full pass, at every lane count, equals ``ref_eval``."""
    netlist = scan_convert(netlist)
    g = build_graph(netlist)
    plan = compile_ops(g)
    assert plan.size == g.node_count
    _assert_plan_matches_oracle(netlist, g, plan, range(g.node_count), seed)
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
        cone = fanin_cone(g, needed)
        _assert_plan_matches_oracle(netlist, g, compile_ops(g, needed), cone, seed=trial)


def test_pass_over_a_circuit_without_inputs():
    netlist = Netlist(name="consts", primary_outputs=["y", "z"], gates=[
        RawGate("c0", "CONST0", ()), RawGate("c1", "CONST1", ()),
        RawGate("y", "NAND", ("c1", "c0")), RawGate("b", "BUF", ("c1",)),
        RawGate("z", "XOR", ("b", "c1", "c0"))])
    g = build_graph(netlist)
    assert g.input_count == 0
    expected = ref_eval(netlist, ())
    z = g.node_id("z")
    for plan, view in ((compile_ops(g), range(g.node_count)),
                       (compile_ops(g, [z]), fanin_cone(g, [z]))):
        assert run_pass(g, plan, []) == [0] * plan.size
        for lanes in (1, 3, 64):
            words = run_pass(g, plan, [InputPattern(())] * lanes)
            for node in view:
                value = expected[g.names[node]]
                assert words[plan.slot[node]] == value * ((1 << lanes) - 1), (lanes, node)


def test_compile_ops_keeps_one_plan_per_graph_and_needed_set():
    g = build_graph(scan_convert(load_circuit("c432")))
    a, b = g.node_count - 1, g.node_count - 7
    plan = compile_ops(g, [a, b])
    assert compile_ops(g, [a, b]) is plan
    assert compile_ops(g, (b, a, b)) is plan
    other = compile_ops(g, [a])
    assert other is not plan and other.size < plan.size
    assert compile_ops(g) is compile_ops(g) is not plan
    # the memo is neither part of the graph's value nor of its repr
    fresh = build_graph(scan_convert(load_circuit("c432")))
    assert fresh == g and "plans" not in repr(g)


@pytest.mark.parametrize("node", [-1, "end"])
def test_compile_ops_raises_for_a_node_outside_the_graph_on_every_call(node):
    g = build_graph(scan_convert(load_circuit("c17")))
    if node == "end":
        node = g.node_count
    for _ in range(2):
        with pytest.raises(KeyError, match=f"target node {node} is not in graph"):
            compile_ops(g, [0, node])


# -- three-valued evaluation against exhaustive two-valued passes ------------


def _assert_ternary_sound(g, rng, lanes=24):
    """Random partial patterns, one per lane, each input 0, 1 or X: a node
    that :func:`run_ternary` calls definite has that value under every
    completion, found by one exhaustive :func:`run_pass`; a lane without X is
    definite everywhere.  Returns (definite gates, X gates) over the lanes
    that have an X."""
    width = g.input_count
    ops = compile_ops(g)
    words = run_pass(g, ops, all_patterns(width))  # lane v is the pattern v
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
    hi, lo = run_ternary(g, ops, ones, zeros, lanes)
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
        for wanted in (None, needed):
            # items address word slots; node_at reads them back as node ids
            view = range(g.node_count) if wanted is None else _reference_cone(g, wanted)
            gates = sorted(n for n in view if g.kinds[n] != "INPUT")
            plan = compile_ops(g, wanted)
            node_at = _node_at_slot(g, plan, view)
            order = [node_at[item[0]] for _, _, _, items in plan.groups for item in items]
            assert sorted(order) == gates  # every cone gate exactly once, nothing else
            position = {node: i for i, node in enumerate(order)}
            for _, arity, _, items in plan.groups:
                for slot, *src_slots in items:
                    node, srcs = node_at[slot], [node_at[s] for s in src_slots]
                    assert tuple(srcs) == g.fanins[node] and len(srcs) == arity
                    assert all(g.kinds[s] == "INPUT" or position[s] < position[node]
                               for s in srcs)
        patterns = [InputPattern.from_word(rng.getrandbits(g.input_count), g.input_count)
                    for _ in range(rng.choice(LANE_COUNTS))]
        plan = compile_ops(g, needed)
        words = run_pass(g, plan, patterns)
        cone = _reference_cone(g, needed)
        assert len(words) == plan.size  # no word for a node outside the cone
        for lane, p in enumerate(patterns):
            expected = ref_eval(netlist, p.bits)
            for node in cone | set(range(g.input_count)):
                assert words[plan.slot[node]] >> lane & 1 == expected[g.names[node]]
