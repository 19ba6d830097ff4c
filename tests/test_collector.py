"""The parsers, graph, cut and plan builds and encoding run with the cyclic
collector paused.

They make only acyclic containers, so no collection could free what they
make; these tests check that premise and that each paused function leaves
the collector as it found it, on success and on each kind of error.  What a
paused call returns is promoted to the oldest generation, after a young
collection on entry: these tests check that the result leaves the young
generation, that a caller's young garbage cycles are still freed, that
repeated calls leave no garbage behind, and that a caller's frozen objects
or disabled collector are left alone.  A graph's memos are acyclic too, so
a dropped graph is freed without the collector.
"""

import gc
import random
import weakref
from functools import partial

import pytest

from gatefuzz.bench import _read_canonical, parse_bench, write_bench
from gatefuzz.blif import parse_blif
from gatefuzz.cnf import encode
from gatefuzz.fixtures import fixture_text
from gatefuzz.graph import CycleError, _cut, build_graph, cone
from gatefuzz.netlist import (Netlist, NetlistError, NetlistSyntaxError, RawGate, gc_paused,
                              scan_convert)
from gatefuzz.pattern import InputPattern
from gatefuzz.seedgen import target_formula
from gatefuzz.simulate import _build_plan, run_pass
from gatefuzz.targets import TargetSpec

from conftest import every_arity_netlist, random_netlist


@pytest.fixture
def collector():
    """Restores the collector's state after the test, whatever the test left,
    and thaws anything the test froze."""
    enabled = gc.isenabled()
    try:
        yield
    finally:
        gc.unfreeze()
        (gc.enable if enabled else gc.disable)()


def _and_netlist(*gates):
    return Netlist("n", ["a", "b"], ["y"], list(gates))


# (paused function, argument, the error it raises or None)
CALLS = {
    "bench": (parse_bench, "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", None),
    "bench-syntax": (parse_bench, "INPUT(a)\nwhat is this\n", NetlistSyntaxError),
    "blif": (parse_blif, ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n", None),
    "blif-syntax": (parse_blif, ".model m\n.bogus\n", NetlistSyntaxError),
    "graph": (build_graph, _and_netlist(RawGate("y", "AND", ("a", "b"))), None),
    "graph-structure": (build_graph, _and_netlist(RawGate("y", "AND", ("a", "ghost"))),
                        NetlistError),
    "graph-cycle": (build_graph, _and_netlist(RawGate("y", "AND", ("a", "u")),
                                              RawGate("u", "OR", ("y", "b"))), CycleError),
    "encode": (encode, build_graph(_and_netlist(RawGate("y", "XOR", ("a", "b")))), None),
    # the cone of y, which leaves out u, so a cut is built
    "cut": (partial(_cut, needed=[2]), build_graph(_and_netlist(
        RawGate("y", "AND", ("a", "b")), RawGate("u", "NOT", ("a",)))), None),
    "plan": (_build_plan, build_graph(_and_netlist(RawGate("y", "XOR", ("a", "b")))), None),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("call", list(CALLS))
def test_paused_function_leaves_the_collector_as_it_found_it(collector, call, enabled):
    fn, argument, error = CALLS[call]
    (gc.enable if enabled else gc.disable)()
    if error is None:
        fn(argument)
    else:
        with pytest.raises(error) as exc:
            fn(argument)
        if error is NetlistError:
            assert not isinstance(exc.value, (NetlistSyntaxError, CycleError))
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_gc_paused_disables_the_collector_only_inside(collector, enabled):
    seen = []

    @gc_paused
    def body(fail):
        seen.append(gc.isenabled())
        if fail:
            raise KeyError(fail)
        return "done"

    (gc.enable if enabled else gc.disable)()
    assert body(None) == "done"
    assert gc.isenabled() is enabled
    with pytest.raises(KeyError):
        body("fail")
    assert gc.isenabled() is enabled
    assert seen == [False, False]
    assert body.__name__ == "body"


def _general_spelling(text):
    """``text`` respelled out of write_bench's form, so that the canonical
    reader declines it and the general reader reads it."""
    spelled = text.replace(", ", " , ").replace("\n", " \n")
    assert _read_canonical(spelled) is None
    return spelled


def test_the_front_end_makes_no_cyclic_garbage(collector):
    # the premise of the pause: with the collector off throughout, parsing,
    # scan conversion, graph build and encoding leave nothing a collection
    # could free once their results are dropped; each text is read by both
    # readers, which make different temporaries
    rng = random.Random(17)
    texts = [write_bench(random_netlist(rng, rng.randint(1, 12), rng.randint(1, 300),
                                        with_dffs=True)) for _ in range(20)]
    texts += [_general_spelling(text) for text in texts]
    sequential = [every_arity_netlist(random.Random(seed)) for seed in range(5)]
    gc.collect()
    gc.disable()
    for text in texts:
        encode(build_graph(scan_convert(parse_bench(text))))
    for netlist in sequential:
        encode(build_graph(scan_convert(netlist)))
    assert gc.collect() == 0


def test_a_graph_and_its_memos_make_no_cyclic_garbage(collector):
    # the cut memo holds no reference back to the graph, not even for a cone
    # of every gate, which is the graph itself; nor does the simulation plan
    rng = random.Random(300)
    netlists = [random_netlist(rng, 12, 300) for _ in range(4)]
    gc.collect()
    gc.disable()
    for netlist in netlists:
        g = build_graph(netlist)
        whole, new_id = cone(g, range(g.node_count))
        assert whole is g and new_id == range(g.node_count)
        cone(g, [g.node_count - 1])
        run_pass(g, [InputPattern([0] * g.input_count)])
        del g, whole, new_id
    assert gc.collect() == 0


def test_a_kept_formula_makes_no_cyclic_garbage(collector):
    # generation keeps a cut's formula on the cut, the whole graph's on the
    # graph; the formula shares the graph's names but refers to no graph
    rng = random.Random(301)
    netlists = [random_netlist(rng, 12, 300) for _ in range(4)]
    gc.collect()
    gc.disable()
    for netlist in netlists:
        g = build_graph(netlist)
        for nodes in ([g.node_count - 1], range(g.input_count, g.node_count)):
            cut, _, formula, _ = target_formula(g, TargetSpec([(node, 0) for node in nodes]))
            assert cut.formula is formula
            # the same nodes at other values: the same cut, not encoded again
            assert target_formula(g, TargetSpec([(node, 1) for node in nodes]))[2] is formula
        assert g.formula is formula
        del g, cut, formula
    assert gc.collect() == 0


class Cycle:
    """An object that refers to itself, so only the collector frees it."""

    def __init__(self):
        self.me = self


def _containers(result):
    """``result`` and the tracked containers it holds, two levels down."""
    found = [result, *vars(result).values()]
    for value in list(found):
        if isinstance(value, (list, tuple)):
            found += value[:50]
    return [obj for obj in found if gc.is_tracked(obj)]


def _young_ids():
    return {id(obj) for obj in gc.get_objects(generation=0)}


# paused calls in pipeline order, each on the previous one's result
PIPELINE = [parse_bench, build_graph, encode]


def test_a_paused_call_promotes_its_result_out_of_the_young_generation(collector):
    gc.enable()
    value = fixture_text("c432.bench")
    for fn in PIPELINE:
        value = fn(value)
        containers = _containers(value)
        assert len(containers) > 10
        young = _young_ids()
        assert not [obj for obj in containers if id(obj) in young]
        oldest = {id(obj) for obj in gc.get_objects(generation=2)}
        assert all(id(obj) in oldest for obj in containers)


def test_a_callers_young_garbage_cycle_is_freed_by_the_call(collector):
    gc.enable()
    text = fixture_text("c17.bench")
    for fn, argument in [(parse_bench, text), (build_graph, parse_bench(text))]:
        gc.collect()  # the young count starts at 0, so no collection runs before the call
        cycle = Cycle()
        ref = weakref.ref(cycle)
        del cycle
        assert ref() is not None
        fn(argument)
        assert ref() is None


def test_repeated_calls_leave_no_garbage_behind(collector):
    # without the young collection on entry, each promotion would carry the
    # cycle made before it into the oldest generation, which a loop that
    # makes nothing else never collects; the calls alternate between the
    # two readers
    gc.enable()
    text = fixture_text("c432.bench")
    texts = (text, _general_spelling(text))
    gc.collect()
    before = len(gc.get_objects())
    for i in range(20_000):
        Cycle()
        build_graph(parse_bench(texts[i % 2]))
    assert len(gc.get_objects()) - before < 100


def test_a_callers_frozen_objects_stay_frozen(collector):
    gc.enable()
    frozen = Cycle()
    gc.freeze()
    count = gc.get_freeze_count()
    assert count > 0
    text = fixture_text("c17.bench")
    ref = weakref.ref(Cycle())  # freeze zeroed the young count, so no collection frees it
    netlist = parse_bench(text)
    # neither collected on entry nor promoted on return
    assert ref() is not None
    young = _young_ids()
    assert all(id(obj) in young for obj in _containers(netlist))
    assert gc.isenabled()
    assert gc.get_freeze_count() == count
    # get_objects lists the three generations, not the frozen objects
    assert gc.is_tracked(frozen) and not any(obj is frozen for obj in gc.get_objects())


def test_a_callers_disabled_collector_is_neither_run_nor_promoted_into(collector):
    gc.disable()
    ref = weakref.ref(Cycle())
    value = fixture_text("c17.bench")
    for fn in PIPELINE:
        value = fn(value)
        assert not gc.isenabled()
        assert ref() is not None
        young = _young_ids()
        assert all(id(obj) in young for obj in _containers(value))
