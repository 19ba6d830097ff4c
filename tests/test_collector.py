"""The parsers, graph build and encoding run with the cyclic collector paused.

They make only acyclic containers, so a pause costs nothing; these tests
check that premise and that each paused function leaves the collector as it
found it, on success and on each kind of error.  A graph's memos are acyclic
too, so a dropped graph is freed without the collector.
"""

import gc
import random

import pytest

from gatefuzz.bench import parse_bench, write_bench
from gatefuzz.blif import parse_blif
from gatefuzz.cnf import encode
from gatefuzz.graph import CycleError, build_graph, cone
from gatefuzz.netlist import (Netlist, NetlistError, NetlistSyntaxError, RawGate, gc_paused,
                              scan_convert)
from gatefuzz.pattern import InputPattern
from gatefuzz.simulate import run_pass

from conftest import every_arity_netlist, random_netlist


@pytest.fixture
def collector():
    """Restores the collector's state after the test, whatever the test left."""
    enabled = gc.isenabled()
    try:
        yield
    finally:
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


def test_the_front_end_makes_no_cyclic_garbage(collector):
    # the premise of the pause: with the collector off throughout, parsing,
    # scan conversion, graph build and encoding leave nothing a collection
    # could free once their results are dropped
    rng = random.Random(17)
    texts = [write_bench(random_netlist(rng, rng.randint(1, 12), rng.randint(1, 300),
                                        with_dffs=True)) for _ in range(20)]
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
