"""Independent references used as oracles by the tests.

:func:`ref_eval` is the simulator's oracle.  It deliberately shares no code
with gatefuzz.simulate: it evaluates a Netlist (not a CircuitGraph) by
memoized recursion over signal names, with gate semantics written as plain
truth functions.

:func:`heap_levelize` is the levelization oracle: smallest-id-first Kahn over
a heap, whose levels ``build_graph`` must produce.  :func:`trace_cycle` names
the cycle ``build_graph`` must report on a cyclic graph, by a walk over the
nodes that Kahn leaves unordered.
"""

import heapq

GATE_FUNCS = {
    "AND": lambda ins: int(all(ins)),
    "NAND": lambda ins: int(not all(ins)),
    "OR": lambda ins: int(any(ins)),
    "NOR": lambda ins: int(not any(ins)),
    "XOR": lambda ins: sum(ins) % 2,
    "XNOR": lambda ins: (sum(ins) + 1) % 2,
    "NOT": lambda ins: 1 - ins[0],
    "BUF": lambda ins: ins[0],
    "CONST0": lambda ins: 0,
    "CONST1": lambda ins: 1,
}


def ref_eval(netlist, input_bits):
    """Map signal name -> value for a combinational netlist."""
    driver = {g.output: g for g in netlist.gates}
    values = dict(zip(netlist.primary_inputs, input_bits))

    def value_of(name):
        if name in values:
            return values[name]
        gate = driver[name]
        result = GATE_FUNCS[gate.kind]([value_of(s) for s in gate.inputs])
        values[name] = result
        return result

    for g in netlist.gates:
        value_of(g.output)
    return values


def heap_levelize(fanins):
    """(topological order, levels) by smallest-id-first Kahn over a heap.

    On a cyclic graph the order stops short of the node count.
    """
    n = len(fanins)
    remaining = [len(f) for f in fanins]
    consumers = [[] for _ in range(n)]
    for node, srcs in enumerate(fanins):
        for src in srcs:
            consumers[src].append(node)
    ready = [i for i in range(n) if remaining[i] == 0]
    heapq.heapify(ready)
    topo = []
    levels = [0] * n
    while ready:
        node = heapq.heappop(ready)
        topo.append(node)
        if fanins[node]:
            levels[node] = 1 + max(levels[s] for s in fanins[node])
        for consumer in consumers[node]:
            remaining[consumer] -= 1
            if remaining[consumer] == 0:
                heapq.heappush(ready, consumer)
    return topo, levels


def trace_cycle(fanins):
    """The node ids of the cycle a cyclic graph is reported by.

    The nodes :func:`heap_levelize` leaves unordered are those that cannot be
    levelled.  The walk starts at the smallest of them and follows, at each
    node, the first fanin among them until a node repeats.
    """
    ordered = set(heap_levelize(fanins)[0])
    node = min(i for i in range(len(fanins)) if i not in ordered)
    path = []
    while node not in path:
        path.append(node)
        node = next(s for s in fanins[node] if s not in ordered)
    return path[path.index(node):] + [node]
