"""Two-valued levelized simulation of circuit graphs, any number of patterns per pass.

One kernel does all simulation.  :func:`compile_ops` flattens a graph's
topological order into a list of gate ops, optionally restricted to the
fan-in cone of the nodes a caller needs; :func:`run_pass` evaluates such a
list over Python-int words, where lane ``j`` of a node's word is that node's
value under pattern ``j``.  Python ints have no fixed width, so one pass
holds as many patterns as the caller gives it; callers with long pattern
lists split them into passes themselves.  :func:`simulate` is the one-lane
call.  Scan conversion guarantees the graph is combinational, so no X/Z
handling is needed: every node gets a definite 0/1.
"""

from __future__ import annotations

from .graph import CircuitGraph
from .pattern import InputPattern

_AND, _OR, _XOR = 0, 1, 2

# kind -> (op, inverted).  NOT and BUF are one-input XNOR and XOR; CONST1 and
# CONST0 are zero-input XNOR and XOR.
_OPS = {
    "AND": (_AND, False), "NAND": (_AND, True),
    "OR": (_OR, False), "NOR": (_OR, True),
    "XOR": (_XOR, False), "XNOR": (_XOR, True),
    "BUF": (_XOR, False), "NOT": (_XOR, True),
    "CONST0": (_XOR, False), "CONST1": (_XOR, True),
}


class SimulationError(ValueError):
    pass


def fanin_cone(graph: CircuitGraph, nodes) -> set[int]:
    """The given nodes and every node they transitively read."""
    cone = set(nodes)
    stack = list(cone)
    while stack:
        for src in graph.fanins[stack.pop()]:
            if src not in cone:
                cone.add(src)
                stack.append(src)
    return cone


def compile_ops(graph: CircuitGraph, needed=None) -> list[tuple]:
    """Gate ops ``(node, op, fanins, inverted)`` in topological order.

    With ``needed`` given, only the fan-in cone of those nodes is kept; a
    pass over the result leaves every other gate's word at 0.
    """
    order = graph.topo_order
    if needed is not None:
        cone = fanin_cone(graph, needed)
        order = [node for node in order if node in cone]
    ops = []
    for node in order:
        kind = graph.kinds[node]
        if kind == "INPUT":
            continue
        if kind not in _OPS:
            raise SimulationError(f"cannot simulate node kind {kind!r}")
        op, inverted = _OPS[kind]
        ops.append((node, op, graph.fanins[node], inverted))
    return ops


def run_pass(graph: CircuitGraph, ops, patterns) -> list[int]:
    """Evaluate ``ops`` under every pattern at once; returns words by node id.

    Lane ``j`` of ``words[n]`` is node ``n`` under ``patterns[j]``; nodes that
    are neither primary inputs nor in ``ops`` read 0.
    """
    words = [0] * graph.node_count
    for p in patterns:
        if p.width != graph.input_count:
            raise SimulationError(
                f"pattern has {p.width} bits, circuit has {graph.input_count} inputs")
    # character i of every pattern string, last lane first, is input i's word
    rows = [p.to_string() for p in reversed(patterns)]
    for node, column in zip(graph.primary_inputs, zip(*rows)):
        words[node] = int("".join(column), 2)
    mask = (1 << len(patterns)) - 1
    for node, op, srcs, inverted in ops:
        if op == _AND:
            acc = mask
            for src in srcs:
                acc &= words[src]
        elif op == _OR:
            acc = 0
            for src in srcs:
                acc |= words[src]
        else:
            acc = 0
            for src in srcs:
                acc ^= words[src]
        words[node] = acc ^ mask if inverted else acc
    return words


def simulate(graph: CircuitGraph, pattern: InputPattern) -> list[int]:
    """Evaluate all nodes under one input pattern; returns bits by node id."""
    return run_pass(graph, compile_ops(graph), [pattern])

