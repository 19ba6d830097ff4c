"""Two-valued levelized simulation of circuit graphs, any number of patterns per pass.

One kernel does all simulation.  :func:`compile_ops` flattens a graph's
topological order into a list of gate ops, optionally restricted to the
fan-in cone of the nodes a caller needs; :func:`run_pass` evaluates such a
list over Python-int words, where lane ``j`` of a node's word is that node's
value under pattern ``j``.  Python ints have no fixed width, so one pass
holds as many patterns as the caller gives it.  :func:`simulate` is the
one-lane call, :func:`simulate_batch` the all-lanes one, and
:func:`iter_batches` splits long pattern lists into passes of at most
:data:`PASS_LANES` lanes so that memory stays flat.  Scan conversion
guarantees the graph is combinational, so no X/Z handling is needed: every
node gets a definite 0/1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import CircuitGraph
from .pattern import InputPattern

# Widest pass that callers splitting a long pattern list make: a pass holds
# one word of PASS_LANES bits per simulated node.
PASS_LANES = 1024

_DIGITS = bytes.maketrans(b"\0\1", b"01")  # bit bytes -> base-2 text, last lane first

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
        if len(p) != graph.input_count:
            raise SimulationError(
                f"pattern has {len(p)} bits, circuit has {graph.input_count} inputs")
    for node, column in zip(graph.primary_inputs, zip(*(p.bits for p in patterns))):
        words[node] = int(bytes(column[::-1]).translate(_DIGITS), 2)
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


@dataclass
class SimBatch:
    """Bit-packed valuations: lane ``j`` of ``words[n]`` is pattern ``j`` at node ``n``."""

    patterns: list[InputPattern]
    words: list[int]

    @property
    def lane_count(self) -> int:
        return len(self.patterns)

    def node_bit(self, node: int, lane: int) -> int:
        return (self.words[node] >> lane) & 1

    def valuation(self, lane: int) -> list[int]:
        return [(w >> lane) & 1 for w in self.words]


def simulate_batch(graph: CircuitGraph, patterns) -> SimBatch:
    """Word-parallel simulation of all ``patterns`` in a single pass."""
    patterns = list(patterns)
    return SimBatch(patterns=patterns, words=run_pass(graph, compile_ops(graph), patterns))


def iter_batches(graph: CircuitGraph, patterns, width: int = PASS_LANES):
    """Yield SimBatch objects covering ``patterns`` in order, ``width`` lanes each."""
    patterns = list(patterns)
    ops = compile_ops(graph)
    for start in range(0, len(patterns), width):
        chunk = patterns[start:start + width]
        yield SimBatch(patterns=chunk, words=run_pass(graph, ops, chunk))


def dump_valuation(graph: CircuitGraph, valuation) -> str:
    """Debug listing: one ``name=value`` line per node, in topological order."""
    return "\n".join(f"{graph.names[n]}={valuation[n]}" for n in graph.topo_order) + "\n"
