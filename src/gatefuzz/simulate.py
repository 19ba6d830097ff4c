"""Levelized simulation of circuit graphs, any number of patterns per pass.

One plan serves all simulation.  :func:`compile_ops` turns a graph's gates,
optionally only the fan-in cone of the nodes a caller needs, into a plan:
the gates grouped by level, op, inversion and fanin count, the groups in
level order, each kind's op and inversion read from
:data:`~gatefuzz.netlist.GATE_OPS`.  :func:`run_pass` evaluates a plan
two-valued over Python-int words, where lane ``j`` of a node's word is that
node's value under pattern ``j``.  Python ints have no fixed width, so one
pass holds as many patterns as the caller gives it; callers with long pattern
lists split them into passes themselves.  :func:`simulate` is the one-lane
call.  Scan conversion guarantees the graph is combinational, so every node
of a total pattern gets a definite 0/1.

:func:`run_ternary` evaluates the same plan three-valued (0, 1, X) for
partial patterns, dual-rail: each node has a word of the lanes where it is a
definite 1 and one of the lanes where it is a definite 0, and X is neither.
A gate is definite only when the definite values of its fanins force it
(a 0 into an AND, a 1 into an OR, every fanin of an XOR), so the evaluation is
conservative: a value it calls definite holds under every completion of the
X inputs, and adding X inputs never makes a value definite.  Pattern
generation uses it to lift a solver model to a cube of inputs that do not
matter to the targets.

Why grouped: a pass costs about the same per gate whether it carries 1 lane
or 64, because the time goes to the interpreter's work per gate (dispatch on
the op, a loop over the fanins, the inversion test), not to the word
operations.  Inside a group that work is done once: the op and the
inversion are fixed, and 1-, 2- and 3-input gates, nearly all gates, are
unpacked by arity into a loop body of one expression.  A gate's level is one
more than its deepest fanin's, so a level-sorted plan is topological and the
gates of one level can run in any order.  Every topological order gives the
same words.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

from .graph import CircuitGraph
from .netlist import GATE_OPS
from .pattern import InputPattern

# AND is a definite 1 when every fanin is and a definite 0 when any fanin is:
# on the 0 rail it is an OR, and OR is an AND there
_DUAL = {and_: or_, or_: and_}


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
    """The gates as a plan of groups ``(op, arity, inverted, items)`` in level order.

    A group holds the gates of one level with one kind, so one op and
    inversion, and one fanin count; an item is ``(node, *fanins)``.  With
    ``needed`` given, only the fan-in cone of those nodes is kept; a pass over
    the result leaves every other gate's word at 0.  A needed node outside
    ``0..node_count-1`` raises :class:`KeyError`.
    """
    if needed is None:
        nodes = range(graph.node_count)
    else:
        for node in needed:
            if not 0 <= node < graph.node_count:
                raise KeyError(f"target node {node} is not in graph {graph.name!r}")
        nodes = fanin_cone(graph, needed)
    kinds, fanins, levels = graph.kinds, graph.fanins, graph.levels
    groups: dict[tuple, list[tuple]] = {}
    for node in nodes:
        srcs = fanins[node]
        key = (levels[node], kinds[node], len(srcs))
        group = groups.get(key)
        if group is None:
            group = groups[key] = []
        group.append((node,) + srcs)
    plan = []
    for level, kind, arity in sorted(groups):
        if kind == "INPUT":
            continue
        op, inverted = GATE_OPS[kind]
        plan.append((op, arity, inverted, groups[level, kind, arity]))
    return plan


def run_pass(graph: CircuitGraph, ops, patterns) -> list[int]:
    """Evaluate the plan ``ops`` under every pattern at once; returns words by node id.

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
    for node, column in enumerate(zip(*rows)):  # input i is node i
        words[node] = int("".join(column), 2)
    mask = (1 << len(patterns)) - 1
    for op, arity, inverted, items in ops:
        x = mask if inverted else 0
        if arity == 2:
            if op is and_:
                for n, a, b in items:
                    words[n] = words[a] & words[b] ^ x
            elif op is or_:
                for n, a, b in items:
                    words[n] = (words[a] | words[b]) ^ x
            else:
                for n, a, b in items:
                    words[n] = words[a] ^ words[b] ^ x
        elif arity == 1:  # one-input parity
            for n, a in items:
                words[n] = words[a] ^ x
        elif arity == 3:
            if op is and_:
                for n, a, b, c in items:
                    words[n] = words[a] & words[b] & words[c] ^ x
            elif op is or_:
                for n, a, b, c in items:
                    words[n] = (words[a] | words[b] | words[c]) ^ x
            else:
                for n, a, b, c in items:
                    words[n] = words[a] ^ words[b] ^ words[c] ^ x
        else:  # constants and gates of 4 or more inputs
            start = mask if op is and_ else 0
            for n, *srcs in items:
                words[n] = reduce(op, map(words.__getitem__, srcs), start) ^ x
    return words


def run_ternary(graph: CircuitGraph, ops, ones, zeros, lanes: int):
    """Evaluate the plan ``ops`` three-valued over ``lanes`` partial patterns.

    Lane ``j`` of ``ones[i]`` (``zeros[i]``) is set when input ``i`` is a
    definite 1 (0) in pattern ``j``, and input ``i`` is X where neither is.
    Returns ``(ones, zeros)`` lists by node id in the same form; nodes that are
    neither primary inputs nor in ``ops`` read X.
    """
    hi = list(ones) + [0] * (graph.node_count - len(ones))
    lo = list(zeros) + [0] * (graph.node_count - len(zeros))
    mask = (1 << lanes) - 1
    for op, _, inverted, items in ops:
        dual = _DUAL.get(op)
        for n, *srcs in items:
            if dual:
                h = reduce(op, map(hi.__getitem__, srcs))
                z = reduce(dual, map(lo.__getitem__, srcs))
            else:  # XOR, from a definite 0: definite while every fanin is
                h, z = 0, mask
                for s in srcs:
                    h, z = h & lo[s] | z & hi[s], h & hi[s] | z & lo[s]
            hi[n], lo[n] = (z, h) if inverted else (h, z)
    return hi, lo


def simulate(graph: CircuitGraph, pattern: InputPattern) -> list[int]:
    """Evaluate all nodes under one input pattern; returns bits by node id."""
    return run_pass(graph, compile_ops(graph), [pattern])
