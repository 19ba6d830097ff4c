"""Levelized simulation of circuit graphs, any number of patterns per pass.

One plan serves all simulation.  :func:`compile_ops` turns a graph's gates,
optionally only the fan-in cone of the nodes a caller needs, into a
:class:`Plan`: the gates grouped by level, op, inversion and fanin count, the
groups in level order, each kind's op and inversion read from
:data:`~gatefuzz.netlist.GATE_OPS`.  :func:`run_pass` evaluates a plan
two-valued over Python-int words, where lane ``j`` of a node's word is that
node's value under pattern ``j``.  Python ints have no fixed width, so one
pass holds as many patterns as the caller gives it; callers with long pattern
lists split them into passes themselves.  :func:`simulate` is the one-lane
call.  Scan conversion guarantees the graph is combinational, so every node
of a total pattern gets a definite 0/1.

A plan addresses word slots, not node ids, and ``plan.slot`` maps a node id
to its slot.  The slots of a cone plan are dense: the primary inputs keep
slots ``0..input_count-1`` and the cone's gates follow in plan order, so a
pass allocates ``plan.size`` words for the cone alone, however large the
graph.  The full plan's ``slot`` is the identity (a ``range``), so
:func:`simulate` and full-graph passes index their words by node id.  A graph
never changes, so a plan is a function of the graph and the needed node set:
:func:`compile_ops` keeps every plan it builds on the graph
(``CircuitGraph.plans``), keyed by that set, and generation, every CGF trial
and every measurement over one target set share one plan.

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
unpacked by arity into a loop body of one expression; a non-inverted 1- or
2-input body does no XOR at all, so a BUF is a copy.  A gate's level is one
more than its deepest fanin's, so a level-sorted plan is topological and the
gates of one level can run in any order.  Every topological order gives the
same words.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import reduce
from operator import and_, or_
from types import MappingProxyType
from typing import NamedTuple

from .graph import CircuitGraph
from .netlist import GATE_OPS
from .pattern import InputPattern

# AND is a definite 1 when every fanin is and a definite 0 when any fanin is:
# on the 0 rail it is an OR, and OR is an AND there
_DUAL = {and_: or_, or_: and_}


class SimulationError(ValueError):
    pass


class Plan(NamedTuple):
    """Gates grouped for evaluation, over word slots instead of node ids.

    ``groups`` holds ``(op, arity, inverted, items)`` in level order: the
    gates of one level with one kind, so one op and inversion, and one fanin
    count; an item is ``(slot, *fanin slots)``.  ``slot`` maps a node id to
    its slot, and a pass allocates ``size`` words.  Plans are shared through
    the graph's memo, so nothing in one may change.
    """

    groups: tuple
    slot: range | Mapping[int, int]
    size: int


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


def compile_ops(graph: CircuitGraph, needed=None) -> Plan:
    """The plan of the fan-in cone of ``needed``, or of every gate when it is None.

    Plans are memoized on the graph, keyed by the needed node set, so every
    call with the same set, in any order, returns the same object; they live
    as long as the graph, one per set ever asked for.  A needed node outside
    ``0..node_count-1`` raises :class:`KeyError`, on every call.
    """
    key = None if needed is None else frozenset(needed)
    plan = graph.plans.get(key)
    if plan is None:
        plan = graph.plans[key] = _build_plan(graph, key)
    return plan


def _build_plan(graph: CircuitGraph, needed) -> Plan:
    """The uncached body of :func:`compile_ops`."""
    if needed is None:
        nodes = range(graph.node_count)
    else:
        for node in needed:
            if not 0 <= node < graph.node_count:
                raise KeyError(f"target node {node} is not in graph {graph.name!r}")
        nodes = sorted(fanin_cone(graph, needed))  # slots that do not hang on set order
    kinds, fanins, levels = graph.kinds, graph.fanins, graph.levels
    groups: dict[tuple, list[int]] = {}
    for node in nodes:
        if kinds[node] != "INPUT":
            key = (levels[node], kinds[node], len(fanins[node]))
            group = groups.get(key)
            if group is None:
                group = groups[key] = []
            group.append(node)
    order = sorted(groups)
    if needed is None:
        slot = range(graph.node_count)
    else:  # the inputs keep their ids, and the gates follow in plan order
        slot = dict(zip(range(graph.input_count), range(graph.input_count)))
        for key in order:
            for node in groups[key]:
                slot[node] = len(slot)
    at = slot.__getitem__
    plan = []
    for key in order:
        op, inverted = GATE_OPS[key[1]]
        items = tuple([(at(node), *map(at, fanins[node])) for node in groups[key]])
        plan.append((op, key[2], inverted, items))
    if needed is not None:
        slot = MappingProxyType(slot)  # the plan is shared by every caller
    return Plan(tuple(plan), slot, len(slot))


def run_pass(graph: CircuitGraph, plan: Plan, patterns) -> list[int]:
    """Evaluate ``plan`` under every pattern at once; returns words by slot.

    Lane ``j`` of ``words[plan.slot[n]]`` is node ``n`` under ``patterns[j]``;
    only the full plan's slots are the node ids.
    """
    width = graph.input_count
    for p in patterns:
        if p.width != width:
            raise SimulationError(
                f"pattern has {p.width} bits, circuit has {width} inputs")
    words = [0] * plan.size
    if patterns:
        # the pattern strings, last lane first: every width-th character from
        # i on is input i's word
        text = "".join([p.to_string() for p in reversed(patterns)])
        for i in range(width):  # input i is slot i
            words[i] = int(text[i::width], 2)
    mask = (1 << len(patterns)) - 1
    for op, arity, inverted, items in plan.groups:
        x = mask if inverted else 0
        if arity == 2:
            if inverted:
                if op is and_:
                    for n, a, b in items:
                        words[n] = words[a] & words[b] ^ x
                elif op is or_:
                    for n, a, b in items:
                        words[n] = (words[a] | words[b]) ^ x
                else:
                    for n, a, b in items:
                        words[n] = words[a] ^ words[b] ^ x
            elif op is and_:
                for n, a, b in items:
                    words[n] = words[a] & words[b]
            elif op is or_:
                for n, a, b in items:
                    words[n] = words[a] | words[b]
            else:
                for n, a, b in items:
                    words[n] = words[a] ^ words[b]
        elif arity == 1:  # one-input parity: NOT, or BUF as a copy
            if inverted:
                for n, a in items:
                    words[n] = words[a] ^ x
            else:
                for n, a in items:
                    words[n] = words[a]
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


def run_ternary(graph: CircuitGraph, plan: Plan, ones, zeros, lanes: int):
    """Evaluate ``plan`` three-valued over ``lanes`` partial patterns.

    Lane ``j`` of ``ones[i]`` (``zeros[i]``) is set when input ``i`` is a
    definite 1 (0) in pattern ``j``, and input ``i`` is X where neither is.
    Returns ``(ones, zeros)`` lists by slot in the same form.
    """
    hi = list(ones) + [0] * (plan.size - len(ones))
    lo = list(zeros) + [0] * (plan.size - len(zeros))
    mask = (1 << lanes) - 1
    for op, _, inverted, items in plan.groups:
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
