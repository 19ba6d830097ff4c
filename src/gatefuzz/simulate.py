"""Levelized simulation of circuit graphs, any number of patterns per pass.

One plan per graph serves all simulation: the graph's gates grouped by level,
op, inversion and fanin count, the groups in level order, each kind's op and
inversion read from :data:`~gatefuzz.netlist.GATE_OPS`.  A graph never
changes, so the plan is built on first use, with the cyclic collector paused
(:func:`~gatefuzz.netlist.gc_paused`), and kept on the graph
(``CircuitGraph.plan``); no other module sees it.  :func:`run_words` is the
one two-valued kernel: it takes the patterns as packed input words (an
:class:`~gatefuzz.pattern.InputPattern`'s ``word``, the first input its top
bit) and evaluates the graph over Python-int words, where lane ``j`` of
``words[n]`` is node ``n``'s value under pattern ``j``.  :func:`run_pass`
checks each pattern's width and feeds the kernel the patterns' words, and
:func:`simulate` is the one-lane call.  Python ints have no fixed width, so
one pass holds as many patterns as the caller gives it; callers with long
pattern lists split them into passes themselves.  Scan conversion guarantees
the graph is combinational, so every node of a total pattern gets a definite
0/1.

Callers that need only the targets' fan-in cone simulate its cut graph
(:func:`~gatefuzz.graph.cone`), so a pass holds words for the cone alone, and
every caller over one target set shares the cut and its plan.

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
or 30, because the time goes to the interpreter's work per gate (dispatch on
the op, a loop over the fanins, the inversion test), not to the word
operations.  (A word of 31 or more lanes spans two 30-bit CPython digits,
and a pass then costs about a third more.)  Inside a group that work is done
once: the op and the inversion are fixed, and 1-, 2- and 3-input gates,
nearly all gates, are unpacked by arity into a loop body of one expression;
a non-inverted 1- or 2-input body does no XOR at all, so a BUF is a copy.
:func:`run_ternary`
is unrolled the same way, with one body of two expressions, one per rail,
for AND and OR at 2 and 3 fanins and for parity at 1 and 2 (BUF and NOT are
copies).  An inverted group writes the gate's 1-rail into the 0-rail list
and its 0-rail into the 1-rail list, chosen once per group.  Its generic
loop, a fold over the fanins, serves only constants, parity over 3 or more
fanins and gates of 4 or more inputs, none of which c432's target cut holds.
A gate's level is one more than its deepest fanin's, so a level-sorted plan
is topological and the gates of one level can run in any order.  Every
topological order gives the same words.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from operator import and_, or_

from .graph import CircuitGraph
from .netlist import GATE_OPS, gc_paused
from .pattern import InputPattern

# AND is a definite 1 when every fanin is and a definite 0 when any fanin is:
# on the 0 rail it is an OR, and OR is an AND there
_DUAL = {and_: or_, or_: and_}


class SimulationError(ValueError):
    pass


def _plan(graph: CircuitGraph) -> tuple:
    """The graph's gates grouped for evaluation, built once and kept on it:
    ``(op, arity, inverted, items)`` in level order, one per level, kind (so
    op and inversion) and fanin count, the items ``(node, *fanins)`` in id
    order."""
    plan = graph.plan
    if plan is None:
        plan = graph.plan = _build_plan(graph)
    return plan


@gc_paused
def _build_plan(graph: CircuitGraph) -> tuple:
    """The uncached body of :func:`_plan`."""
    kinds, fanins, levels = graph.kinds, graph.fanins, graph.levels
    groups: dict[tuple, list[tuple]] = defaultdict(list)
    for node in range(graph.input_count, graph.node_count):  # the gates
        srcs = fanins[node]
        groups[levels[node], kinds[node], len(srcs)].append((node, *srcs))
    plan = []
    for key in sorted(groups):
        op, inverted = GATE_OPS[key[1]]
        plan.append((op, key[2], inverted, tuple(groups[key])))
    return tuple(plan)


def run_pass(graph: CircuitGraph, patterns) -> list[int]:
    """Evaluate ``graph`` under every pattern at once; returns words by node id.

    Lane ``j`` of ``words[n]`` is node ``n`` under ``patterns[j]``.
    """
    width = graph.input_count
    for p in patterns:
        if p.width != width:
            raise SimulationError(
                f"pattern has {p.width} bits, circuit has {width} inputs")
    return run_words(graph, [p.word for p in patterns])


def run_words(graph: CircuitGraph, patterns: list[int]) -> list[int]:
    """:func:`run_pass` on packed patterns: ``patterns[j]`` is a word of
    ``graph.input_count`` bits whose top bit is the first input.  The widths
    are the caller's to check."""
    width = graph.input_count
    words = [0] * graph.node_count
    if patterns and width:
        # the patterns in base 2, last lane first: every width-th character
        # from i on is input i's word
        form = f"0{width}b"
        text = "".join([format(p, form) for p in reversed(patterns)])
        for i in range(width):
            words[i] = int(text[i::width], 2)
    mask = (1 << len(patterns)) - 1
    for op, arity, inverted, items in _plan(graph):
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


def run_ternary(graph: CircuitGraph, ones, zeros, lanes: int):
    """Evaluate ``graph`` three-valued over ``lanes`` partial patterns.

    Lane ``j`` of ``ones[i]`` (``zeros[i]``) is set when input ``i`` is a
    definite 1 (0) in pattern ``j``, and input ``i`` is X where neither is;
    no word holds a lane at or above ``lanes``.  Returns ``(ones, zeros)``
    lists by node id in the same form.
    """
    hi = list(ones) + [0] * (graph.node_count - len(ones))
    lo = list(zeros) + [0] * (graph.node_count - len(zeros))
    mask = (1 << lanes) - 1
    for op, arity, inverted, items in _plan(graph):
        # the rails that take the gate's uninverted 1 and 0
        to1, to0 = (lo, hi) if inverted else (hi, lo)
        if arity == 2:
            if op is and_:
                for n, a, b in items:
                    to1[n] = hi[a] & hi[b]
                    to0[n] = lo[a] | lo[b]
            elif op is or_:
                for n, a, b in items:
                    to1[n] = hi[a] | hi[b]
                    to0[n] = lo[a] & lo[b]
            else:  # XOR: definite where both fanins are
                for n, a, b in items:
                    ha, la, hb, lb = hi[a], lo[a], hi[b], lo[b]
                    to1[n] = ha & lb | la & hb
                    to0[n] = ha & hb | la & lb
        elif arity == 1:  # one-input parity: BUF, or NOT with the rails swapped
            for n, a in items:
                to1[n] = hi[a]
                to0[n] = lo[a]
        elif arity == 3 and op is and_:
            for n, a, b, c in items:
                to1[n] = hi[a] & hi[b] & hi[c]
                to0[n] = lo[a] | lo[b] | lo[c]
        elif arity == 3 and op is or_:
            for n, a, b, c in items:
                to1[n] = hi[a] | hi[b] | hi[c]
                to0[n] = lo[a] & lo[b] & lo[c]
        else:  # constants, parity over 3 or more fanins, gates of 4 or more inputs
            dual = _DUAL.get(op)
            for n, *srcs in items:
                if dual:
                    h = reduce(op, map(hi.__getitem__, srcs))
                    z = reduce(dual, map(lo.__getitem__, srcs))
                else:  # XOR, from a definite 0: definite while every fanin is
                    h, z = 0, mask
                    for s in srcs:
                        h, z = h & lo[s] | z & hi[s], h & hi[s] | z & lo[s]
                to1[n], to0[n] = h, z
    return hi, lo


def simulate(graph: CircuitGraph, pattern: InputPattern) -> list[int]:
    """Evaluate all nodes under one input pattern; returns bits by node id."""
    return run_pass(graph, [pattern])
