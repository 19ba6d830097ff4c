"""Levelized DAG view of a scan-converted netlist.

Nodes are dense integer ids covering every primary input, constant and gate
output: the primary inputs are ``0..input_count-1`` in declaration order, then
the gate outputs in declaration order.  These ids are the only numbering the
pipeline uses (the CNF variable of node ``n`` is ``n + 1``).  The graph is
immutable after construction and carries per-node levels; a gate's level is
one more than its deepest fanin's, so sorting by level gives a topological
order.  Structural diffs between two graphs drive automatic target selection.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .netlist import Netlist, NetlistError


class CycleError(NetlistError):
    """Combinational cycle; carries the node names of one cycle."""

    def __init__(self, cycle_names):
        self.cycle = list(cycle_names)
        super().__init__("combinational cycle: " + " -> ".join(self.cycle))


@dataclass
class CircuitGraph:
    """Immutable levelized circuit DAG.

    ``kinds[n]`` is ``"INPUT"``, ``"CONST0"``/``"CONST1"`` or a gate kind;
    ``fanins[n]`` lists the driving node ids in gate-input order.
    """

    name: str
    names: list[str]
    kinds: list[str]
    fanins: list[tuple[int, ...]]
    input_count: int  # the primary inputs are nodes 0..input_count-1
    primary_outputs: list[int]
    name_to_id: dict[str, int]  # inverse of ``names``
    levels: list[int]

    @property
    def node_count(self) -> int:
        return len(self.names)

    def node_id(self, name: str) -> int:
        try:
            return self.name_to_id[name]
        except KeyError:
            raise KeyError(f"no node named {name!r} in {self.name!r}") from None

    def max_level(self) -> int:
        return max(self.levels) if self.levels else 0


def build_graph(netlist: Netlist) -> CircuitGraph:
    """Construct the levelized DAG for a combinational netlist.

    Node ids are assigned primary inputs first (declaration order), then gate
    outputs in declaration order: the map :meth:`Netlist.validate` returns.
    Raises :class:`~gatefuzz.netlist.NetlistError` if the netlist holds a DFF
    (pass it through :func:`~gatefuzz.netlist.scan_convert` first) or is
    invalid, and :class:`CycleError` if the combinational logic is cyclic.
    """
    if netlist.has_dff:
        raise NetlistError(f"netlist {netlist.name!r} holds a DFF and must be "
                           "scan-converted before graph build")
    ids = netlist.validate()
    names = list(ids)
    gates = netlist.gates
    n_inputs = len(netlist.primary_inputs)
    kinds = ["INPUT"] * n_inputs + [g.kind for g in gates]
    node_of = ids.__getitem__
    fanins = [()] * n_inputs + [tuple(map(node_of, g.inputs)) for g in gates]

    return CircuitGraph(
        name=netlist.name,
        names=names,
        kinds=kinds,
        fanins=fanins,
        input_count=n_inputs,
        primary_outputs=[ids[po] for po in netlist.primary_outputs],
        name_to_id=ids,
        levels=_levelize(names, fanins),
    )


def _levelize(names, fanins):
    """Per-node levels.

    When every node reads only lower ids, as in netlists declared in
    topological order, one pass in id order computes them.  At the first
    forward reference (a gate reading itself or a later gate) it falls back
    to Kahn's algorithm.
    """
    levels = [0] * len(names)
    for node, srcs in enumerate(fanins):
        level = 0
        for src in srcs:
            if src >= node:
                return _levelize_kahn(names, fanins)
            if levels[src] >= level:
                level = levels[src] + 1
        levels[node] = level
    return levels


def _levelize_kahn(names, fanins):
    """Levels by Kahn's algorithm; raises :class:`CycleError` on a cycle.

    A node is levelled once all its fanins are, so neither the levels nor
    the nodes left unlevelled by a cycle depend on the order the worklist
    is drained in.
    """
    n = len(names)
    remaining = [len(f) for f in fanins]
    consumers: list[list[int]] = [[] for _ in range(n)]
    for node, srcs in enumerate(fanins):
        for src in srcs:
            consumers[src].append(node)
    ready = [i for i in range(n) if remaining[i] == 0]
    levelled = 0
    levels = [0] * n
    while ready:
        node = ready.pop()
        levelled += 1
        if fanins[node]:
            levels[node] = 1 + max(levels[s] for s in fanins[node])
        for consumer in consumers[node]:
            remaining[consumer] -= 1
            if remaining[consumer] == 0:
                ready.append(consumer)
    if levelled != n:
        stuck = next(i for i in range(n) if remaining[i] > 0)
        raise CycleError(_trace_cycle(stuck, fanins, remaining, names))
    return levels


def _trace_cycle(start, fanins, remaining, names):
    """Walk unresolved fanins from a stuck node until a node repeats."""
    path = [start]
    seen = {start: 0}
    node = start
    while True:
        node = next(s for s in fanins[node] if remaining[s] > 0)
        if node in seen:
            cycle = path[seen[node]:] + [node]
            return [names[i] for i in cycle]
        seen[node] = len(path)
        path.append(node)


@dataclass
class GraphDiff:
    """Structural difference between two graphs, keyed into the modified one."""

    changed: list[int]
    added: list[int]

    def target_nodes(self) -> list[int]:
        return sorted(set(self.changed) | set(self.added))


def diff_graphs(original: CircuitGraph, modified: CircuitGraph) -> GraphDiff:
    """Name-matched structural diff.

    A node present in both graphs is ``changed`` when its kind differs or the
    multiset of its fanin names differs; nodes only in ``modified`` are
    ``added``.  Nodes deleted from ``original`` are ignored.
    """
    changed = []
    added = []
    for node in range(modified.node_count):
        name = modified.names[node]
        old = original.name_to_id.get(name)
        if old is None:
            added.append(node)
        elif modified.kinds[node] != original.kinds[old]:
            changed.append(node)
        elif (Counter(modified.names[s] for s in modified.fanins[node])
              != Counter(original.names[s] for s in original.fanins[old])):
            changed.append(node)
    return GraphDiff(changed=changed, added=added)


def to_dot(graph: CircuitGraph) -> str:
    """GraphViz DOT rendering with name and kind labels."""
    lines = [f'digraph "{graph.name}" {{', "  rankdir=LR;"]
    for node in range(graph.node_count):
        shape = "box" if graph.kinds[node] == "INPUT" else "ellipse"
        lines.append(f'  n{node} [label="{graph.names[node]}\\n{graph.kinds[node]}" shape={shape}];')
    for node, srcs in enumerate(graph.fanins):
        for src in srcs:
            lines.append(f"  n{src} -> n{node};")
    lines.append("}")
    return "\n".join(lines) + "\n"
