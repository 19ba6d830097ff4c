"""Levelized DAG view of a scan-converted netlist.

Nodes are dense integer ids covering every primary input, constant and gate
output.  The graph is immutable after construction and carries a topological
order (primary inputs first, in declaration order) plus per-node levels.
Structural diffs between two graphs drive automatic target selection.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

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
    primary_inputs: list[int]
    primary_outputs: list[int]
    name_to_id: dict[str, int]  # inverse of ``names``
    topo_order: list[int] = field(default_factory=list)
    levels: list[int] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.names)

    @property
    def input_count(self) -> int:
        return len(self.primary_inputs)

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

    topo, levels = _levelize(names, fanins)
    return CircuitGraph(
        name=netlist.name,
        names=names,
        kinds=kinds,
        fanins=fanins,
        primary_inputs=list(range(n_inputs)),
        primary_outputs=[ids[po] for po in netlist.primary_outputs],
        name_to_id=ids,
        topo_order=topo,
        levels=levels,
    )


def _levelize(names, fanins):
    """Topological order (smallest-id-first Kahn) and per-node levels.

    When every node reads only lower ids, as in netlists declared in
    topological order, Kahn's algorithm pops the ids in order, so one pass
    computes the levels and the order is ``range(n)``.  At the first forward
    reference (a gate reading itself or a later gate) it falls back to the
    heap.
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
    return list(range(len(names))), levels


def _levelize_kahn(names, fanins):
    """Kahn topological sort (smallest-id-first) with level computation."""
    n = len(names)
    remaining = [len(f) for f in fanins]
    consumers: list[list[int]] = [[] for _ in range(n)]
    for node, srcs in enumerate(fanins):
        for src in srcs:
            consumers[src].append(node)
    ready = [i for i in range(n) if remaining[i] == 0]
    topo = []
    levels = [0] * n
    heapq.heapify(ready)
    while ready:
        node = heapq.heappop(ready)
        topo.append(node)
        if fanins[node]:
            levels[node] = 1 + max(levels[s] for s in fanins[node])
        for consumer in consumers[node]:
            remaining[consumer] -= 1
            if remaining[consumer] == 0:
                heapq.heappush(ready, consumer)
    if len(topo) != n:
        stuck = next(i for i in range(n) if remaining[i] > 0)
        raise CycleError(_trace_cycle(stuck, fanins, remaining, names))
    return topo, levels


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
    reason: dict[int, str]

    def is_empty(self) -> bool:
        return not self.changed and not self.added

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
    reason = {}
    for node in range(modified.node_count):
        name = modified.names[node]
        old = original.name_to_id.get(name)
        if old is None:
            added.append(node)
            reason[node] = "new-node"
            continue
        if modified.kinds[node] != original.kinds[old]:
            changed.append(node)
            reason[node] = "kind-changed"
            continue
        new_fanin = Counter(modified.names[s] for s in modified.fanins[node])
        old_fanin = Counter(original.names[s] for s in original.fanins[old])
        if new_fanin != old_fanin:
            changed.append(node)
            reason[node] = "fanin-changed"
    return GraphDiff(changed=changed, added=added, reason=reason)


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
