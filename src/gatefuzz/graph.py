"""Levelized DAG view of a scan-converted netlist.

Nodes are dense integer ids covering every primary input, constant and gate
output: the primary inputs are ``0..input_count-1`` in declaration order, then
the gate outputs in declaration order.  These ids are the pipeline's numbering
(the CNF variable of node ``n`` is ``n + 1``).  The graph is immutable after
construction, so it can keep what is derived from it: its simulation plan,
its CNF formula once generation has encoded it, and the cut graphs of its
fan-in cones (:func:`cone`), on which generation, CGF and coverage work.  No
memo refers back to the graph, so a dropped graph is freed by reference
counting alone.  It carries per-node levels; a gate's level is one more
than its deepest fanin's, so sorting by level gives a topological order.
Netlists may declare their gates in any order: one depth-first search over
fanins gives the levels, or names a cycle.  Graph build runs with the cyclic
garbage collector paused (:func:`~gatefuzz.netlist.gc_paused`): it makes
only lists, dicts and tuples of strings and ints, none of which refers back
to what holds it, so no collection, during the build or after it, could free
any of it, and the graph starts out in the oldest generation.  Structural
diffs between two graphs drive automatic target selection.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from .netlist import Netlist, NetlistError, gc_paused


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
    name_to_id: dict[str, int]  # inverse of ``names``
    levels: list[int]
    # memos: the cut graphs by needed node set (cone), the simulation plan,
    # and the CNF formula that generation solves (seedgen.target_formula)
    cuts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    plan: tuple | None = field(default=None, init=False, repr=False, compare=False)
    formula: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return len(self.names)

    def node_id(self, name: str) -> int:
        try:
            return self.name_to_id[name]
        except KeyError:
            raise KeyError(f"no node named {name!r} in {self.name!r}") from None


@gc_paused
def build_graph(netlist: Netlist) -> CircuitGraph:
    """Construct the levelized DAG for a combinational netlist.

    Node ids are assigned primary inputs first (declaration order), then gate
    outputs in declaration order: the map :meth:`Netlist.validate` returns,
    whose names, kinds and fanins become the graph's.  The gates may be
    declared in any order; one depth-first search over fanins levels them.
    Raises :class:`~gatefuzz.netlist.NetlistError` if the netlist holds a
    DFF (pass it through :func:`~gatefuzz.netlist.scan_convert` first),
    ahead of any other violation, or is invalid, and :class:`CycleError`,
    naming the cycle the search closed, if the combinational logic is
    cyclic.  The DFF is found among the kinds that validation read, so the
    gates are scanned for one only when validation fails.
    """
    try:
        ids = netlist.validate()
    except NetlistError:
        if not netlist.has_dff:
            raise
        ids = None
    if ids is None or ids.has_dff:
        raise NetlistError(f"netlist {netlist.name!r} holds a DFF and must be "
                           "scan-converted before graph build")
    return CircuitGraph(
        name=netlist.name,
        names=ids.names,
        kinds=ids.kinds,
        fanins=ids.fanins,
        input_count=len(netlist.primary_inputs),
        name_to_id=ids,
        levels=_levelize(ids.names, ids.fanins),
    )


def _levelize(names, fanins):
    """Per-node levels by one iterative depth-first search over fanins.

    Roots are visited in id order and a node's fanins in gate-input order.
    ``levels`` holds -1 for a node not yet reached, -2 for a node on the
    search path, and then its level, given once every fanin has one; a
    netlist declared in topological order finds every fanin levelled, so the
    search never descends.  Reaching a fanin on the search path raises
    :class:`CycleError` with the path from that fanin on: the search starts
    at the smallest id that cannot be levelled and, at each node, follows
    the first fanin that cannot.
    """
    levels = [-1] * len(fanins)
    path = []  # (node, its fanins still to read, its level so far) above ``node``
    for root, srcs in enumerate(fanins):
        if levels[root] >= 0:
            continue
        levels[root] = -2
        node, todo, level = root, iter(srcs), 0
        while True:
            for src in todo:
                src_level = levels[src]
                if src_level < 0:
                    break
                if src_level >= level:
                    level = src_level + 1
            else:
                levels[node] = level
                if not path:
                    break
                node, todo, parent_level = path.pop()
                level = max(parent_level, level + 1)
                continue
            if src_level == -2:
                on_path = [entry[0] for entry in path] + [node]
                cycle = on_path[on_path.index(src):] + [src]
                raise CycleError([names[i] for i in cycle])
            path.append((node, todo, level))
            levels[src] = -2
            node, todo, level = src, iter(fanins[src]), 0
    return levels


def fanin_cone(graph: CircuitGraph, nodes) -> set[int]:
    """The given nodes and every node they transitively read."""
    reached = set(nodes)
    stack = list(reached)
    while stack:
        for src in graph.fanins[stack.pop()]:
            if src not in reached:
                reached.add(src)
                stack.append(src)
    return reached


def cone(graph: CircuitGraph, needed):
    """``(cut, new_id)``: the cut graph of the fan-in cone of ``needed``, and
    the map from the graph's node ids to the cut's.

    The cut holds every primary input at its id, then the cone's gates in id
    order, with their names, kinds and levels; a cone of every gate is the
    graph itself, under the identity.  Cuts are memoized on the graph, keyed
    by the needed node set, so every call with the same set, in any order,
    returns the same cut; for a cone of every gate the memo holds None, not
    the graph.  Callers pass nodes of the graph, ``0..node_count-1``: a spec
    reaches it through :func:`gatefuzz.targets.cut_targets`, which checks it.
    """
    key = frozenset(needed)
    if key not in graph.cuts:
        graph.cuts[key] = _cut(graph, key)
    return graph.cuts[key] or (graph, range(graph.node_count))


def _cut(graph: CircuitGraph, needed):
    """The uncached body of :func:`cone`, None for a cone of every gate."""
    inputs = range(graph.input_count)
    gates = sorted(fanin_cone(graph, needed).difference(inputs))
    if len(gates) == graph.node_count - graph.input_count:
        return None
    old = [*inputs, *gates]
    new_id = dict(zip(old, range(len(old))))
    at = new_id.__getitem__
    names = list(map(graph.names.__getitem__, old))
    return CircuitGraph(
        name=graph.name,
        names=names,
        kinds=list(map(graph.kinds.__getitem__, old)),
        # an itemgetter of two or more keys remaps fastest, and returns a tuple
        fanins=[itemgetter(*srcs)(new_id) if len(srcs) > 1 else tuple(map(at, srcs))
                for srcs in map(graph.fanins.__getitem__, old)],
        input_count=graph.input_count,
        name_to_id=dict(zip(names, range(len(old)))),
        levels=list(map(graph.levels.__getitem__, old)),
    ), new_id


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
    """GraphViz DOT rendering with name and kind labels; names are escaped."""
    escape = str.maketrans({"\\": "\\\\", '"': '\\"'})  # inside DOT's quoted strings
    lines = [f'digraph "{graph.name.translate(escape)}" {{', "  rankdir=LR;"]
    for node in range(graph.node_count):
        shape = "box" if graph.kinds[node] == "INPUT" else "ellipse"
        label = graph.names[node].translate(escape)
        lines.append(f'  n{node} [label="{label}\\n{graph.kinds[node]}" shape={shape}];')
    for node, srcs in enumerate(graph.fanins):
        for src in srcs:
            lines.append(f"  n{src} -> n{node};")
    lines.append("}")
    return "\n".join(lines) + "\n"
