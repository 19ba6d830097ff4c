"""Target sites and states: the spec, its text form, and its cut.

A target spec is an ordered list of (node, desired value) pairs.  A spec is
*valid* when some primary-input assignment drives every listed node to its
desired value simultaneously.  Validity is decided by generation itself
(:func:`gatefuzz.seedgen.generate`): its first solve of the formula under
the target literals, which :func:`gatefuzz.seedgen.target_formula` builds,
returns the witness pattern, or proves the state unreachable if none.
Specs come from target files (:func:`parse_targets`), which ``gatefuzz
targets-diff`` writes (:meth:`TargetSpec.to_text`) with a netlist diff's
target nodes at one value.  :func:`cut_targets` is the one place a spec
meets a graph: it checks the spec and maps it onto the cut of its fan-in
cone, on which generation, coverage and CGF work.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import CircuitGraph, cone


class TargetError(ValueError):
    """A malformed target file, or a spec entry the graph does not have."""


@dataclass
class TargetSpec:
    """Ordered (node id, desired bit) pairs."""

    entries: list[tuple[int, int]]

    def __len__(self):
        return len(self.entries)

    def nodes(self) -> list[int]:
        return [node for node, _ in self.entries]

    def to_text(self, graph: CircuitGraph) -> str:
        return "".join(f"{graph.names[node]}={bit}\n" for node, bit in self.entries)


def parse_targets(text: str, graph: CircuitGraph) -> TargetSpec:
    """Parse ``<node-name>=<0|1>`` lines; ``#`` comments and blanks ignored."""
    entries = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, value = line.rpartition("=")  # a name may hold "="
        name = name.strip()
        value = value.strip()
        if not sep or not name:
            raise TargetError(f"line {lineno}: expected <node-name>=<0|1>, got {line!r}")
        if value not in ("0", "1"):
            raise TargetError(f"line {lineno}: desired value must be 0 or 1, got {value!r}")
        if name not in graph.name_to_id:
            raise TargetError(f"line {lineno}: unknown node {name!r}")
        node = graph.name_to_id[name]
        if node in seen:
            raise TargetError(f"line {lineno}: duplicate target node {name!r}")
        seen.add(node)
        entries.append((node, int(value)))
    return TargetSpec(entries=entries)


def cut_targets(graph: CircuitGraph, spec: TargetSpec):
    """``(cut, targets)``: the cut graph of the fan-in cone of ``spec``'s
    nodes (:func:`~gatefuzz.graph.cone`) and ``spec``'s entries in its ids.
    The first entry whose node is not one of ``graph``'s, or whose value is
    not 0 or 1, raises :class:`TargetError`."""
    for node, value in spec.entries:
        if not 0 <= node < graph.node_count:
            raise TargetError(f"target node {node} is not in graph {graph.name!r}")
        if value not in (0, 1):
            raise TargetError(f"target node {node}: desired value {value!r} is not 0 or 1")
    cut, new_id = cone(graph, spec.nodes())
    return cut, [(new_id[node], value) for node, value in spec.entries]
