"""Gate-wise Tseitin translation of a circuit graph into CNF.

Literals are nonzero signed integers in the DIMACS convention: ``v`` is the
positive literal of variable ``v >= 1`` and ``-v`` its negation.  Every graph
node gets exactly one variable, assigned in topological order so that the
primary inputs occupy variables ``1..I`` in declaration order.  Wide XOR and
XNOR gates are chained through fresh helper variables that have no node
mapping.  The satisfying assignments of the result, projected onto the node
variables, are exactly the consistent circuit valuations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import CircuitGraph

Clause = tuple[int, ...]


@dataclass
class CnfFormula:
    """CNF clauses plus the bidirectional node/variable map."""

    clauses: list[Clause]
    var_count: int
    node_to_var: dict[int, int]
    var_to_node: dict[int, int]
    input_vars: list[int] = field(default_factory=list)
    node_names: dict[int, str] = field(default_factory=dict)

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


def encode(graph: CircuitGraph) -> CnfFormula:
    """Encode a circuit graph as an equisatisfiable CNF formula.

    Clause schemata per gate with k fanins: NOT/BUF 2 clauses, AND/NAND/OR/NOR
    k+1 clauses, XOR/XNOR a chain of 2-input stages with 4 clauses each,
    constants a single unit clause.  Pure and deterministic: the same graph
    always yields the same formula.
    """
    topo = graph.topo_order
    kinds = graph.kinds
    fanins = graph.fanins
    node_to_var = dict(zip(topo, range(1, len(topo) + 1)))
    # var_of, the clauses and var_to_node share node_to_var's int objects
    var_of = [0] * graph.node_count
    for node, var in node_to_var.items():
        var_of[node] = var
    next_var = graph.node_count + 1

    clauses: list[Clause] = []
    append = clauses.append
    for node in topo:
        kind = kinds[node]
        if kind == "INPUT":
            continue
        y = var_of[node]
        srcs = fanins[node]
        if kind == "AND" or kind == "NAND":
            # y <-> AND(fanins); NAND is the same schema with y negated
            if kind == "NAND":
                y = -y
            wide = [y]
            for src in srcs:
                a = var_of[src]
                append((-y, a))
                wide.append(-a)
            append(tuple(wide))
        elif kind == "OR" or kind == "NOR":
            # y <-> OR(fanins); NOR likewise negates y
            if kind == "NOR":
                y = -y
            wide = [-y]
            for src in srcs:
                a = var_of[src]
                append((y, -a))
                wide.append(a)
            append(tuple(wide))
        elif kind == "XOR" or kind == "XNOR":
            # a k-ary parity is a chain of 2-input stages through fresh
            # helpers; the last stage drives y (negated for XNOR)
            a = var_of[srcs[0]]
            for src in srcs[1:-1]:
                b = var_of[src]
                h = next_var
                next_var += 1
                clauses += ((-h, a, b), (-h, -a, -b), (h, -a, b), (h, a, -b))
                a = h
            b = var_of[srcs[-1]]
            if kind == "XNOR":
                y = -y
            clauses += ((-y, a, b), (-y, -a, -b), (y, -a, b), (y, a, -b))
        elif kind == "NOT":
            a = var_of[srcs[0]]
            append((y, a))
            append((-y, -a))
        elif kind == "BUF":
            a = var_of[srcs[0]]
            append((-y, a))
            append((y, -a))
        elif kind == "CONST0":
            append((-y,))
        elif kind == "CONST1":
            append((y,))
        else:
            raise ValueError(f"cannot encode node kind {kind!r}")

    return CnfFormula(
        clauses=clauses,
        var_count=next_var - 1,
        node_to_var=node_to_var,
        var_to_node=dict(zip(node_to_var.values(), topo)),
        input_vars=[var_of[n] for n in graph.primary_inputs],
        node_names=dict(enumerate(graph.names)),
    )


def write_dimacs(formula: CnfFormula, assumptions: list[int] = ()) -> str:
    """Serialize to DIMACS CNF; assumptions become trailing unit clauses.

    Node map comments (``c node <name> = var <k>``) precede the header, in
    variable order.
    """
    lines = []
    for var in sorted(formula.var_to_node):
        node = formula.var_to_node[var]
        name = formula.node_names.get(node, f"node{node}")
        lines.append(f"c node {name} = var {var}")
    lines.append(f"p cnf {formula.var_count} {formula.clause_count + len(assumptions)}")
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    for lit in assumptions:
        lines.append(f"{lit} 0")
    return "\n".join(lines) + "\n"
