"""Gate-wise Tseitin translation of a circuit graph into CNF.

Literals are nonzero signed integers in the DIMACS convention: ``v`` is the
positive literal of variable ``v >= 1`` and ``-v`` its negation.  The graph's
node ids are the only numbering: node ``n`` is variable ``n + 1``
(:meth:`CnfFormula.node_var`), so the primary inputs, nodes ``0..I-1``,
occupy variables ``1..I`` in declaration order.  The clause schemata follow
the op in :data:`~gatefuzz.netlist.GATE_OPS`, not the kind; parity over 2 or
more fanins is chained through fresh helpers numbered after the nodes, which
stand for no node.  The satisfying assignments of the result, projected onto
the node variables, are exactly the consistent circuit valuations.  Encoding
runs with the cyclic garbage collector paused
(:func:`~gatefuzz.netlist.gc_paused`): a formula is a list of tuples of ints,
so no collection, during encoding or after it, could free any of it, and it
starts out in the oldest generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import and_, or_

from .graph import CircuitGraph
from .netlist import GATE_OPS, gc_paused

Clause = tuple[int, ...]


@dataclass
class CnfFormula:
    """CNF clauses over the node variables and the XOR/XNOR helpers.

    ``names`` is the graph's node-name list, shared, not copied; it gives the
    node count and the DIMACS comments.
    """

    clauses: list[Clause]
    var_count: int
    names: list[str] = field(default_factory=list)
    input_count: int = 0

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def node_var(self, node: int) -> int:
        """The variable of graph node ``node``: its id + 1."""
        return node + 1


@gc_paused
def encode(graph: CircuitGraph) -> CnfFormula:
    """Encode a circuit graph as an equisatisfiable CNF formula.

    Clause schemata per gate with k fanins, read from the kind's op, with y
    negated for an inverted kind: AND and OR k+1 clauses; parity a unit
    clause for k = 0 (a constant), 2 clauses for k = 1 (BUF, NOT), and for
    k >= 2 a chain of 2-input stages with 4 clauses each.  Pure and
    deterministic: the same graph always yields the same formula.  Clauses
    are written gate by gate in id order.  Gates of two fanins, most of a
    netlist, take their own loop bodies, one per op, which write the same
    clauses as the k-fanin schemata.
    """
    kinds = graph.kinds
    fanins = graph.fanins
    # node n is variable n + 1 (CnfFormula.node_var); the clauses share these
    # int objects rather than each literal making its own
    var_of = list(range(1, graph.node_count + 1))
    next_var = graph.node_count + 1

    clauses: list[Clause] = []
    append = clauses.append
    for kind, srcs, y in zip(kinds, fanins, var_of):
        if kind == "INPUT":
            continue
        op, inverted = GATE_OPS[kind]
        if inverted:
            y = -y
        if len(srcs) == 2:  # the common case, each op with its own body
            a, b = srcs
            a = var_of[a]
            b = var_of[b]
            if op is and_:  # y <-> a AND b
                ny = -y
                clauses += ((ny, a), (ny, b), (y, -a, -b))
            elif op is or_:  # y <-> a OR b
                clauses += ((y, -a), (y, -b), (-y, a, b))
            else:  # y <-> a XOR b
                ny = -y
                na = -a
                nb = -b
                clauses += ((ny, a, b), (ny, na, nb), (y, na, b), (y, a, nb))
        elif op is and_:  # y <-> AND(fanins)
            wide = [y]
            for src in srcs:
                a = var_of[src]
                append((-y, a))
                wide.append(-a)
            append(tuple(wide))
        elif op is or_:  # y <-> OR(fanins)
            wide = [-y]
            for src in srcs:
                a = var_of[src]
                append((y, -a))
                wide.append(a)
            append(tuple(wide))
        elif not srcs:  # y <-> 0
            append((-y,))
        elif len(srcs) == 1:  # y <-> a
            a = var_of[srcs[0]]
            append((-y, a))
            append((y, -a))
        else:
            # a k-ary parity is a chain of 2-input stages through fresh
            # helpers; the last stage drives y
            a = var_of[srcs[0]]
            for src in srcs[1:-1]:
                b = var_of[src]
                h = next_var
                next_var += 1
                clauses += ((-h, a, b), (-h, -a, -b), (h, -a, b), (h, a, -b))
                a = h
            b = var_of[srcs[-1]]
            clauses += ((-y, a, b), (-y, -a, -b), (y, -a, b), (y, a, -b))

    return CnfFormula(clauses=clauses, var_count=next_var - 1,
                      names=graph.names, input_count=graph.input_count)


def write_dimacs(formula: CnfFormula, assumptions: list[int] = ()) -> str:
    """Serialize to DIMACS CNF; assumptions become trailing unit clauses.

    Node map comments (``c node <name> = var <k>``), one per node in id
    order, which is variable order, precede the header.
    """
    lines = [f"c node {name} = var {formula.node_var(node)}"
             for node, name in enumerate(formula.names)]
    lines.append(f"p cnf {formula.var_count} {formula.clause_count + len(assumptions)}")
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    for lit in assumptions:
        lines.append(f"{lit} 0")
    return "\n".join(lines) + "\n"
