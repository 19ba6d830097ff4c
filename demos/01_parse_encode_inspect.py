#!/usr/bin/env python3
"""Walk the front half of the pipeline on the bundled circuits.

Parses a sequential netlist, applies full-scan conversion, builds the
levelized graph, and encodes it to CNF, printing what each stage produced.
Also writes a GraphViz rendering and a DIMACS file you can feed to any SAT
solver.
"""

from gatefuzz import build_graph, encode, load_circuit, scan_convert, to_dot, write_dimacs

print("== s27: a small sequential circuit ==")
s27 = load_circuit("s27")
print(f"as distributed: {len(s27.primary_inputs)} inputs, "
      f"{len(s27.primary_outputs)} outputs, {len(s27.gates)} gates "
      f"({sum(1 for g in s27.gates if g.kind == 'DFF')} DFFs)")

scan = scan_convert(s27)
print(f"after full-scan conversion: {len(scan.primary_inputs)} inputs "
      f"(flip-flop outputs became pseudo-inputs), "
      f"{len(scan.primary_outputs)} outputs, {len(scan.gates)} combinational gates")

graph = build_graph(scan)
print(f"graph: {graph.node_count} nodes, depth {max(graph.levels)}")
print("level of each node, in id order:", dict(zip(graph.names, graph.levels)))

with open("s27_graph.dot", "w") as fh:
    fh.write(to_dot(graph))
print("wrote s27_graph.dot (render with: dot -Tpng s27_graph.dot -o s27.png)")

print()
print("== c432-scale interrupt controller, encoded to CNF ==")
c432 = load_circuit("c432")
graph = build_graph(scan_convert(c432))
formula = encode(graph)
print(f"{graph.node_count} nodes -> {formula.var_count} variables "
      f"(XOR chains add helpers), {formula.clause_count} clauses")

with open("c432.cnf", "w") as fh:
    fh.write(write_dimacs(formula))
print("wrote c432.cnf (standard DIMACS, node map in the comments)")
