#!/usr/bin/env python3
"""Regenerate the synthesized circuit fixtures and all bundled target files.

Writes into src/gatefuzz/circuits/:

  and_tree16.bench  balanced AND tree over 16 inputs (rare top=1 event)
  or4.bench         single 4-input OR
  xor_ladder8.bench chain of 2-input XORs over 8 inputs (parity)
  c432.bench        36-input, 7-output priority interrupt controller at the
                    scale of the ISCAS-85 c432 (functional reconstruction of
                    the classic 3-bus, 9-channel controller; not the original
                    ISCAS netlist bytes)

plus one or two `.targets` files per circuit.  Every target file for a
circuit with <= 16 inputs is verified reachable by exhaustive simulation;
c432 targets are constructed from an observed simulation valuation, so they
are reachable by that witness.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gatefuzz.bench import parse_bench, write_bench
from gatefuzz.graph import build_graph
from gatefuzz.netlist import Netlist, RawGate, scan_convert
from gatefuzz.pattern import InputPattern
from gatefuzz.simulate import run_pass, simulate
from gatefuzz.targets import parse_targets

CIRCUITS = Path(__file__).resolve().parents[1] / "src" / "gatefuzz" / "circuits"


def and_tree16():
    n = Netlist(name="and_tree16")
    n.primary_inputs = [f"x{i}" for i in range(16)]
    layer = list(n.primary_inputs)
    depth = 0
    while len(layer) > 1:
        depth += 1
        nxt = []
        for i in range(0, len(layer), 2):
            out = f"a{depth}_{i // 2}"
            n.gates.append(RawGate(out, "AND", (layer[i], layer[i + 1])))
            nxt.append(out)
        layer = nxt
    n.gates.append(RawGate("root", "BUF", (layer[0],)))
    n.primary_outputs = ["root"]
    return n


def or4():
    n = Netlist(name="or4")
    n.primary_inputs = ["a", "b", "c", "d"]
    n.gates = [RawGate("y", "OR", ("a", "b", "c", "d"))]
    n.primary_outputs = ["y"]
    return n


def xor_ladder8():
    n = Netlist(name="xor_ladder8")
    n.primary_inputs = [f"x{i}" for i in range(8)]
    prev = "x0"
    for i in range(1, 8):
        out = f"p{i}"
        n.gates.append(RawGate(out, "XOR", (prev, f"x{i}")))
        prev = out
    n.primary_outputs = [prev]
    return n


def _or_tree(n, name, leaves):
    """Reduce leaves with OR2 gates; returns the root signal name."""
    layer = list(leaves)
    stage = 0
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            out = f"{name}_{stage}_{i // 2}"
            n.gates.append(RawGate(out, "OR", (layer[i], layer[i + 1])))
            nxt.append(out)
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
        stage += 1
    return layer[0]


def c432():
    """3-bus, 9-channel priority interrupt controller (c432-scale).

    Inputs: enable lines e0..e8 and request buses ra/rb/rc (9 lines each).
    Bus A outranks B outranks C; within the granted bus the highest channel
    index wins.  Outputs: per-bus grants pa/pb/pc and the 4-bit index
    ch0..ch3 of the winning channel.
    """
    n = Netlist(name="c432")
    e = [f"e{i}" for i in range(9)]
    ra = [f"ra{i}" for i in range(9)]
    rb = [f"rb{i}" for i in range(9)]
    rc = [f"rc{i}" for i in range(9)]
    n.primary_inputs = e + ra + rb + rc

    ea, eb, ec = [], [], []
    for i in range(9):
        for bus, reqs, eff in (("a", ra, ea), ("b", rb, eb), ("c", rc, ec)):
            out = f"e{bus}{i}"
            n.gates.append(RawGate(out, "AND", (reqs[i], e[i])))
            eff.append(out)

    hasa = _or_tree(n, "hasa", ea)
    hasb = _or_tree(n, "hasb", eb)
    hasc = _or_tree(n, "hasc", ec)

    n.gates.append(RawGate("pa", "BUF", (hasa,)))
    n.gates.append(RawGate("na", "NOT", (hasa,)))
    n.gates.append(RawGate("pb", "AND", ("na", hasb)))
    n.gates.append(RawGate("nb", "NOT", (hasb,)))
    n.gates.append(RawGate("pc", "AND", ("na", "nb", hasc)))

    # request vector of the granted bus
    r = []
    for i in range(9):
        n.gates.append(RawGate(f"ma{i}", "AND", (ea[i], "pa")))
        n.gates.append(RawGate(f"mb{i}", "AND", (eb[i], "pb")))
        n.gates.append(RawGate(f"mc{i}", "AND", (ec[i], "pc")))
        n.gates.append(RawGate(f"r{i}", "OR", (f"ma{i}", f"mb{i}", f"mc{i}")))
        r.append(f"r{i}")

    # strip all but the highest requesting channel; hi_i = OR(r[i+1:])
    hi = {7: r[8]}
    for i in range(6, -1, -1):
        n.gates.append(RawGate(f"hi{i}", "OR", (r[i + 1], hi[i + 1])))
        hi[i] = f"hi{i}"
    n.gates.append(RawGate("p8", "BUF", (r[8],)))
    for i in range(8):
        n.gates.append(RawGate(f"t{i}", "AND", (r[i], hi[i])))
        n.gates.append(RawGate(f"p{i}", "XOR", (r[i], f"t{i}")))

    ch0 = _or_tree(n, "c0", ["p1", "p3", "p5", "p7"])
    ch1 = _or_tree(n, "c1", ["p2", "p3", "p6", "p7"])
    ch2 = _or_tree(n, "c2", ["p4", "p5", "p6", "p7"])
    n.gates.append(RawGate("ch0", "BUF", (ch0,)))
    n.gates.append(RawGate("ch1", "BUF", (ch1,)))
    n.gates.append(RawGate("ch2", "BUF", (ch2,)))
    n.gates.append(RawGate("ch3", "BUF", ("p8",)))
    n.primary_outputs = ["pa", "pb", "pc", "ch0", "ch1", "ch2", "ch3"]
    return n


def verify_reachable(netlist, targets_text):
    """Exhaustively confirm some input drives all targets at once."""
    graph = build_graph(scan_convert(netlist))
    spec = parse_targets(targets_text, graph)
    width = graph.input_count
    assert width <= 16, f"{netlist.name}: too many inputs to brute-force"
    patterns = [InputPattern.from_word(v, width) for v in range(2 ** width)]
    words = run_pass(graph, patterns)
    for lane in range(len(patterns)):
        if all((words[node] >> lane) & 1 == bit for node, bit in spec.entries):
            return True
    raise AssertionError(f"{netlist.name}: targets unreachable:\n{targets_text}")


def observed_targets(netlist, node_names, seed):
    """Build a target file from one simulated valuation (reachable by that input)."""
    graph = build_graph(scan_convert(netlist))
    rng = random.Random(seed)
    pattern = InputPattern(tuple(rng.randrange(2) for _ in range(graph.input_count)))
    valuation = simulate(graph, pattern)
    lines = [f"{name}={valuation[graph.node_id(name)]}" for name in node_names]
    return "\n".join(lines) + "\n"


def main():
    CIRCUITS.mkdir(parents=True, exist_ok=True)

    for builder in (and_tree16, or4, xor_ladder8, c432):
        netlist = builder()
        netlist.validate()
        (CIRCUITS / f"{netlist.name}.bench").write_text(write_bench(netlist))
        print(f"{netlist.name}: {len(netlist.primary_inputs)} inputs, "
              f"{len(netlist.gates)} gates")

    targets = {
        "c17": {"outputs": "n22=1\nn23=0\n", "internal": "n10=1\nn16=1\nn19=0\n"},
        "s27": {"scan": "G11=1\nG9=0\nG13=1\n"},
        "and_tree16": {"root": "root=1\n"},
        "or4": {"y1": "y=1\n"},
        "xor_ladder8": {"parity": "p7=1\np4=0\n"},
    }
    for circuit, specs in targets.items():
        netlist = parse_bench((CIRCUITS / f"{circuit}.bench").read_text(encoding="utf-8"),
                              name=circuit)
        for label, text in specs.items():
            verify_reachable(netlist, text)
            (CIRCUITS / f"{circuit}.{label}.targets").write_text(text)
            print(f"{circuit}.{label}.targets verified reachable")

    c432_netlist = parse_bench((CIRCUITS / "c432.bench").read_text(encoding="utf-8"),
                               name="c432")
    text = observed_targets(c432_netlist, ["pa", "r4", "hi2", "ch1"], seed=7)
    (CIRCUITS / "c432.mixed.targets").write_text(text)
    print(f"c432.mixed.targets (from observed valuation):\n{text}", end="")


if __name__ == "__main__":
    main()
