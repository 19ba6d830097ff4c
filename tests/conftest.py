import random

import pytest

from gatefuzz.blif import parse_blif
from gatefuzz.netlist import Netlist, RawGate
from gatefuzz.pattern import InputPattern

BINARY_KINDS = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR")
UNARY_KINDS = ("NOT", "BUF")


def random_netlist(rng: random.Random, n_inputs: int, n_gates: int,
                   with_dffs: bool = False) -> Netlist:
    """Random acyclic netlist: gates only read inputs or earlier gates."""
    n = Netlist(name=f"rand{rng.randrange(1 << 30)}")
    n.primary_inputs = [f"x{i}" for i in range(n_inputs)]
    signals = list(n.primary_inputs)
    for g in range(n_gates):
        out = f"g{g}"
        if with_dffs and rng.random() < 0.15:
            n.gates.append(RawGate(out, "DFF", (rng.choice(signals),)))
        elif rng.random() < 0.2:
            n.gates.append(RawGate(out, rng.choice(UNARY_KINDS), (rng.choice(signals),)))
        else:
            kind = rng.choice(BINARY_KINDS)
            arity = rng.choice((2, 2, 2, 3))
            n.gates.append(RawGate(out, kind, tuple(rng.choice(signals) for _ in range(arity))))
        signals.append(out)
    # last gate is always observable; a couple of extra outputs at random
    n.primary_outputs = [n.gates[-1].output]
    for g in n.gates[:-1]:
        if rng.random() < 0.1:
            n.primary_outputs.append(g.output)
    n.validate()
    return n


def every_arity_netlist(rng: random.Random) -> Netlist:
    """Each multi-input kind at 2 to 9 fanins, NOT, BUF, both constants and a
    DFF.  Fanins repeat, and the gates are declared last first, so nearly
    every gate reads a gate declared after it."""
    inputs = [f"x{i}" for i in range(5)]
    gates = [RawGate("c0", "CONST0", ()), RawGate("c1", "CONST1", ()),
             RawGate("q", "DFF", ("last",)),
             RawGate("and_aa", "AND", ("x0", "x0")),
             RawGate("xor_aab", "XOR", ("x1", "x1", "x2")),
             RawGate("nor_aaaab", "NOR", ("x3", "x3", "x3", "x3", "q"))]
    signals = inputs + [g.output for g in gates]
    for arity in range(2, 10):
        for kind in BINARY_KINDS:
            out = f"{kind.lower()}{arity}"
            gates.append(RawGate(out, kind, tuple(rng.choice(signals) for _ in range(arity))))
            signals.append(out)
        for kind in UNARY_KINDS:
            out = f"{kind.lower()}{arity}"
            gates.append(RawGate(out, kind, (rng.choice(signals),)))
            signals.append(out)
    gates.append(RawGate("last", "XNOR", tuple(signals[-9:])))
    return Netlist(name="arities", primary_inputs=inputs, primary_outputs=["last"],
                   gates=gates[::-1])


def blif_constants_netlist() -> Netlist:
    """Both constants, AND and OR covers of up to four fanins, and a latch."""
    return parse_blif(""".model consts
.inputs a b c
.outputs y z w
.names one
1
.names zero
.names a one t
11 1
.names b zero u
1- 1
-1 1
.names t u a a v
1111 1
.names v q zero one y
0000 0
.names q c one z
111 1
.names zero one w
1- 1
-1 1
.latch z q 0
.end
""", name="consts")


def all_patterns(width: int):
    """Every input pattern of the given width, counting order, MSB first."""
    return [InputPattern(tuple((v >> (width - 1 - b)) & 1 for b in range(width)))
            for v in range(2 ** width)]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
