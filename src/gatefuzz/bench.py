"""Reader and writer for the line-oriented ISCAS ``.bench`` netlist format.

Grammar (one construct per line, ``#`` starts a comment, blank lines ignored):

    INPUT(<id>)
    OUTPUT(<id>)
    <id> = <KIND>(<id>{, <id>})

``KIND`` is one of AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF (alias BUFF) or
DFF.  Identifiers are case-sensitive; gate keywords are not.  Parsing runs
with the cyclic garbage collector paused (:func:`~gatefuzz.netlist.gc_paused`):
a netlist holds only lists of tuples of strings, so a collection during it
could free nothing.
"""

from __future__ import annotations

import re

from .netlist import (CONST_KINDS, GATE_KINDS, Netlist, NetlistError, NetlistSyntaxError, RawGate,
                      gc_paused)

_ID = r"[^\s(),=#]+"
_INPUT_RE = re.compile(rf"^INPUT\s*\(\s*({_ID})\s*\)$")
_OUTPUT_RE = re.compile(rf"^OUTPUT\s*\(\s*({_ID})\s*\)$")
_GATE_RE = re.compile(rf"^({_ID})\s*=\s*([A-Za-z0-9]+)\s*\(\s*([^()]*)\s*\)$")

# keyword (upper-cased) -> kind; constants have no .bench keyword
_KINDS = {kind: kind for kind in GATE_KINDS - CONST_KINDS} | {"BUFF": "BUF"}


@gc_paused
def parse_bench(text: str, name: str = "bench") -> Netlist:
    """Parse ``.bench`` source into a :class:`Netlist`.

    Declaration order of INPUT/OUTPUT lines and gate lines is preserved.
    Only syntax is checked here: :class:`NetlistSyntaxError`, which carries a
    line and column, is raised on a line that is not a construct, an unknown
    gate keyword or an empty gate argument.  The structural rules (arity,
    duplicates, undefined references) are checked at graph build, by
    :meth:`Netlist.validate`, whose :class:`NetlistError` names the gate or
    signal but not the line.
    """
    netlist = Netlist(name=name)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        indent = len(code) - len(code.lstrip())  # columns count from the raw line
        if "=" not in line:
            # an _ID cannot contain "=", so only a gate line can hold one
            m = _INPUT_RE.match(line)
            if m:
                netlist.primary_inputs.append(m.group(1))
                continue
            m = _OUTPUT_RE.match(line)
            if m:
                netlist.primary_outputs.append(m.group(1))
                continue
        else:
            m = _GATE_RE.match(line)
            if m:
                out, kind_word, arg_text = m.groups()
                kind = _KINDS.get(kind_word.upper())
                if kind is None:
                    raise NetlistSyntaxError(
                        f"unsupported gate keyword {kind_word!r}", lineno, indent + m.start(2) + 1
                    )
                args = tuple(map(str.strip, arg_text.split(","))) if arg_text.strip() else ()
                if "" in args:
                    raise NetlistSyntaxError("empty argument in gate input list", lineno,
                                             indent + line.index("(", m.end(2)) + 1)
                netlist.gates.append(RawGate(out, kind, args))
                continue
        raise NetlistSyntaxError(f"unrecognized construct {line!r}", lineno, indent + 1)
    return netlist


def write_bench(netlist: Netlist) -> str:
    """Emit ``.bench`` text; inverse of :func:`parse_bench`.

    ``parse_bench(write_bench(n))`` reproduces the same inputs, outputs and
    gates in the same order.  CONST gates (only producible from BLIF input)
    have no ``.bench`` keyword and are rejected.
    """
    lines = [f"# {netlist.name}"]
    for pi in netlist.primary_inputs:
        lines.append(f"INPUT({pi})")
    for po in netlist.primary_outputs:
        lines.append(f"OUTPUT({po})")
    for g in netlist.gates:
        if g.kind in CONST_KINDS:
            raise NetlistError(f"{g.kind} gate {g.output!r} has no .bench representation")
        lines.append(f"{g.output} = {g.kind}({', '.join(g.inputs)})")
    return "\n".join(lines) + "\n"
