"""Reader and writer for the line-oriented ISCAS ``.bench`` netlist format.

Grammar (one construct per line, ``#`` starts a comment, blank lines ignored):

    INPUT(<id>)
    OUTPUT(<id>)
    <id> = <KIND>(<id>{, <id>})

``KIND`` is one of AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF (alias BUFF) or
DFF.  Identifiers are case-sensitive; gate keywords are not.  Lines are
those of ``str.splitlines``; one regular expression reads them all in one
pass, over the text itself when line feeds are its only line breaks, else
over its lines joined by line feeds.  Parsing runs with the cyclic garbage
collector paused (:func:`~gatefuzz.netlist.gc_paused`): a netlist holds
only lists of tuples of strings, so no collection, during parsing or after
it, could free any of it, and it starts out in the oldest generation.
"""

from __future__ import annotations

import re

from .netlist import (CONST_KINDS, GATE_KINDS, Netlist, NetlistError, NetlistSyntaxError, RawGate,
                      gc_paused)

_ID = r"[^\s(),=#]+"
_WS = r"[^\S\n]*"  # blanks within one line of a text that "\n" alone breaks
# One line, its groups: a gate's output, keyword and argument text; an
# INPUT's id; an OUTPUT's id; or else the text before any comment, stripped,
# which is empty on a blank or comment line and a syntax error otherwise.
# Every line matches, so the n-th match of such a text is its line n.
_LINE = re.compile(
    rf"^{_WS}(?:({_ID}){_WS}={_WS}([A-Za-z0-9]+){_WS}\(([^()#\n]*)\)"
    rf"|INPUT{_WS}\({_WS}({_ID}){_WS}\)|OUTPUT{_WS}\({_WS}({_ID}){_WS}\)|([^#\n]*?))"
    rf"{_WS}(?:#.*)?$", re.MULTILINE)

# the line breaks of str.splitlines other than "\n"
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

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
    if any(map(text.__contains__, _OTHER_BREAKS)):
        rows = _LINE.findall("\n".join(text.splitlines()))
    else:  # "\n" alone breaks the lines, so the text is matched in place
        rows = _LINE.findall(text)
    make = tuple.__new__  # skips the Python-level __new__ of a NamedTuple
    strip = str.strip
    gates = []
    for lineno, (output, word, arg_text, _, _, other) in enumerate(rows, start=1):
        if output:
            kind = _KINDS.get(word) or _KINDS.get(word.upper())
            args = tuple(map(strip, arg_text.split(","))) if arg_text.strip() else ()
            if kind is None or "" in args:
                raise _syntax_error(text, lineno)
            gates.append(make(RawGate, (output, kind, args)))
        elif other:
            raise _syntax_error(text, lineno)
    return Netlist(name, [row[3] for row in rows if row[3]], [row[4] for row in rows if row[4]],
                   gates)


def _syntax_error(text, lineno):
    """The :class:`NetlistSyntaxError` of line ``lineno`` of ``text``, which
    is not a construct, or is a gate with an unknown keyword or an empty
    argument."""
    line = text.splitlines()[lineno - 1]
    m = _LINE.match(line)
    if m[1] is None:
        return NetlistSyntaxError(f"unrecognized construct {m[6]!r}", lineno, m.start(6) + 1)
    if m[2].upper() not in _KINDS:
        return NetlistSyntaxError(f"unsupported gate keyword {m[2]!r}", lineno, m.start(2) + 1)
    return NetlistSyntaxError("empty argument in gate input list", lineno,
                              line.index("(", m.end(2)) + 1)


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
