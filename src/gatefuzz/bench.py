"""Reader and writer for the line-oriented ISCAS ``.bench`` netlist format.

Grammar (one construct per line, ``#`` starts a comment, blank lines ignored):

    INPUT(<id>)
    OUTPUT(<id>)
    <id> = <KIND>(<id>{, <id>})

``KIND`` is one of AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF (alias BUFF) or
DFF.  Identifiers are case-sensitive; gate keywords are not.  Lines are
those of ``str.splitlines``: a text with any other line break is read as its
lines joined by line feeds, and a text that line feeds alone break is read
in place.

There are two readers.  The canonical reader takes only the form that
:func:`write_bench` emits, which is also the line form of the ISCAS'85
circuits: each line a gate ``<id> = <KIND>(<id>, <id>)`` with the keyword
in upper case and exactly ``", "`` between arguments, an ``INPUT(<id>)`` or
``OUTPUT(<id>)``, a whole-line comment or an empty line.  One regular
expression matches every line, and the netlist is assembled from its
columns without a step per line.  Any other text it declines, at the cost
of that one scan, and the general reader reads it: one regular expression
over every line, then a step per line.  The general reader is the
reference; both give equal netlists, and only the general reader reports
errors.  Parsing runs with the cyclic garbage collector paused
(:func:`~gatefuzz.netlist.gc_paused`): a netlist holds only lists of tuples
of strings, so no collection, during parsing or after it, could free any of
it, and it starts out in the oldest generation.
"""

from __future__ import annotations

import re
from itertools import repeat
from operator import itemgetter

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

# One line in write_bench's form, its groups: a gate's output, keyword and
# argument text; an INPUT's id; an OUTPUT's id.  A comment or an empty line
# matches with every group empty.  No part of it matches a line break, so
# each line of a text matches at most once, and every line matches only if
# the matches are one more than the line feeds.
_CANONICAL = re.compile(
    rf"^(?:({_ID}) = ([A-Z]+)\(((?:{_ID}, )*{_ID})\)|INPUT\(({_ID})\)|OUTPUT\(({_ID})\)"
    rf"|#[^\n{_OTHER_BREAKS}]*|)$", re.MULTILINE)

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
        text = "\n".join(text.splitlines())
    netlist = _read_canonical(text, name)
    return _read_general(text, name) if netlist is None else netlist


def _read_canonical(text, name="bench"):
    """The netlist of ``text`` if each of its lines is in :func:`write_bench`'s
    form, else None; never raises.  Equal to :func:`_read_general`'s netlist
    whenever it is not None."""
    rows = _CANONICAL.findall(text)
    if len(rows) != text.count("\n") + 1:
        return None
    # a gate's row fills all three gate columns and any other row none of
    # them, so the gate columns stay aligned once their empties are dropped
    outputs, words, arg_texts, inputs, primary_outputs = (
        filter(None, map(itemgetter(k), rows)) for k in range(5))
    kinds = list(map(_KINDS.get, words))  # keywords match in their case only
    if None in kinds:
        return None
    args = map(tuple, map(str.split, arg_texts, repeat(", ")))
    # tuple.__new__ skips the Python-level __new__ of a NamedTuple
    gates = list(map(tuple.__new__, repeat(RawGate), zip(outputs, kinds, args)))
    return Netlist(name, list(inputs), list(primary_outputs), gates)


def _read_general(text, name):
    """The netlist of ``text``, whose only line breaks are line feeds; raises
    the :class:`NetlistSyntaxError` of its first line that is not a construct,
    or is a gate with an unknown keyword or an empty argument."""
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

    The text is in the canonical form, the one the canonical reader takes:
    a ``#`` line with the netlist's name, then one ``INPUT(<id>)`` line per
    primary input, one ``OUTPUT(<id>)`` line per primary output and one
    ``<id> = <KIND>(<id>, <id>)`` line per gate, each ended by a line feed.

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
