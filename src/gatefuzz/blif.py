"""Reader for a BLIF subset: ``.model .inputs .outputs .names .latch .end``.

Each ``.names`` single-output cover must be recognizable as one of the
supported gate kinds (AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF, CONST0,
CONST1); anything else is rejected with the offending truth-table rows.
``.latch`` becomes a DFF of its D and Q; its type, clock and init fields
are dropped, because full scan (:func:`~gatefuzz.netlist.scan_convert`)
makes every flip-flop output a free input, so they change no pattern.
Parsing runs with the cyclic garbage collector paused, as ``.bench``
parsing does (:func:`~gatefuzz.netlist.gc_paused`).
"""

from __future__ import annotations

from .netlist import Netlist, NetlistError, NetlistSyntaxError, RawGate, gc_paused


class BlifCoverError(NetlistError):
    """A ``.names`` cover that no supported gate kind expresses."""

    def __init__(self, output, rows, detail):
        self.rows = list(rows)
        rows_text = "; ".join(" ".join(r) for r in self.rows) or "<empty>"
        super().__init__(f"cover for {output!r} not expressible as a supported gate kind "
                         f"({detail}); rows: {rows_text}")


def _logical_lines(text):
    """Yield (lineno, tokens) with comments stripped and ``\\`` continuations joined."""
    pending = ""
    start = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if pending:
            line = pending + " " + line.strip()
            pending = ""
        else:
            start = lineno
        if line.endswith("\\"):
            pending = line[:-1].rstrip()
            continue
        if line.strip():
            yield start, line.split()
    if pending:
        yield start, pending.split()


def _match_cover(output, input_names, rows):
    """Map a single-output cover onto a gate kind, or raise BlifCoverError."""
    k = len(input_names)
    out_values = {r[1] for r in rows}
    if len(out_values) > 1:
        raise BlifCoverError(output, rows, "mixed on-set and off-set rows")
    onset = not rows or rows[0][1] == "1"
    plane = [r[0] for r in rows]

    if k == 0:
        if not rows:
            return RawGate(output, "CONST0", ())
        if plane == [""]:
            return RawGate(output, "CONST1" if onset else "CONST0", ())
        raise BlifCoverError(output, rows, "malformed constant cover")
    if not rows:
        raise BlifCoverError(output, rows, "empty cover with inputs")

    if k == 1:
        if plane == ["1"]:
            return RawGate(output, "BUF" if onset else "NOT", tuple(input_names))
        if plane == ["0"]:
            return RawGate(output, "NOT" if onset else "BUF", tuple(input_names))
        raise BlifCoverError(output, rows, "unrecognized unary cover")

    ins = tuple(input_names)
    if len(plane) == 1:
        if plane[0] == "1" * k:
            return RawGate(output, "AND" if onset else "NAND", ins)
        if plane[0] == "0" * k:
            return RawGate(output, "NOR" if onset else "OR", ins)
    if len(plane) == k:
        hot1 = [("-" * j + "1" + "-" * (k - j - 1)) for j in range(k)]
        hot0 = [("-" * j + "0" + "-" * (k - j - 1)) for j in range(k)]
        if sorted(plane) == sorted(hot1):
            return RawGate(output, "OR" if onset else "NOR", ins)
        if sorted(plane) == sorted(hot0):
            return RawGate(output, "NAND" if onset else "AND", ins)
    if len(plane) == 2 ** (k - 1) and all(set(p) <= {"0", "1"} for p in plane):
        parities = {p.count("1") % 2 for p in plane}
        if len(parities) == 1 and len(set(plane)) == len(plane):
            odd = parities.pop() == 1
            if odd == onset:
                return RawGate(output, "XOR", ins)
            return RawGate(output, "XNOR", ins)
    raise BlifCoverError(output, rows, "no supported gate matches")


@gc_paused
def parse_blif(text: str, name: str = "blif") -> Netlist:
    """Parse BLIF source into a :class:`Netlist`.

    Only syntax and covers are checked here; the structural rules (duplicates,
    undefined references) are checked at graph build, by
    :meth:`Netlist.validate`.
    """
    netlist = Netlist(name=name)
    cover = None  # the open .names: output, input names, rows
    saw_model = saw_end = False
    for lineno, tokens in _logical_lines(text):
        head = tokens[0]
        if saw_end:
            raise NetlistSyntaxError("content after .end", lineno)
        if cover is not None:
            if not head.startswith("."):
                _, input_names, rows = cover
                row = [""] + tokens if not input_names and len(tokens) == 1 else tokens
                if len(row) != 2:
                    raise NetlistSyntaxError(f"malformed cover row {' '.join(tokens)!r}", lineno)
                in_plane, out_val = row
                if len(in_plane) != len(input_names) or not set(in_plane) <= {"0", "1", "-"}:
                    raise NetlistSyntaxError(f"cover row {' '.join(tokens)!r} does not match "
                                             f"{len(input_names)} inputs", lineno)
                if out_val not in ("0", "1"):
                    raise NetlistSyntaxError(f"cover output must be 0 or 1, got {out_val!r}", lineno)
                rows.append((in_plane, out_val))
                continue
            netlist.gates.append(_match_cover(*cover))
            cover = None
        if head == ".model":
            if saw_model:
                raise NetlistSyntaxError("multiple .model sections are not supported", lineno)
            saw_model = True
            if len(tokens) > 1:
                netlist.name = tokens[1]
        elif head == ".inputs":
            netlist.primary_inputs.extend(tokens[1:])
        elif head == ".outputs":
            netlist.primary_outputs.extend(tokens[1:])
        elif head == ".latch":
            if len(tokens) < 3:
                raise NetlistSyntaxError(".latch requires <input> <output>", lineno)
            # full scan frees Q, so the type, clock and init fields change no pattern
            netlist.gates.append(RawGate(tokens[2], "DFF", (tokens[1],)))
        elif head == ".names":
            if len(tokens) < 2:
                raise NetlistSyntaxError(".names requires at least an output", lineno)
            cover = (tokens[-1], tokens[1:-1], [])
        elif head == ".end":
            saw_end = True
        else:
            raise NetlistSyntaxError(f"unsupported BLIF construct {head!r}", lineno)
    if cover is not None:
        netlist.gates.append(_match_cover(*cover))
    return netlist
