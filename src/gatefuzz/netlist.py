"""Gate-level netlist data model and full-scan conversion.

A :class:`Netlist` is a flat list of unchecked gate records over named
signals, plus ordered primary input/output lists; :meth:`Netlist.validate`
holds every structural rule.  The parsers check only syntax; the rules are
checked by :func:`~gatefuzz.graph.build_graph`, which needs the name -> id
map, and before that by :func:`scan_convert` on a netlist with DFFs.
Sequential elements (DFFs) are removed by :func:`scan_convert`, which models
full scan access: every flip-flop output becomes a directly controllable
pseudo-input and every flip-flop input a directly observable pseudo-output,
leaving a purely combinational circuit.  :data:`GATE_OPS` is the one place
that says what a gate kind computes: simulation and the CNF encoding read it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace
from functools import wraps
from operator import and_, itemgetter, or_, xor
from typing import NamedTuple

# kind -> (op, inverted), the op folded over the fanins.  NOT and BUF are
# one-input XNOR and XOR; CONST1 and CONST0 are zero-input XNOR and XOR.
GATE_OPS = {
    "AND": (and_, False), "NAND": (and_, True),
    "OR": (or_, False), "NOR": (or_, True),
    "XOR": (xor, False), "XNOR": (xor, True),
    "BUF": (xor, False), "NOT": (xor, True),
    "CONST0": (xor, False), "CONST1": (xor, True),
}
GATE_KINDS = frozenset(GATE_OPS) | {"DFF"}  # scan conversion removes each DFF

UNARY_KINDS = frozenset({"NOT", "BUF", "DFF"})
CONST_KINDS = frozenset({"CONST0", "CONST1"})


def gc_paused(fn):
    """Wrap ``fn`` so that it runs with CPython's cyclic collector off, and
    what it returns starts out in the oldest generation.

    The parsers, graph build and the CNF encoding make only acyclic
    containers (tuples, lists, dicts and records that refer down to what
    they hold, never back), so a collection during one can free nothing; on
    a large netlist the collector would still traverse the young objects
    hundreds of times.  Left young, they would all be traversed once more by
    the first collection after the call.  So on return ``gc.freeze()`` and
    ``gc.unfreeze()`` move every tracked object to the oldest generation,
    which only a full collection traverses, and zero the young count.
    Before the call, a young collection frees the caller's unreachable young
    cycles, which the promotion would otherwise keep until a full
    collection.  A caller that had the collector off, or that has frozen
    objects (``unfreeze`` would thaw them), gets neither step.  The
    collector is left as it was found on every exit, an exception included.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        promote = not gc.get_freeze_count()
        if promote:
            gc.collect(0)
        gc.disable()
        try:
            result = fn(*args, **kwargs)
            if promote:
                gc.freeze()
                gc.unfreeze()
            return result
        finally:
            gc.enable()
    return paused


def _arity_error(kind, n, output):
    """Why a gate of a supported ``kind`` cannot have ``n`` inputs, or None."""
    if kind in UNARY_KINDS:
        if n != 1:
            return f"{kind} requires exactly 1 input, got {n} for {output!r}"
    elif kind in CONST_KINDS:
        if n != 0:
            return f"{kind} takes no inputs, got {n} for {output!r}"
    elif n < 2:
        return f"{kind} requires >= 2 inputs, got {n} for {output!r}"
    return None


class NetlistError(Exception):
    """Base class for netlist construction and parsing failures."""


class NetlistSyntaxError(NetlistError):
    """Malformed source text; carries 1-based line and column."""

    def __init__(self, message, line, column=1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class NodeIds(dict):
    """The name -> node id map of a netlist that :meth:`Netlist.validate`
    checked, with what the check derived, each list indexed by node id:
    ``names``, ``kinds`` (``"INPUT"`` for a primary input) and ``fanins``
    (a gate's inputs as ids, in order), which graph build takes as they are,
    and ``has_dff``."""

    __slots__ = ("names", "kinds", "fanins", "has_dff")


class RawGate(NamedTuple):
    """One gate instance, ``output = kind(inputs...)``, checked only by
    :meth:`Netlist.validate`; it equals the plain tuple of its fields."""

    output: str
    kind: str
    inputs: tuple[str, ...]


@dataclass
class Netlist:
    """A named gate-level netlist with ordered I/O lists."""

    name: str
    primary_inputs: list[str] = field(default_factory=list)
    primary_outputs: list[str] = field(default_factory=list)
    gates: list[RawGate] = field(default_factory=list)

    def validate(self) -> NodeIds:
        """Check every rule; raise :class:`NetlistError` on the first violation.

        Each gate needs a supported kind, a nonempty output and its kind's
        arity (1 for NOT, BUF and DFF, 0 for constants, >= 2 otherwise).
        Output names must be unique, nothing may be both a primary input and
        a gate output, and every referenced signal must be defined.  Returns
        the name -> node id map: primary inputs first, then gate outputs,
        each in declaration order.  The rules are checked in bulk, and the
        check for undefined signals is the map of each gate's inputs to
        ids, which the result keeps as its ``fanins`` (:class:`NodeIds`).
        Only a netlist that breaks a rule is walked, gate by gate, to name
        the first violation: a repeated primary input, then each gate's
        kind, output, arity and duplicate in gate order, then undefined
        signals in gate order, then undefined primary outputs.
        """
        gates = self.gates
        names = [*self.primary_inputs, *map(itemgetter(0), gates)]
        ids = NodeIds(zip(names, range(len(names))))
        kinds = list(map(itemgetter(1), gates))
        srcs_of = list(map(itemgetter(2), gates))
        shapes = set(zip(kinds, map(len, srcs_of)))
        if (len(ids) < len(names) or "" in ids  # only a gate output may not be empty
                or not all(kind in GATE_KINDS and not _arity_error(kind, n, "")
                           for kind, n in shapes)):
            self._check_each_gate()
        at = ids.__getitem__
        try:  # an itemgetter of two or more keys remaps fastest, and returns a tuple
            fanins = [itemgetter(*srcs)(ids) if len(srcs) > 1 else tuple(map(at, srcs))
                      for srcs in srcs_of]
        except KeyError:
            raise next(NetlistError(f"undefined signal {src!r} feeding gate {output!r}")
                       for output, _, inputs in gates for src in inputs
                       if src not in ids) from None
        for out in self.primary_outputs:
            if out not in ids:
                raise NetlistError(f"undefined primary output {out!r}")
        n_inputs = len(self.primary_inputs)
        ids.names = names
        ids.kinds = ["INPUT"] * n_inputs + kinds
        ids.fanins = [()] * n_inputs + fanins
        ids.has_dff = ("DFF", 1) in shapes
        return ids

    def _check_each_gate(self):
        """Raise the first repeated primary input, or else the first gate
        error in gate order, if there is one."""
        defined = set()
        for name in self.primary_inputs:
            if name in defined:
                raise NetlistError(f"duplicate primary input {name!r} in {self.name!r}")
            defined.add(name)
        for output, kind, inputs in self.gates:
            if kind not in GATE_KINDS:
                raise NetlistError(f"unsupported gate kind {kind!r}")
            if not output:
                raise NetlistError("gate output name must be nonempty")
            error = _arity_error(kind, len(inputs), output)
            if error:
                raise NetlistError(error)
            if output in defined:
                raise NetlistError(f"duplicate definition of {output!r}")
            defined.add(output)

    @property
    def has_dff(self) -> bool:
        return "DFF" in map(itemgetter(1), self.gates)


def scan_convert(netlist: Netlist) -> Netlist:
    """Replace every DFF by a pseudo-input (its Q) and pseudo-output (its D).

    The result is purely combinational.  Pseudo-inputs keep the flip-flop's
    output identifier and are appended after the original primary inputs, in
    gate declaration order; the D signals are appended to the primary outputs
    in the same order.  A netlist without DFFs is returned unchanged (so the
    conversion is idempotent); any other is validated first, since a DFF
    without exactly one input cannot be converted.
    """
    if not netlist.has_dff:
        return netlist
    netlist.validate()
    pseudo_inputs = []
    pseudo_outputs = []
    kept = []
    for g in netlist.gates:
        if g.kind == "DFF":
            pseudo_inputs.append(g.output)
            pseudo_outputs.append(g.inputs[0])
        else:
            kept.append(g)
    return replace(
        netlist,
        primary_inputs=list(netlist.primary_inputs) + pseudo_inputs,
        primary_outputs=list(netlist.primary_outputs) + pseudo_outputs,
        gates=kept,
    )
