"""SAT-driven generation of diverse targeted input patterns: one solve, many patterns.

Every emitted pattern drives all target nodes to their desired values.
Generation works on the cut graph of the targets' fan-in cone, which
:func:`~gatefuzz.targets.cut_targets` gives.  Gates outside the cone read the
inputs alone and no target names them, so under the targets the cut's formula
has the circuit's input projections, and the same validity and exhaustion;
the cut keeps the inputs' ids, so its models are the circuit's patterns.

Each solver model is first lifted to a cube (cube generalisation by ternary
simulation, as in Ravi & Somenzi, TACAS 2004, and IC3/PDR): its inputs are
made X one at a time, in input order, and an X is kept while every target
stays definite at its desired value under
:func:`~gatefuzz.simulate.run_ternary`.  X-valued simulation is
conservative, so every completion of the cube reaches the targets.  The
model is emitted first, and is the witness that the targeted state is
reachable; then seeded completions of the cube, random bits on its free
inputs only, are drawn and emitted while they keep their distance, until
:data:`REJECTS_PER_CUBE` draws in a row do not.  Only then is the solver
asked again.

Diversity is a minimum pairwise Hamming distance ``d_min``: each emitted
pattern is kept by the solver
(:meth:`~gatefuzz.sat.SolverSession.keep_distance`), which holds every later
model at least ``d_min`` primary inputs away from it, so no pattern repeats
and the session never grows beyond the formula's own variables.  Patterns
are packed ints, and the session's pigeonhole index of the kept words
answers the acceptance guard (:meth:`~gatefuzz.sat.SolverSession.near`)
from a few exact block lookups, so a candidate costs no scan of the emitted
patterns.  A completion too close to an emitted pattern is a rejection; a
solver model too close is an unsound solver, and an error.  The reported
distance extremes stay the exact pairwise minimum and maximum: one pass at
the end counts each pattern against all of them at once, in fields of a few
ints, and is also the check, shared with no solver code, that no two
patterns are closer than ``d_min``.
Before returning, one two-valued pass (:func:`~gatefuzz.coverage.first_sightings`)
checks every emitted pattern against the targets and gives the run's coverage.

The target literals, built with the solved formula by :func:`target_formula`
(``gen --dimacs-out`` writes both), hold for every solve of a run, so they
are permanent facts of the run's session: each is added once as a unit
clause, and their implications are derived once at level 0 rather than
again, under assumptions, by every solve.  A spec that propagation alone
refutes is therefore UNSAT without a conflict, whatever the conflict
budget.  Naming the targets that conflict (an assumption core) would take
one more solve, with the targets as assumptions, on the invalid path.

``GenReport.stop_reason`` says why generation stopped: ``"budget"`` (the
pattern budget was reached), ``"exhausted"`` (UNSAT: no further pattern at
distance >= ``d_min`` exists, and with no pattern at all the targeted state is
invalid) or ``"solver-budget"`` (a solve ran out of its conflict budget; the
patterns emitted before it are kept).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import compress
from operator import xor

from .cnf import encode
from .coverage import CoverageReport, first_sightings, report_and_curve
from .graph import CircuitGraph
from .netlist import GATE_OPS
from .pattern import InputPattern
from .sat import SolverBudgetError, SolverSession
from .simulate import run_ternary
from .targets import TargetSpec, cut_targets

# Consecutive completions of one cube that the distance guard may reject
# before the cube is left and the solver asked for the next model.
REJECTS_PER_CUBE = 32

_BITS = bytes.maketrans(b"01", b"\0\1")  # a bit string's characters as 0 and 1 bytes
# the kinds whose output is X whenever one of their inputs is X
_PARITY_KINDS = frozenset(kind for kind, (op, _) in GATE_OPS.items() if op is xor)


class GenConfigError(ValueError):
    pass


@dataclass
class GenConfig:
    pattern_budget: int = 100
    d_min: int = 2
    seed: int = 0
    conflict_budget: int | None = None

    def __post_init__(self):
        if self.pattern_budget < 1:
            raise GenConfigError("pattern_budget must be >= 1")
        if self.d_min < 2:
            raise GenConfigError("d_min must be >= 2")
        if self.conflict_budget is not None and self.conflict_budget < 0:
            raise GenConfigError("conflict_budget must be >= 0")


@dataclass
class GenReport:
    patterns: list[InputPattern] = field(default_factory=list)
    observed_d_max: int = 0
    observed_d_min: int = 0
    stop_reason: str = "budget"  # "budget", "exhausted" or "solver-budget"
    solver_calls: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    solver_vars: int = 0  # the cut formula's variable count; a session never adds one
    lifted_models: int = 0  # one per SAT solve
    free_inputs_min: int | None = None  # free inputs of the lifted cubes; None
    free_inputs_median: float | None = None  # when no model was lifted
    free_inputs_max: int | None = None
    coverage: CoverageReport | None = None  # of the targets, over the patterns
    curve: list[tuple] = field(default_factory=list)  # per pattern prefix

    @property
    def pattern_count(self) -> int:
        return len(self.patterns)

    @property
    def exhausted(self) -> bool:
        """True when UNSAT, not a budget, ended the run."""
        return self.stop_reason == "exhausted"


def target_formula(graph: CircuitGraph, spec: TargetSpec):
    """``(cut, targets, formula, literals)``: the cut and entries of
    :func:`~gatefuzz.targets.cut_targets`, which checks ``spec``, the cut's
    encoding, and the target literals ``±formula.node_var(node)``, built here
    alone.  The encoding is kept on the cut, as its simulation plan is, so a
    cut is encoded once however often it is asked for."""
    cut, targets = cut_targets(graph, spec)
    formula = cut.formula
    if formula is None:
        formula = cut.formula = encode(cut)
    literals = [formula.node_var(node) * (1 if value else -1) for node, value in targets]
    return cut, targets, formula, literals


def generate(graph: CircuitGraph, spec: TargetSpec, config: GenConfig) -> GenReport:
    """Generate up to ``config.pattern_budget`` patterns that drive every
    target of ``spec``; the report's ``coverage`` and ``curve`` are theirs.

    The formula of :func:`target_formula` is solved with the target
    literals as unit clauses, and an entry the graph does not have raises
    ``TargetError``.  ``exhausted`` is set only on UNSAT, i.e. when no
    further pattern at distance >= ``d_min`` from all emitted ones exists;
    exhausted with no pattern means the targeted state is invalid.  A spent
    conflict budget ends the run with ``stop_reason == "solver-budget"`` and
    the patterns emitted so far.  Raises RuntimeError if an emitted pattern
    misses a target, or is closer than ``d_min`` to another.
    """
    width = graph.input_count
    if config.d_min > width:
        raise GenConfigError(
            f"d_min {config.d_min} exceeds the {width} primary inputs")
    cut, targets, formula, literals = target_formula(graph, spec)
    session = SolverSession(formula, decision_seed=config.seed,
                            conflict_budget=config.conflict_budget)
    for lit in literals:
        session.add_clause([lit])
    rigid = _parity_binds_every_input(cut, targets)
    rng = random.Random(config.seed)
    words: list[int] = []  # the emitted patterns' words
    free_counts: list[int] = []  # free inputs of each lifted model

    def emit(word):
        """Emit ``word`` if it keeps ``d_min`` from every emitted pattern."""
        if session.near(word):
            return False
        session.keep_distance(word, config.d_min)
        words.append(word)
        return True

    stop_reason = "budget"
    while len(words) < config.pattern_budget:
        try:
            result = session.solve()
        except SolverBudgetError:
            stop_reason = "solver-budget"
            break
        if not result.is_sat:
            stop_reason = "exhausted"
            break
        free = 0 if rigid else _lift(cut, targets, result.inputs)
        free_counts.append(free.bit_count())
        # the solver keeps models at distance, and the end pass checks that it did
        session.keep_distance(result.inputs, config.d_min)
        words.append(result.inputs)
        if free_counts[-1] < config.d_min:
            continue  # no completion is d_min away from the model
        fixed = result.inputs & ~free
        rejects = 0
        while len(words) < config.pattern_budget and rejects < REJECTS_PER_CUBE:
            rejects = 0 if emit(fixed | rng.getrandbits(width) & free) else rejects + 1
    patterns = InputPattern.from_words(words, width)
    d_lo, d_hi = distance_extremes(words, width)
    if d_lo < config.d_min and len(words) > 1:
        i, j = next((i, j) for j, b in enumerate(words) for i, a in enumerate(words[:j])
                    if (a ^ b).bit_count() == d_lo)
        raise RuntimeError(f"patterns {patterns[i].to_string()} and {patterns[j].to_string()} "
                           f"are closer than d_min {config.d_min}")
    firsts = first_sightings(graph, spec, patterns)
    for (node, value), first in zip(spec.entries, firsts):
        if first[1 - value] is not None:
            raise RuntimeError(f"pattern {patterns[first[1 - value] - 1].to_string()} "
                               f"misses target {graph.names[node]}={value}")
    coverage, curve = report_and_curve(spec, firsts, len(patterns))
    free_counts.sort()
    mid = len(free_counts) // 2
    return GenReport(
        patterns=patterns,
        observed_d_max=d_hi,
        observed_d_min=d_lo,
        stop_reason=stop_reason,
        solver_calls=session.solve_calls,
        conflicts=session.conflicts,
        decisions=session.decisions,
        propagations=session.propagations,
        solver_vars=session.nvars,
        lifted_models=len(free_counts),
        free_inputs_min=free_counts[0] if free_counts else None,
        free_inputs_median=(free_counts[mid] + free_counts[~mid]) / 2 if free_counts else None,
        free_inputs_max=free_counts[-1] if free_counts else None,
        coverage=coverage,
        curve=curve,
    )


def distance_extremes(words: list[int], width: int) -> tuple[int, int]:
    """The least and the greatest Hamming distance between two of the
    ``width``-bit ``words``, exact; ``(0, 0)`` below two words.

    Each word is counted against all of them at once.  Plane ``k`` holds bit
    ``k`` of every word, one to a field of whole bytes, word 0's field on
    top, and a field holds any distance up to ``width`` below a guard bit.
    So the planes of a word's ones, summed, and taken from the planes' sum
    and the word's popcount per field, give its distance to every word, one
    to a field, with no carry between fields.  Adding a constant to every
    field then sets the guard bits of the fields past a threshold, so an
    extreme moves by one step per test while some field passes it: at most
    ``width`` steps in all.
    """
    n = len(words)
    if n < 2:
        return 0, 0
    size = (width.bit_length() + 8) // 8  # bytes per field: a distance, and the guard bit
    guard = 1 << 8 * size - 1
    ones = int.from_bytes((bytes(size - 1) + b"\1") * n, "big")  # 1 in every field
    guards = guard * ones
    # bit k of word i, most significant first, is byte i * width + k
    flags = "".join([format(w, f"0{width}b") for w in words]).encode().translate(_BITS)
    column = bytearray(n * size)
    planes = []
    for k in range(width):
        column[size - 1::size] = flags[k::width]
        planes.append(int.from_bytes(column, "big"))
    sizes = sum(planes)  # every word's popcount
    lo, hi = width + 1, 0
    above, below = (guard - 1 - hi) * ones, (guard - lo) * ones
    for i, w in enumerate(words):
        # field j: |w_j| + |w| - 2 |w_j & w|, the distance from w_j to w
        distances = (sizes + w.bit_count() * ones
                     - 2 * sum(compress(planes, flags[i * width:(i + 1) * width])))
        while (distances + above) & guards:  # a field above hi
            hi += 1
            above = (guard - 1 - hi) * ones
        # every field but w's own, 0, at least lo
        while ((distances + below) & guards).bit_count() < n - 1:
            lo -= 1
            below = (guard - lo) * ones
    return lo, hi


def _parity_binds_every_input(graph, targets):
    """Whether every input reaches a target through XOR, XNOR, BUF and NOT
    gates alone, by one backward walk from the targets.  Such an input makes
    that target X whenever it is X, so it is never free; when every input is
    bound so, every lift is empty and :func:`generate` runs none."""
    kinds, fanins = graph.kinds, graph.fanins
    stack = [node for node, _ in targets]
    bound = set(stack)
    while stack:
        node = stack.pop()
        if kinds[node] in _PARITY_KINDS:
            for fanin in fanins[node]:
                if fanin not in bound:
                    bound.add(fanin)
                    stack.append(fanin)
    return bound.issuperset(range(graph.input_count))


def _lift(graph, targets, word):
    """The inputs of a cube around the pattern ``word`` that every target
    ignores, as a mask in the same bit order: greedily, in input order, an
    input is made X while all targets stay definite at their values.

    X-valued simulation is monotone (an X never makes a value definite), so
    an input whose X alone loses a target is never free: one pass with lane
    ``i`` making only input ``i`` X skips those.  The rest are decided by
    passes whose lane ``j`` adds the next ``j + 1`` candidates to the inputs
    already freed; the lanes that hold form a prefix, so each pass frees the
    candidates of that prefix and rejects the one after it, just as trying
    them one at a time would.
    """
    width = graph.input_count
    bits = [word >> width - 1 - i & 1 for i in range(width)]
    alone = _holding(graph, targets, bits, [1 << i for i in range(width)], width)
    candidates = [i for i in range(width) if alone >> i & 1]
    free = []
    while candidates:
        every = (1 << len(candidates)) - 1
        x_lanes = [0] * width  # lanes in which each input is X
        for i in free:
            x_lanes[i] = every
        for j, i in enumerate(candidates):
            x_lanes[i] = every ^ ((1 << j) - 1)  # lanes j and up
        held = _holding(graph, targets, bits, x_lanes, len(candidates))
        taken = (~held & held + 1).bit_length() - 1  # the lanes that hold from lane 0
        free += candidates[:taken]
        del candidates[:taken + 1]
    return sum(1 << width - 1 - i for i in free)


def _holding(graph, targets, bits, x_lanes, lanes):
    """The lanes, of ``lanes``, in which every target is definite at its
    value, with input ``i`` at ``bits[i]`` except in the lanes ``x_lanes[i]``,
    where it is X."""
    mask = (1 << lanes) - 1
    ones = [mask ^ x if b else 0 for b, x in zip(bits, x_lanes)]
    zeros = [0 if b else mask ^ x for b, x in zip(bits, x_lanes)]
    hi, lo = run_ternary(graph, ones, zeros, lanes)
    for node, value in targets:
        mask &= (hi if value else lo)[node]
    return mask


def write_patterns(report: GenReport, graph: CircuitGraph) -> str:
    """Pattern file: a header of input names, then one bitstring per line.

    The leftmost bit of each line is the first primary input.
    """
    lines = ["# " + " ".join(graph.names[:graph.input_count])]
    for p in report.patterns:
        lines.append(p.to_string())
    return "\n".join(lines) + "\n"


def read_patterns(text: str) -> list[InputPattern]:
    """Inverse of :func:`write_patterns` (header and comments skipped)."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(InputPattern.from_string(line))
    return out


def report_csv_row(report: GenReport, graph: CircuitGraph) -> str:
    """One summary CSV row: design, gate/node/input counts, target share,
    pattern count, an empty time field (data files hold no wall-clock
    values), the report's two coverage percentages, max Hamming distance."""
    gates = sum(1 for k in graph.kinds if k != "INPUT")
    cov = report.coverage
    pct_targets = 100.0 * len(cov.per_target) / graph.node_count if graph.node_count else 0.0
    return ",".join([
        graph.name,
        str(gates),
        str(graph.node_count),
        str(graph.input_count),
        f"{pct_targets:.2f}",
        str(report.pattern_count),
        "",
        f"{cov.state_coverage_pct:.2f}",
        f"{cov.site_coverage_pct:.2f}",
        str(report.observed_d_max),
    ])


REPORT_CSV_HEADER = ("design,gates,nodes,inputs,pct_target_nodes,"
                     "patterns,time_s,state_coverage_pct,site_coverage_pct,d_max")
