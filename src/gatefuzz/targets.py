"""Target sites and states: parsing, diff-based selection, validity checking.

A target spec is an ordered list of (node, desired value) pairs.  A spec is
*valid* when some primary-input assignment drives every listed node to its
desired value simultaneously; that is decided by satisfiability of the
circuit formula conjoined with the target literals, never by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import CnfFormula
from .graph import CircuitGraph, GraphDiff
from .pattern import InputPattern
from .sat import SolverSession


class TargetError(ValueError):
    pass


@dataclass
class TargetSpec:
    """Ordered (node id, desired bit) pairs plus their provenance."""

    entries: list[tuple[int, int]]
    source: str = "manual"  # "manual" or "graph-diff"

    def __len__(self):
        return len(self.entries)

    def nodes(self) -> list[int]:
        return [node for node, _ in self.entries]

    def to_text(self, graph: CircuitGraph) -> str:
        return "".join(f"{graph.names[node]}={bit}\n" for node, bit in self.entries)


@dataclass
class ValidityVerdict:
    status: str  # "valid" or "invalid"
    witness: InputPattern | None = None

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"


def parse_targets(text: str, graph: CircuitGraph) -> TargetSpec:
    """Parse ``<node-name>=<0|1>`` lines; ``#`` comments and blanks ignored."""
    entries = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or not name:
            raise TargetError(f"line {lineno}: expected <node-name>=<0|1>, got {line!r}")
        if value not in ("0", "1"):
            raise TargetError(f"line {lineno}: desired value must be 0 or 1, got {value!r}")
        if name not in graph.name_to_id:
            raise TargetError(f"line {lineno}: unknown node {name!r}")
        node = graph.name_to_id[name]
        if node in seen:
            raise TargetError(f"line {lineno}: duplicate target node {name!r}")
        seen.add(node)
        entries.append((node, int(value)))
    return TargetSpec(entries=entries, source="manual")


def targets_from_diff(diff: GraphDiff, desired_default: str = "both") -> list[TargetSpec]:
    """Build target specs over all changed and added nodes of a graph diff.

    ``desired_default`` is ``"0"``, ``"1"`` or ``"both"``; ``both`` yields one
    all-zeros and one all-ones spec.  An empty diff yields no specs.
    """
    if desired_default not in ("0", "1", "both"):
        raise TargetError(f"desired_default must be '0', '1' or 'both', got {desired_default!r}")
    nodes = diff.target_nodes()
    if not nodes:
        return []
    polarities = (0, 1) if desired_default == "both" else (int(desired_default),)
    return [TargetSpec(entries=[(n, bit) for n in nodes], source="graph-diff")
            for bit in polarities]


def build_target_formula(spec: TargetSpec, formula: CnfFormula) -> list[int]:
    """Translate desired states into literals: positive for 1, negated for 0.

    The conjunction of these literals is what the solver takes as assumptions
    (or unit clauses) on top of the circuit formula.
    """
    literals = []
    for node, bit in spec.entries:
        var = formula.node_to_var.get(node)
        if var is None:
            raise TargetError(f"target node {node} has no variable in the formula")
        literals.append(var if bit else -var)
    return literals


def check_validity(spec: TargetSpec, formula: CnfFormula,
                   decision_seed: int = 0,
                   conflict_budget: int | None = None) -> ValidityVerdict:
    """Decide whether the targeted state is reachable; SAT means valid.

    On SAT the model's primary-input projection is kept as a witness pattern:
    simulating it drives every target entry to its desired value.  It is the
    first pattern that ``seedgen.generate`` returns for the same seed.
    """
    literals = build_target_formula(spec, formula)
    session = SolverSession(formula, decision_seed=decision_seed,
                            conflict_budget=conflict_budget)
    result = session.solve(assumptions=literals)
    if not result.is_sat:
        return ValidityVerdict(status="invalid")
    witness = project_model(result.model, formula)
    return ValidityVerdict(status="valid", witness=witness)


def project_model(model, formula: CnfFormula) -> InputPattern:
    """Extract the primary-input bits of a total model, in input order."""
    word = 0
    for var in formula.input_vars:
        word = word << 1 | model[var]
    return InputPattern.from_word(word, len(formula.input_vars))
