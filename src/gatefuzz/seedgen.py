"""SAT-driven generation of diverse targeted input patterns.

Every emitted pattern is a solver model of the circuit formula and the
target literals, so by construction it drives all target nodes to their
desired values.  Diversity is enforced as a minimum pairwise Hamming
distance: each accepted model is kept by the solver
(:meth:`~gatefuzz.sat.SolverSession.keep_distance`), which holds every later
model at least ``d_min`` primary inputs away from it, so no pattern repeats
and the session never grows beyond the formula's own variables.  Patterns
are packed ints, and one pass over the accepted words per candidate (an XOR
and a popcount each) serves both the acceptance guard and the reported
distance extremes.

The target literals hold for every solve of a run, so they are permanent
facts of the run's session: each is added once as a unit clause, and their
implications are derived once at level 0 rather than again, under
assumptions, by every solve.  A spec that propagation alone refutes is
therefore UNSAT without a conflict, whatever the conflict budget.  Naming
the targets that conflict (an assumption core) would take one more solve,
with the targets as assumptions, on the invalid path.

Generation is also the validity check: one solver session serves the whole
run, and its first model is the witness that the targeted state is reachable.
``GenReport.stop_reason`` says why generation stopped: ``"budget"`` (the
pattern budget was reached), ``"exhausted"`` (UNSAT: no further pattern at
distance >= ``d_min`` exists, and with no pattern at all the targeted state is
invalid) or ``"solver-budget"`` (a solve ran out of its conflict budget; the
patterns proven before it are kept).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cnf import CnfFormula
from .graph import CircuitGraph
from .pattern import InputPattern
from .sat import SolverBudgetError, SolverSession


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
    solver_vars: int = 0  # session variable count at the end of the run

    @property
    def pattern_count(self) -> int:
        return len(self.patterns)

    @property
    def exhausted(self) -> bool:
        """True when UNSAT, not a budget, ended the run."""
        return self.stop_reason == "exhausted"


def generate(formula: CnfFormula, target_literals, config: GenConfig) -> GenReport:
    """Generate up to ``config.pattern_budget`` targeted patterns.

    ``exhausted`` is set only on UNSAT, i.e. when no further pattern at
    distance >= ``d_min`` from all accepted ones exists; exhausted with no
    pattern means the targeted state is invalid.  A spent conflict
    budget ends the run with ``stop_reason == "solver-budget"`` and the
    patterns proven so far.
    """
    width = formula.input_count
    if config.d_min > width:
        raise GenConfigError(
            f"d_min {config.d_min} exceeds the {width} primary inputs")
    session = SolverSession(formula, decision_seed=config.seed,
                            conflict_budget=config.conflict_budget)
    for lit in target_literals:
        session.add_clause([lit])
    patterns: list[InputPattern] = []
    d_lo = d_hi = 0  # pairwise distance extremes; (0, 0) below two patterns
    stop_reason = "budget"
    while len(patterns) < config.pattern_budget:
        try:
            result = session.solve()
        except SolverBudgetError:
            stop_reason = "solver-budget"
            break
        if not result.is_sat:
            stop_reason = "exhausted"
            break
        candidate = project_model(result.model, formula)
        distances = [(candidate.word ^ p.word).bit_count() for p in patterns]
        if distances:
            nearest = min(distances)
            # The solver keeps every accepted model at distance, so only an
            # unsound solver gets here with a model too close to one.
            if nearest < config.d_min:
                raise RuntimeError(
                    f"solver model {candidate.to_string()} is closer than d_min "
                    f"{config.d_min} to an accepted pattern")
            d_lo = min(d_lo, nearest) if d_lo else nearest
            d_hi = max(d_hi, max(distances))
        session.keep_distance(result.model, config.d_min)
        patterns.append(candidate)
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
    )


def project_model(model, formula: CnfFormula) -> InputPattern:
    """Extract the primary-input bits of a total model, in input order: the
    inputs are variables ``1..input_count``."""
    word = 0
    for var in range(1, formula.input_count + 1):
        word = word << 1 | model[var]
    return InputPattern.from_word(word, formula.input_count)


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


def report_csv_row(report: GenReport, graph: CircuitGraph, state_pct: float,
                   site_pct: float, target_count: int) -> str:
    """One summary CSV row: design, gate/node/input counts, target share,
    pattern count, an empty time field (data files hold no wall-clock
    values), both coverage percentages, max Hamming distance."""
    gates = sum(1 for k in graph.kinds if k != "INPUT")
    pct_targets = 100.0 * target_count / graph.node_count if graph.node_count else 0.0
    return ",".join([
        graph.name,
        str(gates),
        str(graph.node_count),
        str(graph.input_count),
        f"{pct_targets:.2f}",
        str(report.pattern_count),
        "",
        f"{state_pct:.2f}",
        f"{site_pct:.2f}",
        str(report.observed_d_max),
    ])


REPORT_CSV_HEADER = ("design,gates,nodes,inputs,pct_target_nodes,"
                     "patterns,time_s,state_coverage_pct,site_coverage_pct,d_max")
