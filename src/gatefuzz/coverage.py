"""Target state and target site coverage over simulated pattern sets.

State coverage counts a target node as covered once any applied pattern
drives it to its desired value.  Site coverage uses toggle semantics: a
target node is covered once the pattern set has exercised it to both 0 and
1.  Both metrics are cumulative, so appending patterns never decreases them.

:func:`first_sightings` finds the first pattern that drove each target to 0
and to 1, by wide-word passes over the cut graph of the targets' fan-in cone
(:func:`~gatefuzz.targets.cut_targets`), and
:func:`report_and_curve` builds the report and per-prefix curve from those
numbers alone.  Generation's closing check is that pass over its patterns,
and the CGF loop knows the numbers as its admissions, so neither simulates
again to be measured.  :func:`measure` is the two in sequence, and returns
the report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import CircuitGraph
from .simulate import run_pass
from .targets import TargetSpec, cut_targets

# Widest simulation pass over a long pattern list: a pass holds one word of
# PASS_LANES bits per simulated node, so memory stays flat in the list length.
PASS_LANES = 1024


@dataclass
class TargetCoverage:
    node: int
    desired: int
    reached_state: bool = False
    saw_0: bool = False
    saw_1: bool = False
    first_reach_index: int | None = None  # 1-based pattern number

    @property
    def toggled(self) -> bool:
        return self.saw_0 and self.saw_1


@dataclass
class CoverageReport:
    per_target: list[TargetCoverage]
    state_coverage_pct: float
    site_coverage_pct: float
    patterns_applied: int


def first_sightings(graph: CircuitGraph, spec: TargetSpec, patterns) -> list[list]:
    """``[first_0, first_1]`` per entry of ``spec``: the 1-based numbers of
    the first patterns that drove its node to 0 and to 1, ``None`` where none
    did.  The passes run on the cut of :func:`~gatefuzz.targets.cut_targets`,
    which raises its ``TargetError`` for a bad spec; a pass of up to
    :data:`PASS_LANES` patterns finds a target's first 0 and first 1 as the
    lowest set bits of its complemented and plain words."""
    cut, targets = cut_targets(graph, spec)
    firsts = [[None, None] for _ in targets]
    for start in range(0, len(patterns), PASS_LANES):
        chunk = patterns[start:start + PASS_LANES]
        words = run_pass(cut, chunk)
        mask = (1 << len(chunk)) - 1
        for (node, _), first in zip(targets, firsts):
            for value, lanes in enumerate((words[node] ^ mask, words[node])):
                if first[value] is None and lanes:
                    first[value] = start + (lanes & -lanes).bit_length()
    return firsts


def report_and_curve(spec: TargetSpec, firsts, count: int):
    """Coverage report and per-prefix curve of ``count`` patterns, from when
    each target was first seen at 0 and at 1.

    ``firsts`` holds one ``(first_0, first_1)`` per entry of ``spec``: the
    1-based numbers of the first patterns that drove the entry's node to 0 and
    to 1, or ``None`` where none did.  A target's state is reached at the
    first of those equal to its desired value, and its site is toggled at the
    later of the two.  The curve lists ``(pattern_number, state_pct,
    site_pct)`` for every prefix; its final point equals the report, and both
    coordinates are nondecreasing.
    """
    per_target = [
        TargetCoverage(node=node, desired=desired, reached_state=first[desired] is not None,
                       saw_0=first[0] is not None, saw_1=first[1] is not None,
                       first_reach_index=first[desired])
        for (node, desired), first in zip(spec.entries, firsts)]
    k = len(per_target)
    reached_at = [0] * (count + 1)
    toggled_at = [0] * (count + 1)
    for t, first in zip(per_target, firsts):
        if t.reached_state:
            reached_at[t.first_reach_index] += 1
        if t.toggled:
            toggled_at[max(first)] += 1
    curve = []
    reached = toggled = 0
    for number in range(1, count + 1):
        reached += reached_at[number]
        toggled += toggled_at[number]
        curve.append((number,) + _percentages(reached, toggled, k))
    state_pct, site_pct = _percentages(reached, toggled, k)
    report = CoverageReport(
        per_target=per_target,
        state_coverage_pct=state_pct,
        site_coverage_pct=site_pct,
        patterns_applied=count,
    )
    return report, curve


def measure(graph: CircuitGraph, spec: TargetSpec, patterns) -> CoverageReport:
    """Coverage of the target spec over the whole pattern sequence: the report
    of :func:`report_and_curve` on the :func:`first_sightings` of ``patterns``."""
    return report_and_curve(spec, first_sightings(graph, spec, patterns), len(patterns))[0]


def _percentages(reached, toggled, k):
    if k == 0:
        return 100.0, 100.0  # vacuous: no targets to miss
    return 100.0 * reached / k, 100.0 * toggled / k


def curve_csv(curve) -> str:
    lines = ["pattern_index,state_coverage_pct,site_coverage_pct"]
    for number, state_pct, site_pct in curve:
        lines.append(f"{number},{state_pct:.2f},{site_pct:.2f}")
    return "\n".join(lines) + "\n"
