"""Coverage-guided greybox fuzzing baseline over the same simulator.

The classic mutate/simulate/admit loop: seeds whose valuations exercise a new
(target node, value) pair join the corpus, and future mutants are bred from
uniformly chosen corpus seeds.  Fitness is target-restricted toggle coverage,
which makes the baseline as directed-friendly as a greybox loop can be.
Everything is driven by one seeded RNG, so runs are reproducible.

Mutants are simulated :data:`WINDOW` at a time, over the targets' fan-in cone
only, yet the run is the same executed sequence as evaluating one mutant at a
time: a window is bred from the corpus as it stands, its first lane that shows
an unseen pair is the next admission, the lanes after it are dropped, and the
RNG is rewound to just after that lane before the next window is bred.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .coverage import CoverageReport, measure_with_curve
from .graph import CircuitGraph
from .pattern import InputPattern
from .simulate import compile_ops, run_pass
from .targets import TargetSpec

FULL_RANDOM_PROB = 0.1
MULTI_FLIP_CONTINUE_PROB = 0.5
WINDOW = 64  # mutants bred and simulated per pass


@dataclass
class CorpusSeed:
    pattern: InputPattern
    fitness: int  # count of (target node, value) pairs that were new at admission


@dataclass
class Corpus:
    seeds: list[CorpusSeed] = field(default_factory=list)


@dataclass
class CgfResult:
    executed: list[InputPattern]
    report: CoverageReport
    curve: list[tuple]
    corpus: Corpus


def run_cgf(graph: CircuitGraph, spec: TargetSpec, budget: int,
            rng_seed: int = 0) -> CgfResult:
    """Run exactly ``budget`` simulations of mutated patterns.

    The corpus starts from one uniform-random pattern.  Mutation picks a
    corpus seed uniformly and either replaces it wholesale (probability 0.1)
    or flips ``w`` distinct bits with ``w`` drawn geometrically (w=1 is the
    plain single-bit flip).  Each mutant is bred from the corpus as it stands
    after every earlier execution.  Coverage is reported over all executed
    patterns, not just admitted ones.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = random.Random(rng_seed)
    width = graph.input_count
    corpus = Corpus()
    unseen = {(node, value) for node in spec.nodes() for value in (0, 1)}
    ops = compile_ops(graph, spec.nodes())
    executed: list[InputPattern] = []

    def breed():
        if not corpus.seeds:
            return _random_pattern(rng, width)
        return _mutate(rng, rng.choice(corpus.seeds).pattern, width)

    while len(executed) < budget:
        state = rng.getstate()
        window = [breed() for _ in range(min(WINDOW, budget - len(executed)))]
        hits = 0
        if unseen:
            words = run_pass(graph, ops, window)
            mask = (1 << len(window)) - 1
            lanes_of = {pair: words[pair[0]] ^ (0 if pair[1] else mask) for pair in unseen}
            for lanes in lanes_of.values():
                hits |= lanes
        if not hits:
            executed.extend(window)
            continue
        first = hits & -hits
        lane = first.bit_length() - 1
        executed.extend(window[:lane + 1])
        # replay up to the admitted lane while the corpus is still the one
        # the window was bred from
        rng.setstate(state)
        for _ in range(lane + 1):
            breed()
        new_pairs = {pair for pair, lanes in lanes_of.items() if lanes & first}
        unseen -= new_pairs
        corpus.seeds.append(CorpusSeed(pattern=window[lane], fitness=len(new_pairs)))

    report, curve = measure_with_curve(graph, spec, executed)
    return CgfResult(executed=executed, report=report, curve=curve, corpus=corpus)


def _random_pattern(rng, width):
    word = 0  # the first draw is the first input
    for _ in range(width):
        word = word << 1 | rng.randrange(2)
    return InputPattern.from_word(word, width)


def _mutate(rng, parent: InputPattern, width):
    if width == 0:
        return parent
    if rng.random() < FULL_RANDOM_PROB:
        return _random_pattern(rng, width)
    w = 1
    while w < width and rng.random() < MULTI_FLIP_CONTINUE_PROB:
        w += 1
    return parent.flipped(rng.sample(range(width), w))
