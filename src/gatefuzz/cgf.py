"""Coverage-guided greybox fuzzing baseline over the same simulator.

The classic mutate/simulate/admit loop: a pattern is admitted to the corpus
when its valuation shows a (target node, value) pair that no executed
pattern showed before, and future mutants are bred from uniformly chosen
corpus patterns.  Admission looks only at the targets, which makes the
baseline as directed-friendly as a greybox loop can be.  Everything is
driven by one seeded RNG, so runs are reproducible.

Mutants are bred and simulated a window at a time, one lane per mutant, by
:func:`~gatefuzz.simulate.run_pass` over the cut graph of the targets' fan-in
cone, which keeps the graph's inputs; :func:`~gatefuzz.targets.cut_targets`
checks the spec and maps it onto that cut, memoized per graph and target set.
Yet the run is the same executed sequence as evaluating one mutant at a time.
A window is bred from the corpus as it stands, and its first lane that shows
an unseen pair is the next admission; the RNG is rewound to just after that
lane.  The walk then goes on through the window: each later lane is bred
again from the grown corpus, and if it comes out equal to the simulated lane
it is the next execution, its pairs read from the pass's words (a valuation
depends only on its pattern), so it may be admitted too.  The first lane bred
differently ends the walk and leads the next window, so the RNG is never
rewound past it.  Most lanes come out unchanged, as a choice among n and n + 1
seeds mostly makes the same draws and a mutation makes the same draws
whatever its parent, so one pass serves several admissions.  Admissions come
a few lanes apart, so a window starts at :data:`FIRST_WINDOW` lanes, doubles
after every window without a hit up to :data:`WINDOW`, and starts small again
after each admission; the lanes bred and thrown away stay few.
Once every pair is seen, the rest of the budget is bred without simulation.

No lane before an admitted one shows an unseen pair, so a pair's first
pattern is the admission that removed it from the unseen set: the coverage
report and curve are built from those pattern numbers, with no second pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .coverage import CoverageReport, report_and_curve
from .graph import CircuitGraph
from .pattern import InputPattern
from .simulate import run_pass
from .targets import TargetSpec, cut_targets

FULL_RANDOM_PROB = 0.1
MULTI_FLIP_CONTINUE_PROB = 0.5
FIRST_WINDOW = 8  # mutants bred and simulated in the first pass after an admission
WINDOW = 64  # the most mutants bred and simulated per pass


@dataclass
class Corpus:
    seeds: list[InputPattern] = field(default_factory=list)  # the admitted patterns, in order


@dataclass
class CgfResult:
    executed: list[InputPattern]
    report: CoverageReport
    curve: list[tuple]
    corpus: Corpus
    passes: int  # simulation passes the run made


def run_cgf(graph: CircuitGraph, spec: TargetSpec, budget: int,
            rng_seed: int = 0) -> CgfResult:
    """Execute exactly ``budget`` mutated patterns.

    The first pattern is uniform random, one ``getrandbits`` over all inputs.
    Every later one picks an admitted pattern uniformly and either replaces
    it wholesale (probability 0.1) or flips ``w`` distinct inputs, with ``w``
    drawn geometrically (w=1 is the plain single-input flip) and the inputs
    drawn uniformly, one ``randrange`` at a time until ``w`` are distinct.
    Each mutant is bred from the corpus as it stands after every earlier
    execution; the corpus is the admitted patterns, in admission order.

    Mutants are simulated in windows of :data:`FIRST_WINDOW` lanes after an
    admission, doubling after each window without a hit up to :data:`WINDOW`,
    and the lanes after an admission that the grown corpus breeds unchanged
    are executed from the same pass; neither changes the executed sequence.
    Coverage is reported over all executed patterns, not just admitted ones,
    and is read from the admissions: a (target node, value) pair is first seen
    at the execution that admitted it.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = random.Random(rng_seed)
    width = graph.input_count
    corpus = Corpus()
    cut, targets = cut_targets(graph, spec)
    unseen = {(node, value) for node, _ in targets for value in (0, 1)}
    first_seen = {}  # (node, value) -> 1-based number of the admitting pattern
    executed: list[InputPattern] = []

    def breed():
        if not corpus.seeds:
            return _random_pattern(rng, width)
        return _mutate(rng, rng.choice(corpus.seeds), width)

    size, passes = FIRST_WINDOW, 0
    lead = []  # a mutant bred from the grown corpus, not yet simulated
    while unseen and len(executed) < budget:
        state = rng.getstate()
        window = lead + [breed() for _ in range(min(size, budget - len(executed)) - len(lead))]
        words = run_pass(cut, window)
        passes += 1
        mask = (1 << len(window)) - 1
        lanes_of = {pair: words[pair[0]] ^ (0 if pair[1] else mask) for pair in unseen}
        hits = reduce(or_, lanes_of.values(), 0)
        if not hits:
            executed.extend(window)
            lead = []
            size = min(2 * size, WINDOW)
            continue
        lane = (hits & -hits).bit_length() - 1
        executed.extend(window[:lane])
        # replay up to the admitted lane while the corpus is still the one
        # the window was bred from
        rng.setstate(state)
        for _ in range(lane + 1 - len(lead)):
            breed()
        lead = []
        # walk on while the grown corpus breeds the lanes as they were simulated
        while True:
            executed.append(window[lane])
            if hits >> lane & 1:
                new_pairs = {pair for pair in unseen if lanes_of[pair] >> lane & 1}
                unseen -= new_pairs
                first_seen.update(dict.fromkeys(new_pairs, len(executed)))
                corpus.seeds.append(window[lane])
                hits = reduce(or_, map(lanes_of.get, unseen), 0)
            lane += 1
            if lane == len(window) or not unseen:
                break
            mutant = breed()
            if mutant != window[lane]:
                lead = [mutant]
                break
        size = FIRST_WINDOW
    while len(executed) < budget:
        executed.append(breed())

    firsts = [(first_seen.get((node, 0)), first_seen.get((node, 1))) for node, _ in targets]
    report, curve = report_and_curve(spec, firsts, len(executed))
    return CgfResult(executed=executed, report=report, curve=curve, corpus=corpus,
                     passes=passes)


def _random_pattern(rng, width):
    return InputPattern.from_word(rng.getrandbits(width), width)


def _mutate(rng, parent: InputPattern, width):
    if width == 0:
        return parent
    if rng.random() < FULL_RANDOM_PROB:
        return _random_pattern(rng, width)
    w = 1
    while w < width and rng.random() < MULTI_FLIP_CONTINUE_PROB:
        w += 1
    mask = 0  # input i is bit width - 1 - i
    while mask.bit_count() < w:
        mask |= 1 << (width - 1 - rng.randrange(width))
    return InputPattern.from_word(parent.word ^ mask, width)
