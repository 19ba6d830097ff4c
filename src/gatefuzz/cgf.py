"""Coverage-guided greybox fuzzing baseline over the same simulator.

The classic mutate/simulate/admit loop: a pattern is admitted to the corpus
when its valuation shows a (target node, value) pair that no executed
pattern showed before, and future mutants are bred from uniformly chosen
corpus patterns.  Admission looks only at the targets, which makes the
baseline as directed-friendly as a greybox loop can be.  Everything is
driven by one seeded RNG, so runs are reproducible.

Mutants are bred, compared and kept as packed words, ints of the graph's
input count whose top bit is the first input (an
:class:`~gatefuzz.pattern.InputPattern`'s ``word``); patterns are made only
for the result.  They are simulated a window at a time, one lane per mutant,
by :func:`~gatefuzz.simulate.run_words` over the cut graph of the targets'
fan-in cone, which keeps the graph's inputs; :func:`~gatefuzz.targets.cut_targets`
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
whatever its parent, so one pass serves several admissions.

Each window is sized from the last walk: twice the lanes the last pass
executed, clamped to :data:`FIRST_WINDOW`..:data:`WINDOW`.  Windows double
while nothing is found and stay small while admissions come a few lanes
apart, so few lanes are bred and thrown away.  :data:`WINDOW` is the lanes of
one CPython int digit (30 on 64-bit builds): a pass costs nearly the same at
1 and 30 lanes, but a word of two digits makes every gate about a third
dearer.  Once every pair is seen, the rest of the budget is bred without
simulation.

No lane before an admitted one shows an unseen pair, so a pair's first
pattern is the admission that removed it from the unseen set: the coverage
report and curve are built from those pattern numbers, with no second pass.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .coverage import CoverageReport, report_and_curve
from .graph import CircuitGraph
from .pattern import InputPattern
from .simulate import run_words
from .targets import TargetSpec, cut_targets

FULL_RANDOM_PROB = 0.1
MULTI_FLIP_CONTINUE_PROB = 0.5
FIRST_WINDOW = 8  # the fewest mutants bred and simulated per pass
WINDOW = sys.int_info.bits_per_digit  # the most: the lanes of one int digit


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

    Mutants are bred and kept as packed words and simulated in windows;
    after a pass that executed ``k`` lanes the next window has
    ``2k`` lanes, at least :data:`FIRST_WINDOW` and at most :data:`WINDOW`
    (one int digit, beyond which a pass costs a third more).  The lanes
    after an admission that the grown corpus breeds unchanged are executed
    from the same pass.  None of this changes the executed sequence; only
    ``passes`` depends on it.  Coverage is reported over all executed
    patterns, not just admitted ones, and is read from the admissions: a
    (target node, value) pair is first seen at the execution that admitted it.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = random.Random(rng_seed)
    width = graph.input_count
    cut, targets = cut_targets(graph, spec)
    unseen = {(node, value) for node, _ in targets for value in (0, 1)}
    first_seen = {}  # (node, value) -> 1-based number of the admitting pattern
    seeds: list[int] = []  # the admitted words, in order
    executed: list[int] = []

    size, passes = FIRST_WINDOW, 0
    lead = []  # a mutant bred from the grown corpus, not yet simulated
    while unseen and len(executed) < budget:
        state = rng.getstate()
        window = lead + [_breed(rng, seeds, width)
                          for _ in range(min(size, budget - len(executed)) - len(lead))]
        carried, lead = len(lead), []
        words = run_words(cut, window)
        passes += 1
        mask = (1 << len(window)) - 1
        lanes_of = {pair: words[pair[0]] ^ (0 if pair[1] else mask) for pair in unseen}
        hits = reduce(or_, lanes_of.values(), 0)
        if not hits:
            executed.extend(window)
            lane = len(window)
        else:
            lane = (hits & -hits).bit_length() - 1
            executed.extend(window[:lane])
            # replay up to the admitted lane while the corpus is still the one
            # the window was bred from
            rng.setstate(state)
            for _ in range(lane + 1 - carried):
                _breed(rng, seeds, width)
            # walk on while the grown corpus breeds the lanes as they were simulated
            while True:
                executed.append(window[lane])
                if hits >> lane & 1:
                    new_pairs = {pair for pair in unseen if lanes_of[pair] >> lane & 1}
                    unseen -= new_pairs
                    first_seen.update(dict.fromkeys(new_pairs, len(executed)))
                    seeds.append(window[lane])
                    hits = reduce(or_, map(lanes_of.get, unseen), 0)
                lane += 1
                if lane == len(window) or not unseen:
                    break
                mutant = _breed(rng, seeds, width)
                if mutant != window[lane]:
                    lead = [mutant]
                    break
        # lane is the number of the window's lanes executed
        size = max(FIRST_WINDOW, min(WINDOW, 2 * lane))
    while len(executed) < budget:
        executed.append(_breed(rng, seeds, width))

    firsts = [(first_seen.get((node, 0)), first_seen.get((node, 1))) for node, _ in targets]
    report, curve = report_and_curve(spec, firsts, len(executed))
    patterns = [InputPattern.from_word(word, width) for word in executed]
    corpus = Corpus([InputPattern.from_word(word, width) for word in seeds])
    return CgfResult(executed=patterns, report=report, curve=curve, corpus=corpus,
                     passes=passes)


def _breed(rng, seeds: list[int], width: int) -> int:
    """The next mutant's word: uniform random while ``seeds`` is empty, else
    a uniformly chosen seed, replaced wholesale or with inputs flipped."""
    if not seeds:
        return rng.getrandbits(width)
    parent = rng.choice(seeds)
    if width == 0:
        return parent
    if rng.random() < FULL_RANDOM_PROB:
        return rng.getrandbits(width)
    w = 1
    while w < width and rng.random() < MULTI_FLIP_CONTINUE_PROB:
        w += 1
    mask = 0  # input i is bit width - 1 - i
    while mask.bit_count() < w:
        mask |= 1 << (width - 1 - rng.randrange(width))
    return parent ^ mask
