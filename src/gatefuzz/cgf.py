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

Each window opens with a lead, a mutant bred from the real corpus: the lane
the last walk bred differently, or else a fresh one.  The RNG state is saved
after it, and up to :data:`WINDOW` - 1 more lanes are bred, as many as the
budget leaves.  After a window whose every executed lane was admitted, and
for the first window, whose lead always is, the window is hopeful: lane k is
bred from the corpus plus lanes 0..k-1, as if each will be admitted.
Otherwise every lane is bred from the corpus as it stands.  After the pass
the walk keeps one rule.  It sets the RNG back to the saved state and
executes the lead as it is.  Then it breeds each later lane again from the
real corpus, and while that comes out equal to the simulated lane, the lane
is the next execution, its pairs read from the pass's words (a valuation
depends only on its pattern).  The first lane bred differently ends the walk
and leads the next window, so the RNG always stands just after the last
mutant bred from the real corpus.  Most lanes come out unchanged, as a
choice among n and n + 1 seeds mostly makes the same draws and a mutation
makes the same draws whatever its parent, so one pass serves several
admissions.  The walk stops once every pair is seen, and the rest of the
budget is bred without simulation from the RNG as it stood after the last
execution.

Each pass puts the unseen pairs into buckets once, by the first lane that
shows them.  No executed lane before that one showed the pair, so a lane is
admitted exactly when its bucket is not empty, and the bucket holds the pairs
its admission sees first.

:data:`WINDOW` is the lanes of one CPython int digit (30 on 64-bit builds):
a pass costs nearly the same at 1 and 30 lanes, but a word of two digits
makes every gate about a third dearer.

No lane before an admitted one shows an unseen pair, so a pair's first
pattern is the admission that removed it from the unseen set: the coverage
report and curve are built from those pattern numbers, with no second pass.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field

from .coverage import CoverageReport, report_and_curve
from .graph import CircuitGraph
from .pattern import InputPattern
from .simulate import run_words
from .targets import TargetSpec, cut_targets

FULL_RANDOM_PROB = 0.1
MULTI_FLIP_CONTINUE_PROB = 0.5
WINDOW = sys.int_info.bits_per_digit  # mutants simulated per pass: one int digit's lanes


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

    Mutants are bred and kept as packed words and simulated in windows of
    at most :data:`WINDOW` lanes (one int digit, beyond which a pass costs
    a third more).  Each window opens with a mutant bred from the real
    corpus; after a window whose every executed lane was admitted, and for
    the first window, each later lane is bred as if every earlier lane of
    its window will be admitted, otherwise from the corpus as it stands.
    After the pass, the RNG is set back to where it stood after the opening
    mutant, which is executed, and each later lane is executed from the
    pass while the real corpus breeds it unchanged.  None of this changes
    the executed sequence; only ``passes`` depends on it.  Coverage is
    reported over all executed patterns, not just admitted ones, and is
    read from the admissions: a (target node, value) pair is first seen at
    the execution that admitted it.
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

    passes = 0
    hopeful = True  # breed lane k as if lanes 0..k-1 are admitted: the first always is
    lead = None  # the mutant the last walk bred differently, not yet executed
    while unseen and len(executed) < budget:
        window = [_breed(rng, seeds, width) if lead is None else lead]
        state = rng.getstate()
        while len(window) < min(WINDOW, budget - len(executed)):
            window.append(_breed(rng, seeds + window if hopeful else seeds, width))
        words = run_words(cut, window)
        passes += 1
        mask = (1 << len(window)) - 1
        found = {}  # lane -> the unseen pairs that lane is the first to show
        for pair in unseen:
            lanes = words[pair[0]] ^ (0 if pair[1] else mask)
            if lanes:
                found.setdefault((lanes & -lanes).bit_length() - 1, []).append(pair)
        rng.setstate(state)
        hopeful, lead = True, None
        for lane, word in enumerate(window):
            if lane:
                if not unseen:
                    break
                mutant = _breed(rng, seeds, width)
                if mutant != word:
                    lead = mutant
                    break
            executed.append(word)
            pairs = found.get(lane)
            if pairs:
                unseen.difference_update(pairs)
                first_seen.update(dict.fromkeys(pairs, len(executed)))
                seeds.append(word)
            else:
                hopeful = False
    while len(executed) < budget:
        executed.append(_breed(rng, seeds, width))

    firsts = [(first_seen.get((node, 0)), first_seen.get((node, 1))) for node, _ in targets]
    report, curve = report_and_curve(spec, firsts, len(executed))
    return CgfResult(executed=InputPattern.from_words(executed, width), report=report,
                     curve=curve, corpus=Corpus(InputPattern.from_words(seeds, width)),
                     passes=passes)


def _breed(rng, seeds: list[int], width: int) -> int:
    """The next mutant's word: uniform random while ``seeds`` is empty, else
    a uniformly chosen seed, replaced wholesale or with inputs flipped.

    The seed and each flipped input are drawn as ``Random.choice`` and
    ``Random.randrange`` draw them, by CPython's own rejection loop: a draw
    of ``n.bit_length()`` bits, again while it is ``n`` or more.  So this
    makes their draws and leaves the RNG in their state, without their
    Python-level wrappers."""
    getrandbits = rng.getrandbits
    if not seeds:
        return getrandbits(width)
    n = len(seeds)
    bits = n.bit_length()
    i = getrandbits(bits)
    while i >= n:
        i = getrandbits(bits)
    parent = seeds[i]
    if width == 0:
        return parent
    if rng.random() < FULL_RANDOM_PROB:
        return getrandbits(width)
    w = 1
    while w < width and rng.random() < MULTI_FLIP_CONTINUE_PROB:
        w += 1
    bits, top = width.bit_length(), width - 1
    mask = 0  # input i is bit width - 1 - i
    while mask.bit_count() < w:
        i = getrandbits(bits)
        if i < width:
            mask |= 1 << top - i
    return parent ^ mask
