"""Workload inputs and the output oracle, independent of the code under test.

Everything here is pinned inside the benchmark so that an edit to the
program or to its tests cannot silently change what is measured:

* :func:`random_circuit` repeats the generator and RNG call order of
  ``tests/conftest.py::random_netlist`` (``with_dffs=False``);
  ``test_workloads.py`` checks that both give the same netlist.
* :func:`pick_targets` chooses the highest-level gates and their values under
  a seeded random witness pattern, so every spec is valid by construction.
* :func:`evaluate` is a reference word-parallel evaluator used by the oracle;
  it reads only ``.bench`` text and shares no code with ``gatefuzz``.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass

BINARY_KINDS = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR")
UNARY_KINDS = ("NOT", "BUF")

SYNTH_INPUTS = 64
SYNTH_GATES = 20_000


@dataclass
class Circuit:
    """A DFF-free netlist: gates are (output, kind, inputs) in declaration order."""

    name: str
    inputs: list[str]
    outputs: list[str]
    gates: list[tuple[str, str, tuple[str, ...]]]

    def to_bench(self) -> str:
        lines = [f"# {self.name}"]
        lines += [f"INPUT({pi})" for pi in self.inputs]
        lines += [f"OUTPUT({po})" for po in self.outputs]
        lines += [f"{out} = {kind}({', '.join(ins)})" for out, kind, ins in self.gates]
        return "\n".join(lines) + "\n"


def random_circuit(rng: random.Random, n_inputs: int, n_gates: int) -> Circuit:
    """Random acyclic circuit; same RNG calls as the test suite's ``random_netlist``."""
    name = f"rand{rng.randrange(1 << 30)}"
    inputs = [f"x{i}" for i in range(n_inputs)]
    signals = list(inputs)
    gates = []
    for g in range(n_gates):
        out = f"g{g}"
        if rng.random() < 0.2:
            gates.append((out, rng.choice(UNARY_KINDS), (rng.choice(signals),)))
        else:
            kind = rng.choice(BINARY_KINDS)
            arity = rng.choice((2, 2, 2, 3))
            gates.append((out, kind, tuple(rng.choice(signals) for _ in range(arity))))
        signals.append(out)
    outputs = [gates[-1][0]]
    for out, _, _ in gates[:-1]:
        if rng.random() < 0.1:
            outputs.append(out)
    return Circuit(name, inputs, outputs, gates)


_LINE = re.compile(r"^(?:(INPUT|OUTPUT)\s*\(\s*(\S+?)\s*\)|(\S+)\s*=\s*(\w+)\s*\((.*)\))$")


def parse_bench_text(text: str, name: str) -> Circuit:
    """Minimal ``.bench`` reader for DFF-free circuits (the oracle's own parser)."""
    circuit = Circuit(name, [], [], [])
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE.match(line)
        if m is None:
            raise ValueError(f"unreadable .bench line {line!r}")
        io_kind, io_name, out, kind, args = m.groups()
        if io_kind == "INPUT":
            circuit.inputs.append(io_name)
        elif io_kind == "OUTPUT":
            circuit.outputs.append(io_name)
        else:
            kind = "BUF" if kind.upper() == "BUFF" else kind.upper()
            if kind not in BINARY_KINDS + UNARY_KINDS:
                raise ValueError(f"reference evaluator has no gate kind {kind!r}")
            circuit.gates.append((out, kind, tuple(a.strip() for a in args.split(","))))
    return circuit


def evaluate(circuit: Circuit, patterns: list[str]) -> dict[str, int]:
    """Value of every signal under every pattern, one bit lane per pattern.

    ``patterns`` are bitstrings whose first character is the first input;
    bit ``j`` of the returned word for a signal is its value under pattern ``j``.
    """
    mask = (1 << len(patterns)) - 1
    words = {}
    for position, name in enumerate(circuit.inputs):
        words[name] = int("".join(p[position] for p in reversed(patterns)) or "0", 2)
    for out, kind, ins in circuit.gates:
        vals = [words[s] for s in ins]
        if kind in ("AND", "NAND"):
            acc = mask
            for v in vals:
                acc &= v
        elif kind in ("OR", "NOR"):
            acc = 0
            for v in vals:
                acc |= v
        elif kind in ("XOR", "XNOR"):
            acc = 0
            for v in vals:
                acc ^= v
        else:  # NOT, BUF
            acc = vals[0]
        if kind in ("NAND", "NOR", "XNOR", "NOT"):
            acc ^= mask
        words[out] = acc
    return words


def pick_targets(circuit: Circuit, count: int, rng: random.Random) -> list[tuple[str, int]]:
    """The ``count`` highest-level gates (ties by id) at their values under a
    random witness pattern drawn from ``rng``."""
    level = dict.fromkeys(circuit.inputs, 0)
    for out, _, ins in circuit.gates:
        level[out] = 1 + max(level[s] for s in ins)
    order = sorted(range(len(circuit.gates)),
                   key=lambda i: (-level[circuit.gates[i][0]], i))
    chosen = [circuit.gates[i][0] for i in order[:count]]
    witness = "".join(str(rng.randrange(2)) for _ in circuit.inputs)
    words = evaluate(circuit, [witness])
    return [(name, words[name] & 1) for name in chosen]


def targets_text(entries) -> str:
    return "".join(f"{name}={bit}\n" for name, bit in entries)


def synthetic_workload(seed: int, target_count: int) -> tuple[Circuit, list[tuple[str, int]]]:
    """The seeded 20k-gate circuit and its valid-by-construction target spec."""
    circuit = random_circuit(random.Random(seed), SYNTH_INPUTS, SYNTH_GATES)
    entries = pick_targets(circuit, target_count, random.Random(f"witness-{seed}"))
    return circuit, entries


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# -- oracle ------------------------------------------------------------------


def check_gen(circuit: Circuit, entries, patterns: list[str], requested: int,
              d_min: int, exhausted: bool, exit_code: int) -> dict:
    """Judge a ``gen`` run: every pattern drives every target, patterns are
    pairwise at distance >= ``d_min`` with no duplicates, and the count is the
    budget unless the run reported exhaustion.  One operation is one requested
    pattern; a nonzero exit code fails all of them."""
    if exit_code != 0:
        return {"attempted": requested, "failed": requested,
                "problems": [f"exit code {exit_code}"], "hamming_mean": 0.0}
    problems = []
    width = len(circuit.inputs)
    good_idx = [i for i, p in enumerate(patterns)
                if len(p) == width and set(p) <= {"0", "1"}]
    bad = set(range(len(patterns))) - set(good_idx)
    if bad:
        problems.append(f"{len(bad)} malformed patterns")
    good = [patterns[i] for i in good_idx]
    words = evaluate(circuit, good)
    full = (1 << len(good)) - 1
    for name, bit in entries:
        missed = words[name] ^ (full if bit else 0)
        lanes = [good_idx[j] for j in range(len(good)) if missed >> j & 1]
        if lanes:
            problems.append(f"{len(lanes)} patterns miss target {name}={bit}")
            bad.update(lanes)
    ints = [int(p, 2) for p in good]
    distances = []
    for i in range(len(ints)):
        for j in range(i + 1, len(ints)):
            d = (ints[i] ^ ints[j]).bit_count()
            distances.append(d)
            if d < d_min:
                bad.add(good_idx[j])
    close = sum(d < d_min for d in distances)
    if close:
        problems.append(f"{close} pattern pairs closer than d_min={d_min}")
    missing = 0 if exhausted else max(0, requested - len(patterns))
    if missing:
        problems.append(f"{len(patterns)} patterns of {requested} without exhaustion")
    extra = max(0, len(patterns) - requested)
    if extra:
        problems.append(f"{len(patterns)} patterns exceed the budget {requested}")
    return {"attempted": requested,
            "failed": min(requested, len(bad) + missing + extra),
            "problems": problems,
            "hamming_mean": sum(distances) / len(distances) if distances else 0.0}


def reference_coverage(circuit: Circuit, entries, patterns: list[str]) -> tuple[float, float]:
    """(state %, site %) of the target spec over the patterns, per the
    definitions in ``gatefuzz.coverage``: a state is reached once any pattern
    drives the target to its value; a site once it has been both 0 and 1."""
    if not entries:
        return 100.0, 100.0
    words = evaluate(circuit, patterns)
    full = (1 << len(patterns)) - 1
    reached = toggled = 0
    for name, bit in entries:
        w = words[name]
        reached += bool(w if bit else (w ^ full))
        toggled += bool(w) and w != full
    return 100.0 * reached / len(entries), 100.0 * toggled / len(entries)
