import random

import pytest

from gatefuzz.bench import parse_bench
from gatefuzz.cnf import encode
from gatefuzz.cgf import run_cgf
from gatefuzz.cli import main
from gatefuzz.coverage import first_sightings, measure
from gatefuzz.fixtures import fixture_text, load_circuit
from gatefuzz.graph import build_graph
from gatefuzz.netlist import scan_convert
from gatefuzz.pattern import InputPattern
from gatefuzz.sat import SolverSession
from gatefuzz.seedgen import GenConfig, generate, target_formula
from gatefuzz.simulate import run_pass, simulate
from gatefuzz.targets import TargetError, TargetSpec, parse_targets

from conftest import all_patterns, random_netlist


def _pipeline(text):
    graph = build_graph(scan_convert(parse_bench(text)))
    return graph, encode(graph)


def first_pattern(graph, spec):
    """Generation's first pattern, the validity witness; None when invalid."""
    report = generate(graph, spec, GenConfig(pattern_budget=1))
    return report.patterns[0] if report.patterns else None


def solve_witness(graph, spec):
    """The first model's input bits, or None when UNSAT: the validity check
    for circuits that may have one input, where ``d_min`` 2 rules out
    :func:`generate`."""
    _, _, formula, literals = target_formula(graph, spec)
    result = SolverSession(formula).solve(assumptions=literals)
    return InputPattern.from_word(result.inputs, formula.input_count) if result.is_sat else None


def brute_force_reachable(graph, entries):
    patterns = all_patterns(graph.input_count)
    words = run_pass(graph, patterns)
    return any(all((words[n] >> lane) & 1 == v for n, v in entries)
               for lane in range(len(patterns)))


def test_parse_two_entries_on_c17():
    g = build_graph(scan_convert(load_circuit("c17")))
    spec = parse_targets("n22=1\nn23=0", g)
    assert len(spec) == 2
    assert spec.entries == [(g.node_id("n22"), 1), (g.node_id("n23"), 0)]


def test_parse_unknown_node():
    g = build_graph(scan_convert(load_circuit("c17")))
    with pytest.raises(TargetError, match="unknown node"):
        parse_targets("bogus=1", g)


def test_parse_duplicate_and_bad_value():
    g = build_graph(scan_convert(load_circuit("c17")))
    with pytest.raises(TargetError, match="duplicate"):
        parse_targets("n22=1\nn22=0", g)
    with pytest.raises(TargetError, match="0 or 1"):
        parse_targets("n22=2", g)


def test_parse_comments_and_blanks():
    g = build_graph(scan_convert(load_circuit("c17")))
    spec = parse_targets("# targets\n\nn10=1  # note\n", g)
    assert spec.entries == [(g.node_id("n10"), 1)]


def test_all_gate_outputs_spec():
    g = build_graph(scan_convert(load_circuit("c17")))
    text = "".join(f"{g.names[n]}=1\n" for n in range(g.node_count)
                   if g.kinds[n] != "INPUT")
    spec = parse_targets(text, g)
    assert len(spec) == 6  # c17 gate count


def diff_specs(tmp_path, original, modified, polarity):
    """The non-empty specs ``gatefuzz targets-diff`` writes for a netlist
    pair, read back over the modified graph, all-zeros first."""
    a, b = tmp_path / "a.bench", tmp_path / "b.bench"
    a.write_text(original)
    b.write_text(modified)
    out = tmp_path / "d.targets"
    assert main(["targets-diff", str(a), str(b), "--polarity", polarity, "--out", str(out),
                 "--manifest-out", str(tmp_path / "m.json")]) == 0
    paths = [tmp_path / f"d.all{v}.targets" for v in (0, 1)] if polarity == "both" else [out]
    graph, _ = _pipeline(modified)
    return [parse_targets(path.read_text(), graph) for path in paths if path.read_text()]


def test_targets_from_empty_diff(tmp_path):
    c17 = fixture_text("c17.bench")
    assert diff_specs(tmp_path, c17, c17, "both") == []


def test_targets_from_diff_single_polarity(tmp_path):
    a = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)"
    b = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)"
    specs = diff_specs(tmp_path, a, b, "1")
    assert len(specs) == 1
    assert specs[0].entries == [(_pipeline(b)[0].node_id("y"), 1)]


def test_targets_from_diff_both_polarities(tmp_path):
    a = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = AND(a, b)\ny = NOT(u)"
    b = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = OR(a, b)\ny = BUF(u)"
    specs = diff_specs(tmp_path, a, b, "both")
    assert len(specs) == 2
    assert [v for _, v in specs[0].entries] == [0, 0]
    assert [v for _, v in specs[1].entries] == [1, 1]
    assert len(specs[0].entries) == 2


def test_target_formula_polarity():
    # three targets wanting (1, 0, 1) become literals (t1, -t2, t3); their
    # cone is every gate, so the cut is the graph
    g, _ = _pipeline("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nt1 = AND(a, b)\nt2 = OR(a, b)\nz = XOR(t1, t2)")
    spec = parse_targets("t1=1\nt2=0\nz=1", g)
    cut, targets, _, lits = target_formula(g, spec)
    assert cut is g and targets == spec.entries
    # node n is variable n + 1
    assert lits == [g.node_id("t1") + 1, -(g.node_id("t2") + 1), g.node_id("z") + 1]


def test_target_formula_empty():
    g, _ = _pipeline("INPUT(a)\nOUTPUT(y)\ny = NOT(a)")
    assert target_formula(g, parse_targets("", g))[3] == []


def test_single_zero_target():
    g, _ = _pipeline("INPUT(a)\nOUTPUT(y)\ny = BUF(a)")
    spec = parse_targets("y=0", g)
    _, _, f, lits = target_formula(g, spec)
    assert lits == [-f.node_var(g.node_id("y"))]


def test_target_formula_rejects_a_node_outside_the_graph():
    # nodes 0..2 are variables 1..3 and the XOR chain's helper is 4: node -1
    # would be variable 0, and node 3 would silently pick the helper
    g, f = _pipeline("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b, a)")
    assert g.node_count == 3 and f.var_count == 4
    for node in (-1, 3, 4, 99):
        with pytest.raises(TargetError, match=f"target node {node} is not in graph"):
            target_formula(g, TargetSpec(entries=[(0, 1), (node, 1)]))


_ENTRY_POINTS = {
    "generate": lambda g, spec: generate(g, spec, GenConfig()),
    "target_formula": target_formula,
    "first_sightings": lambda g, spec: first_sightings(g, spec, [InputPattern((1, 1))]),
    "measure": lambda g, spec: measure(g, spec, [InputPattern((1, 1))]),
    "run_cgf": lambda g, spec: run_cgf(g, spec, budget=4),
}


@pytest.mark.parametrize("entry,message", [
    ((-1, 1), "target node -1 is not in graph 'bench'"),
    ((3, 1), "target node 3 is not in graph 'bench'"),  # node_count
    ((99, 1), "target node 99 is not in graph 'bench'"),
    ((1, 2), "target node 1: desired value 2 is not 0 or 1"),
], ids=["node -1", "node node_count", "node 99", "value 2"])
@pytest.mark.parametrize("entry_point", list(_ENTRY_POINTS))
def test_every_entry_point_rejects_a_bad_entry_alike(entry_point, entry, message):
    # cut_targets is the one check of a spec against a graph, so every stage
    # that takes a spec raises the same TargetError, before any work
    g = build_graph(scan_convert(parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)")))
    assert g.node_count == 3
    with pytest.raises(TargetError) as raised:
        _ENTRY_POINTS[entry_point](g, TargetSpec(entries=[(2, 1), entry]))
    assert type(raised.value) is TargetError and str(raised.value) == message
    assert not g.cuts


def test_validity_and_gate():
    g = build_graph(scan_convert(parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)")))
    witness = first_pattern(g, parse_targets("y=1", g))
    assert witness.bits == (1, 1)  # only satisfying input


def test_validity_constant_zero_node():
    g, _ = _pipeline("INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = AND(a, n)")
    assert solve_witness(g, parse_targets("y=1", g)) is None


def test_validity_witness_simulates_to_targets():
    g = build_graph(scan_convert(load_circuit("c17")))
    spec = parse_targets(fixture_text("c17.internal.targets"), g)
    witness = first_pattern(g, spec)
    assert witness is not None
    valuation = simulate(g, witness)
    for node, want in spec.entries:
        assert valuation[node] == want


def test_c17_pair_matches_brute_force():
    g = build_graph(scan_convert(load_circuit("c17")))
    spec = parse_targets("n22=1\nn23=1", g)
    witness = first_pattern(g, spec)
    assert (witness is not None) == brute_force_reachable(g, spec.entries)


def test_validity_agrees_with_brute_force_randomized():
    rng = random.Random(55)
    for _ in range(40):
        n = random_netlist(rng, rng.randint(1, 8), rng.randint(1, 25), with_dffs=True)
        g = build_graph(scan_convert(n))
        k = rng.randint(1, min(3, g.node_count))
        nodes = rng.sample(range(g.node_count), k)
        entries = [(node, rng.randrange(2)) for node in nodes]
        spec = parse_targets("".join(f"{g.names[n]}={v}\n" for n, v in entries), g)
        witness = solve_witness(g, spec)
        assert (witness is not None) == brute_force_reachable(g, entries)
        if witness is not None:
            valuation = simulate(g, witness)
            assert all(valuation[n] == v for n, v in entries)
