"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import random
import time
from contextlib import contextmanager
from importlib import resources

from gatefuzz.bench import parse_bench
from gatefuzz.cgf import run_cgf
from gatefuzz.cli import main
from gatefuzz.cnf import encode
from gatefuzz.coverage import first_sightings, measure, report_and_curve
from gatefuzz.fixtures import fixture_text, load_circuit
from gatefuzz.graph import build_graph
from gatefuzz.netlist import scan_convert
from gatefuzz.pattern import InputPattern
from gatefuzz.sat import SolverSession
from gatefuzz.seedgen import GenConfig, generate, read_patterns
from gatefuzz.simulate import run_pass, simulate
from gatefuzz.targets import TargetSpec, parse_targets

from conftest import all_patterns, blif_constants_netlist, every_arity_netlist, random_netlist

BUNDLED_CIRCUITS = ("c17", "c432", "s27", "and_tree16", "or4", "xor_ladder8")


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def fixture_names():
    root = resources.files("gatefuzz") / "circuits"
    return sorted(p.name for p in root.iterdir() if p.name.endswith((".bench", ".targets")))


def target_files_for(circuit):
    prefix = f"{circuit}."
    return [f for f in fixture_names() if f.startswith(prefix) and f.endswith(".targets")]


def _graph_for(circuit):
    return build_graph(scan_convert(load_circuit(circuit)))


def test_criterion_1_per_pattern_targeting(tmp_path):
    with criterion(1, "per-pattern targeting on bundled fixtures"):
        started = time.perf_counter()
        runs = 0
        for circuit in BUNDLED_CIRCUITS:
            graph = _graph_for(circuit)
            for target_file in target_files_for(circuit):
                runs += 1
                netlist_path = tmp_path / f"{circuit}.bench"
                netlist_path.write_text(fixture_text(f"{circuit}.bench"))
                targets_path = tmp_path / target_file
                targets_path.write_text(fixture_text(target_file))
                patterns_out = tmp_path / f"{circuit}.{runs}.patterns"
                code = main(["gen", str(netlist_path), str(targets_path),
                             "-R", "24", "--patterns-out", str(patterns_out),
                             "--manifest-out", str(tmp_path / "m.json")])
                assert code == 0, (circuit, target_file)
                patterns = read_patterns(patterns_out.read_text())
                assert patterns, (circuit, target_file)
                spec = parse_targets(fixture_text(target_file), graph)
                # every emitted pattern drives every target, exactly
                for p in patterns:
                    valuation = simulate(graph, p)
                    assert all(valuation[n] == v for n, v in spec.entries), \
                        (circuit, target_file, p.to_string())
                firsts = first_sightings(graph, spec, patterns)
                curve = report_and_curve(spec, firsts, len(patterns))[1]
                assert curve[0][1] == 100.0  # full state coverage after pattern 1
        elapsed = time.perf_counter() - started
        assert runs >= len(BUNDLED_CIRCUITS)
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_validity_oracle():
    with criterion(2, "validity agrees with exhaustive simulation (200 cases)"):
        started = time.perf_counter()
        rng = random.Random(20250810)
        cases = 0
        agreements = 0
        while cases < 200:
            n = random_netlist(rng, rng.randint(2, 12), rng.randint(1, 30),
                               with_dffs=True)
            graph = build_graph(scan_convert(n))
            if graph.input_count > 12:
                continue
            cases += 1
            nodes = rng.sample(range(graph.node_count),
                               rng.randint(1, min(3, graph.node_count)))
            entries = [(node, rng.randrange(2)) for node in nodes]
            spec = TargetSpec(entries=entries)
            # valid iff generation's first solve returns a pattern, the witness
            report = generate(graph, spec, GenConfig(pattern_budget=1))
            valid = bool(report.patterns)
            patterns = all_patterns(graph.input_count)
            words = run_pass(graph, patterns)
            reachable = any(all((words[n_] >> lane) & 1 == v for n_, v in entries)
                            for lane in range(len(patterns)))
            if valid == reachable:
                agreements += 1
            if valid:
                valuation = simulate(graph, report.patterns[0])
                assert all(valuation[n_] == v for n_, v in entries)
        assert agreements == 200, f"{agreements}/200"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def _assert_models_equal_valuations(graph, case):
    """The SAT models projected onto the nodes are the simulator's valuations."""
    formula = encode(graph)
    # node n is variable n + 1; helper variables come after the nodes
    node_vars = range(1, graph.node_count + 1)

    sim_valuations = set()
    patterns = all_patterns(graph.input_count)
    words = run_pass(graph, patterns)
    for lane in range(len(patterns)):
        sim_valuations.add(tuple((word >> lane) & 1 for word in words))

    session = SolverSession(formula)
    sat_valuations = set()
    while True:
        result = session.solve()
        if not result.is_sat:
            break
        projected = tuple(int(result.model[v]) for v in node_vars)
        assert projected not in sat_valuations
        sat_valuations.add(projected)
        session.add_clause([-v if result.model[v] else v for v in node_vars])
        assert len(sat_valuations) <= len(sim_valuations), \
            f"case {case}: more models than valuations"
    assert sat_valuations == sim_valuations, f"case {case}"


def test_criterion_3_encoding_soundness():
    with criterion(3, "SAT models == simulator valuations (100 circuits)"):
        started = time.perf_counter()
        rng = random.Random(31415)
        for case in range(100):
            n = random_netlist(rng, rng.randint(2, 10), rng.randint(1, 18))
            _assert_models_equal_valuations(build_graph(scan_convert(n)), case)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_encoding_soundness_on_shuffled_netlists():
    # criterion 3's circuits are declared in topological order; here gates
    # come in any order, so a node's id need not follow its fanins'
    rng = random.Random(27182)
    out_of_order = 0
    for case in range(40):
        graph = None
        while graph is None or graph.input_count > 8:
            n = random_netlist(rng, rng.randint(1, 5), rng.randint(2, 18), with_dffs=case % 2 == 1)
            rng.shuffle(n.gates)
            graph = build_graph(scan_convert(n))
        out_of_order += any(src > node for node, srcs in enumerate(graph.fanins) for src in srcs)
        _assert_models_equal_valuations(graph, case)
    assert out_of_order >= 20


def test_encoding_soundness_on_every_kind_and_arity():
    # criterion 3 draws gates of 1 to 3 inputs and no constants; these hold
    # every kind, parity and AND/OR up to 9 fanins, repeated fanins and a DFF
    for seed in range(3):
        graph = build_graph(scan_convert(every_arity_netlist(random.Random(seed))))
        gates = range(graph.input_count, graph.node_count)
        assert {len(graph.fanins[n]) for n in gates} == set(range(10))
        _assert_models_equal_valuations(graph, f"every arity, seed {seed}")
    _assert_models_equal_valuations(build_graph(scan_convert(blif_constants_netlist())),
                                    "BLIF constants and a latch")


def test_criterion_4_diversity():
    with criterion(4, "Hamming-distance diversity and true exhaustion"):
        rng = random.Random(2718)
        exhausted_checked = 0
        sets_checked = 0
        for _ in range(40):
            n = random_netlist(rng, rng.randint(2, 10), rng.randint(1, 16))
            graph = build_graph(scan_convert(n))
            node = rng.randrange(graph.node_count)
            want = rng.randrange(2)
            d_min = rng.randint(2, min(4, graph.input_count))
            report = generate(graph, TargetSpec(entries=[(node, want)]),
                              GenConfig(pattern_budget=50, d_min=d_min))
            if len(report.patterns) >= 2:
                sets_checked += 1
                distances = [(p.word ^ q.word).bit_count() for p, q in
                             itertools.combinations(report.patterns, 2)]
                assert min(distances) >= d_min
                assert report.observed_d_min == min(distances)
                assert report.observed_d_max == max(distances)
                assert report.observed_d_max <= graph.input_count
            if report.exhausted and graph.input_count <= 12:
                exhausted_checked += 1
                emitted = set(report.patterns)
                for p in all_patterns(graph.input_count):
                    valuation = simulate(graph, p)
                    if valuation[node] != want or p in emitted:
                        continue
                    # no remaining qualifying pattern may keep its distance
                    assert any((p.word ^ q.word).bit_count() < d_min
                               for q in report.patterns), \
                        f"missed qualifying pattern {p.to_string()}"
        assert sets_checked >= 10
        assert exhausted_checked >= 5


def test_criterion_5_cgf_comparison():
    with criterion(5, "SAT route beats CGF on the hard fixture"):
        started = time.perf_counter()
        # deep AND tree: SAT needs one pattern; CGF nearly never arrives
        graph = _graph_for("and_tree16")
        spec = parse_targets("root=1", graph)
        report = generate(graph, spec, GenConfig(pattern_budget=100))
        firsts = first_sightings(graph, spec, report.patterns)
        curve = report_and_curve(spec, firsts, len(report.patterns))[1]
        assert curve[0][1] == 100.0  # T_C = 100% with one pattern
        cgf_coverages = []
        for trial in range(15):
            result = run_cgf(graph, spec, budget=100, rng_seed=trial)
            cgf_coverages.append(result.report.state_coverage_pct)
        assert sum(cgf_coverages) / 15 <= 10.0

        # 4-input OR: both saturate, SAT at least as early as the CGF mean
        graph = _graph_for("or4")
        spec = parse_targets("y=1", graph)
        report = generate(graph, spec, GenConfig(pattern_budget=100))
        firsts = first_sightings(graph, spec, report.patterns)
        sat_curve = report_and_curve(spec, firsts, len(report.patterns))[1]
        sat_first = next(i for i, s, _ in sat_curve if s == 100.0)
        cgf_firsts = []
        for trial in range(15):
            result = run_cgf(graph, spec, budget=100, rng_seed=100 + trial)
            assert result.report.state_coverage_pct == 100.0
            cgf_firsts.append(next(i for i, s, _ in result.curve if s == 100.0))
        assert sat_first <= sum(cgf_firsts) / len(cgf_firsts)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_6_determinism(tmp_path):
    with criterion(6, "byte-identical compare outputs"):
        netlist = tmp_path / "xor_ladder8.bench"
        netlist.write_text(fixture_text("xor_ladder8.bench"))
        targets = tmp_path / "t.targets"
        targets.write_text(fixture_text("xor_ladder8.parity.targets"))
        outputs = {}
        for run in ("first", "second"):
            paths = {k: tmp_path / f"{run}_{k}.csv"
                     for k in ("sat", "cgf", "summary")}
            code = main(["compare", str(netlist), str(targets),
                         "-R", "20", "--trials", "4", "--seed", "11",
                         "--sat-curve-out", str(paths["sat"]),
                         "--cgf-curve-out", str(paths["cgf"]),
                         "--summary-out", str(paths["summary"]),
                         "--manifest-out", str(tmp_path / f"{run}.json")])
            assert code == 0
            outputs[run] = {k: p.read_bytes() for k, p in paths.items()}
        assert outputs["first"] == outputs["second"]


def test_criterion_7_coverage_metric_properties():
    with criterion(7, "coverage monotonicity, permutation invariance, arithmetic"):
        # hand-checked arithmetic: 3 of 4 targets reached is 75%
        g = build_graph(scan_convert(parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\n"
            "OUTPUT(w)\nOUTPUT(x)\nOUTPUT(y)\nOUTPUT(z)\n"
            "w = BUF(a)\nx = BUF(b)\ny = BUF(c)\nz = BUF(d)")))
        spec = parse_targets("w=1\nx=1\ny=1\nz=1", g)
        assert measure(g, spec, [InputPattern((1, 1, 1, 0))]).state_coverage_pct == 75.0

        rng = random.Random(424242)
        graphs = []
        for _ in range(12):
            n = random_netlist(rng, rng.randint(2, 6), rng.randint(2, 12))
            graphs.append(build_graph(scan_convert(n)))
        for case in range(1000):
            graph = graphs[case % len(graphs)]
            nodes = rng.sample(range(graph.node_count),
                               rng.randint(1, min(4, graph.node_count)))
            spec = TargetSpec(entries=[(node, rng.randrange(2)) for node in nodes])
            patterns = [InputPattern(tuple(rng.randrange(2)
                                           for _ in range(graph.input_count)))
                        for _ in range(rng.randint(0, 40))]
            base = measure(graph, spec, patterns)
            extra = [InputPattern(tuple(rng.randrange(2)
                                        for _ in range(graph.input_count)))]
            extended = measure(graph, spec, patterns + extra)
            assert extended.state_coverage_pct >= base.state_coverage_pct
            assert extended.site_coverage_pct >= base.site_coverage_pct
            shuffled = patterns[:]
            rng.shuffle(shuffled)
            permuted = measure(graph, spec, shuffled)
            assert permuted.state_coverage_pct == base.state_coverage_pct
            assert permuted.site_coverage_pct == base.site_coverage_pct
