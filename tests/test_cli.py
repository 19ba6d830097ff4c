import argparse
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

import gatefuzz.cli as cli_module
import gatefuzz.graph as graph_module
import gatefuzz.seedgen as seedgen_module
import gatefuzz.simulate as simulate_module
from gatefuzz.bench import parse_bench
from gatefuzz.blif import parse_blif
from gatefuzz.cli import _is_blif, main
from gatefuzz.sat import SolverSession
from gatefuzz.cnf import encode
from gatefuzz.fixtures import fixture_text
from gatefuzz.graph import build_graph, cone
from gatefuzz.netlist import Netlist, scan_convert
from gatefuzz.seedgen import read_patterns
from gatefuzz.simulate import simulate
from gatefuzz.targets import parse_targets

from oracle import ref_eval


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _setup_c17(tmp_path, targets="n22=1\n"):
    netlist = _write(tmp_path, "c17.bench", fixture_text("c17.bench"))
    targets_path = _write(tmp_path, "t.targets", targets)
    return netlist, targets_path


def _manifest(tmp_path, name="m.json"):
    return json.loads((tmp_path / name).read_text())


def _assert_error_recorded(tmp_path, capsys, code):
    """The manifest holds the exit code and the message printed on stderr."""
    manifest = _manifest(tmp_path)
    assert manifest["exit_code"] == code
    assert capsys.readouterr().err == f"error: {manifest['error']}\n"
    return manifest


def test_gen_c17_end_to_end(tmp_path):
    netlist, targets = _setup_c17(tmp_path)
    patterns_out = str(tmp_path / "patterns.txt")
    report_out = str(tmp_path / "report.csv")
    dimacs_out = str(tmp_path / "formula.cnf")
    code = main(["gen", netlist, targets, "-R", "10",
                 "--patterns-out", patterns_out, "--report-out", report_out,
                 "--dimacs-out", dimacs_out,
                 "--manifest-out", str(tmp_path / "m.json")])
    assert code == 0
    patterns = read_patterns(Path(patterns_out).read_text())
    assert len(patterns) >= 1
    graph = build_graph(scan_convert(parse_bench(fixture_text("c17.bench"), name="c17")))
    spec = parse_targets("n22=1", graph)
    for p in patterns:
        assert simulate(graph, p)[spec.entries[0][0]] == 1
    report = Path(report_out).read_text().splitlines()
    assert report[0].startswith("design,")
    assert report[1].split(",")[7] == "100.00"  # state coverage
    dimacs = Path(dimacs_out).read_text()
    # the formula gen solved: n22's cone leaves out 2 of c17's 11 nodes, so
    # 9 variables, and 12 cut clauses + 1 target unit
    assert "p cnf 9 13" in dimacs
    manifest = _manifest(tmp_path)
    assert manifest["command"] == "gen"
    assert manifest["exit_code"] == 0 and "error" not in manifest
    assert manifest["solver"]["stop_reason"] == "exhausted"  # 9 patterns, then UNSAT
    assert len(manifest["inputs"]) == 2
    assert set(manifest["outputs"]) == {dimacs_out, patterns_out, report_out}


# a constant cover, and a latch that scan conversion makes a pseudo-input
CONSTS_BLIF = ("# constants and a latch\n.model consts\n.inputs a b\n.outputs y\n.names one\n1\n"
               ".names a one t\n11 1\n.names t q y\n1- 1\n-1 1\n.latch y q 0\n.end\n")


@pytest.mark.parametrize("name, text, targets", [
    ("c17.bench", fixture_text("c17.bench"), "n22=1\n"),
    ("s27.bench", fixture_text("s27.bench"), fixture_text("s27.scan.targets")),
    ("consts.net", CONSTS_BLIF, "y=1\n"),
])
def test_gen_dimacs_is_the_formula_that_was_solved(tmp_path, name, text, targets):
    # brute force over the file's variables projects onto the inputs under
    # which the reference evaluator, on the whole netlist, drives every target
    netlist = _write(tmp_path, name, text)
    dimacs_out = str(tmp_path / "f.cnf")
    assert main(["gen", netlist, _write(tmp_path, "t.targets", targets), "-R", "4",
                 "--dimacs-out", dimacs_out, "--manifest-out", str(tmp_path / "m.json")]) == 0
    var_of, clauses = {}, []
    for line in Path(dimacs_out).read_text().splitlines():
        if line.startswith("c node "):
            node, _, var = line[len("c node "):].rpartition(" = var ")
            var_of[node] = int(var)
        elif line.startswith("p cnf "):
            var_count, clause_count = map(int, line.split()[2:])
        else:
            clauses.append([int(lit) for lit in line.split()[:-1]])
    assert len(clauses) == clause_count
    assert var_count == _manifest(tmp_path)["solver"]["solver_vars"] <= 15
    full = scan_convert(parse_blif(text) if name.endswith(".net") else parse_bench(text))
    input_vars = [var_of[i] for i in full.primary_inputs]
    projections = set()
    for word in range(1 << var_count):
        if all(any((word >> abs(lit) - 1 & 1) == (lit > 0) for lit in clause)
               for clause in clauses):
            projections.add(tuple(word >> var - 1 & 1 for var in input_vars))
    wanted = [line.split("=") for line in targets.split()]
    expected = {bits for bits in itertools.product((0, 1), repeat=len(input_vars))
                if all(ref_eval(full, bits)[node] == int(value) for node, value in wanted)}
    assert expected and projections == expected


def test_gen_builds_one_solver_session(tmp_path, monkeypatch):
    # the validity verdict comes from generation's first solve
    sessions = []
    original = SolverSession.__init__

    def counting_init(self, *args, **kwargs):
        sessions.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(SolverSession, "__init__", counting_init)
    netlist = _write(tmp_path, "c432.bench", fixture_text("c432.bench"))
    targets = _write(tmp_path, "t.targets", fixture_text("c432.mixed.targets"))
    assert main(["gen", netlist, targets, "-R", "5",
                 "--manifest-out", str(tmp_path / "m.json")]) == 0
    assert len(sessions) == 1


@pytest.mark.parametrize("circuit,targets", [
    ("c432", "c432.mixed.targets"),  # a cut of part of the circuit
    ("c17", "c17.internal.targets"),
])
def test_gen_dimacs_out_encodes_the_cut_once(tmp_path, monkeypatch, circuit, targets):
    # the file and generation both take the cut's formula, kept on the cut
    encoded = []

    def counting_encode(graph):
        encoded.append(graph)
        return encode(graph)

    monkeypatch.setattr(seedgen_module, "encode", counting_encode)
    netlist = _write(tmp_path, f"{circuit}.bench", fixture_text(f"{circuit}.bench"))
    targets = _write(tmp_path, "t.targets", fixture_text(targets))
    assert main(["gen", netlist, targets, "-R", "8", "--dimacs-out", str(tmp_path / "f.cnf"),
                 "--manifest-out", str(tmp_path / "m.json")]) == 0
    assert len(encoded) == 1
    assert encoded[0].formula.var_count == _manifest(tmp_path)["solver"]["solver_vars"]


def _count_cuts_and_plans(monkeypatch):
    """Lists that record each cut :func:`~gatefuzz.graph.cone` builds and
    each graph whose simulation plan is built, and one of every graph the
    two-valued passes on patterns and on words (the kernel, which every
    two-valued pass runs) and the three-valued passes run on, with their
    lane counts."""
    record = {"cuts": [], "plans": [], "run_pass": [], "run_words": [], "run_ternary": []}
    cut, plan = graph_module._cut, simulate_module._plan
    run_pass, run_ternary = simulate_module.run_pass, simulate_module.run_ternary
    run_words = simulate_module.run_words

    def counting_cut(graph, needed):
        result = cut(graph, needed)
        record["cuts"].append(result[0])
        return result

    def counting_plan(graph):
        if graph.plan is None:
            record["plans"].append(graph)
        return plan(graph)

    def counting_run_pass(graph, patterns):
        record["run_pass"].append((graph, len(patterns)))
        return run_pass(graph, patterns)

    def counting_run_words(graph, patterns):
        record["run_words"].append((graph, len(patterns)))
        return run_words(graph, patterns)

    def counting_run_ternary(graph, ones, zeros, lanes):
        record["run_ternary"].append((graph, lanes))
        return run_ternary(graph, ones, zeros, lanes)

    monkeypatch.setattr(graph_module, "_cut", counting_cut)
    monkeypatch.setattr(simulate_module, "_plan", counting_plan)
    for module in [m for name, m in sys.modules.items() if name.startswith("gatefuzz")]:
        for name, original, counting in (("run_pass", run_pass, counting_run_pass),
                                         ("run_words", run_words, counting_run_words),
                                         ("run_ternary", run_ternary, counting_run_ternary)):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return record


def test_gen_simulates_its_patterns_once(tmp_path, monkeypatch):
    # generation's closing check is also the run's coverage, so the emitted
    # patterns go through one two-valued pass, over the one cut that the run
    # solves and lifts on, with its one plan
    record = _count_cuts_and_plans(monkeypatch)
    netlist = _write(tmp_path, "c432.bench", fixture_text("c432.bench"))
    targets = _write(tmp_path, "t.targets", fixture_text("c432.mixed.targets"))
    assert main(["gen", netlist, targets, "-R", "200",
                 "--patterns-out", str(tmp_path / "p.txt"),
                 "--report-out", str(tmp_path / "r.csv"),
                 "--manifest-out", str(tmp_path / "m.json")]) == 0
    [cut] = record["cuts"]
    [planned] = record["plans"]
    assert planned is cut
    assert [(graph is cut, lanes) for graph, lanes in record["run_pass"]] == [(True, 200)]
    assert [(graph is cut, lanes) for graph, lanes in record["run_words"]] == [(True, 200)]
    assert record["run_ternary"] and all(graph is cut for graph, _ in record["run_ternary"])


def test_compare_builds_one_plan_for_generation_and_every_trial(tmp_path, monkeypatch):
    # the cut is kept on the graph per target set, and its plan on the cut,
    # so the SAT run and every CGF trial share the ones generation built
    record = _count_cuts_and_plans(monkeypatch)
    netlist = _write(tmp_path, "c432.bench", fixture_text("c432.bench"))
    targets = _write(tmp_path, "t.targets", fixture_text("c432.mixed.targets"))
    assert main(["compare", netlist, targets, "-R", "64", "--trials", "3",
                 "--manifest-out", str(tmp_path / "m.json")]) == 0
    [cut] = record["cuts"]
    [planned] = record["plans"]
    assert planned is cut
    # generation's one pass goes through run_pass, the trials' feed the kernel words
    assert [(graph is cut, lanes) for graph, lanes in record["run_pass"]] == [(True, 64)]
    assert len(record["run_words"]) > 3 and all(graph is cut for graph, _ in record["run_words"])
    # the manifest counts the trials' passes: all but generation's one
    assert _manifest(tmp_path)["cgf"] == {"passes": len(record["run_words"]) - 1,
                                          "executions": 3 * 64}


@pytest.mark.parametrize("command,stages", [
    ("gen", {"parse", "graph", "parse_targets", "generate", "report"}),
    ("compare", {"parse", "graph", "parse_targets", "sat_generation", "cgf_trials", "report"}),
])
def test_manifest_stage_keys(tmp_path, command, stages):
    # there is no encode stage: generation encodes the circuit itself
    netlist, targets = _setup_c17(tmp_path)
    extra = ["--trials", "2"] if command == "compare" else []
    assert main([command, netlist, targets, "-R", "8", *extra,
                 "--manifest-out", str(tmp_path / "m.json")]) == 0
    assert set(_manifest(tmp_path)["stage_times_s"]) == stages


def test_targets_diff_manifest_stage_keys(tmp_path):
    # both netlists are parsed in the parse stage and built in the graph stage
    netlist, _ = _setup_c17(tmp_path)
    assert main(["targets-diff", netlist, netlist, "--out", str(tmp_path / "d.targets"),
                 "--manifest-out", str(tmp_path / "m.json")]) == 0
    assert set(_manifest(tmp_path)["stage_times_s"]) == {"parse", "graph", "diff", "write"}


def test_gen_manifest_records_solver_counters(tmp_path):
    netlist = _write(tmp_path, "c432.bench", fixture_text("c432.bench"))
    targets = _write(tmp_path, "t.targets", fixture_text("c432.mixed.targets"))
    code = main(["gen", netlist, targets, "-R", "20",
                 "--manifest-out", str(tmp_path / "m.json")])
    assert code == 0
    solver = json.loads((tmp_path / "m.json").read_text())["solver"]
    assert set(solver) == {"conflicts", "decisions", "propagations", "solver_calls",
                           "solver_vars", "stop_reason", "lifted_models", "free_inputs_min",
                           "free_inputs_median", "free_inputs_max"}
    graph = build_graph(scan_convert(parse_bench(fixture_text("c432.bench"), name="c432")))
    spec = parse_targets(fixture_text("c432.mixed.targets"), graph)
    cut, _ = cone(graph, spec.nodes())
    # the session holds the cut's formula, and distance constraints add no
    # helper variables to it
    assert solver["solver_vars"] == encode(cut).var_count < encode(graph).var_count
    # a solve gives a cube of patterns, so there are no more solves than
    # patterns; every solve was SAT, and each SAT model was lifted; the
    # budget, not UNSAT, ended the run
    assert solver["solver_calls"] <= 20
    assert solver["lifted_models"] == solver["solver_calls"]
    assert solver["free_inputs_min"] <= solver["free_inputs_median"] <= solver["free_inputs_max"]
    assert solver["stop_reason"] == "budget"
    # every decision literal is dequeued by the propagation that follows it
    assert solver["propagations"] >= solver["decisions"] > 0


@pytest.mark.parametrize("seed,digest", [
    (0, "1fb878cd0fbda7c5412ed5aad7fc632c661f1d889be8304ef9288e23c358e005"),
    (1, "73bb3ee8224106d35e11209551aa4774eb7717a1646df3526b5d09b24cd4e23d"),
    (2, "8a560349e3bb337ab0d50a5d1b14bf078674e10a0f4c0bb5f7d8c78367f5c94e"),
    (7, "b0a17525862452cafde4b5080be02ead6d7e54ab49922c82fba38b60dadf0d3d"),
])
def test_gen_c432_pattern_file_pinned(tmp_path, seed, digest):
    # the solver's decision order fixes these bytes; a change that moves
    # them on purpose updates the digests
    netlist = _write(tmp_path, "c432.bench", fixture_text("c432.bench"))
    targets = _write(tmp_path, "t.targets", fixture_text("c432.mixed.targets"))
    out = tmp_path / "p.txt"
    assert main(["gen", netlist, targets, "-R", "200", "--dmin", "2", "--seed", str(seed),
                 "--patterns-out", str(out), "--manifest-out", str(tmp_path / "m.json")]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gen_c432_report_file_pinned(tmp_path, seed):
    # the report's d_max column is the exact greatest pairwise distance, 24
    # at each seed; a change that moves it on purpose updates the digest
    netlist = _write(tmp_path, "c432.bench", fixture_text("c432.bench"))
    targets = _write(tmp_path, "t.targets", fixture_text("c432.mixed.targets"))
    out = tmp_path / "r.csv"
    assert main(["gen", netlist, targets, "-R", "200", "--dmin", "2", "--seed", str(seed),
                 "--report-out", str(out), "--manifest-out", str(tmp_path / "m.json")]) == 0
    assert out.read_text().splitlines()[1].endswith(",24")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "d4d21f7d0070cdfcfaf2f95e6ccd376d2220e060bd205a395f839b2b7352e334"


@pytest.mark.parametrize("circuit,targets,cgf_digest,summary_digest", [
    ("c432", "c432.mixed.targets",
     "45c3d26d1fd669ebe20f4992ab27bb8f9a5e114597036509326e450a89ada846",
     "b41a3aa5b613016b41a44cddf5a01d7020d44b2b97c8200fc1706c13b1f07e56"),
    ("s27", "s27.scan.targets",
     "c79f25aa2394b50f80c7e1e17364e11286a1776c3f5a0dece6d2a20fa031812c",
     "6baccfdb86e8a63c433a198c13588d42defb23440335b1063fc4e0885821b799"),
])
def test_compare_outputs_pinned(tmp_path, circuit, targets, cgf_digest, summary_digest):
    # the CGF trials' executed sequences fix these bytes, whatever the
    # simulation schedule; a change that moves them on purpose updates the digests
    netlist = _write(tmp_path, f"{circuit}.bench", fixture_text(f"{circuit}.bench"))
    targets = _write(tmp_path, "t.targets", fixture_text(targets))
    cgf_out, summary_out = tmp_path / "cgf.csv", tmp_path / "summary.csv"
    assert main(["compare", netlist, targets, "-R", "200", "--trials", "3", "--seed", "0",
                 "--cgf-curve-out", str(cgf_out), "--summary-out", str(summary_out),
                 "--manifest-out", str(tmp_path / "m.json")]) == 0
    assert hashlib.sha256(cgf_out.read_bytes()).hexdigest() == cgf_digest
    assert hashlib.sha256(summary_out.read_bytes()).hexdigest() == summary_digest


def test_gen_unsatisfiable_target_exits_3(tmp_path, capsys):
    # y = a AND NOT(a) is constant 0, so y=1 is unreachable
    netlist = _write(tmp_path, "c.bench",
                     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\ny = AND(a, n)\n")
    targets = _write(tmp_path, "t.targets", "y=1\n")
    patterns_out = str(tmp_path / "p.txt")
    code = main(["gen", netlist, targets, "--patterns-out", patterns_out,
                 "--manifest-out", str(tmp_path / "m.json")])
    assert code == 3
    assert capsys.readouterr().out == ("targeted state is invalid: no input reaches "
                                       "all 1 target values simultaneously\n")
    manifest = _manifest(tmp_path)
    assert manifest["exit_code"] == 3 and "error" not in manifest
    assert manifest["solver"]["stop_reason"] == "exhausted"
    assert manifest["solver"]["solver_calls"] == 1
    assert manifest["outputs"] == []


def test_compare_unsatisfiable_target_exits_3_without_outputs(tmp_path, capsys):
    # compare reads the same verdict as gen: generation's first solve
    netlist = _write(tmp_path, "c.bench",
                     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\ny = AND(a, n)\n")
    targets = _write(tmp_path, "t.targets", "y=1\n")
    outs = [tmp_path / name for name in ("sat.csv", "cgf.csv", "s.csv")]
    code = main(["compare", netlist, targets, "--trials", "2",
                 "--sat-curve-out", str(outs[0]), "--cgf-curve-out", str(outs[1]),
                 "--summary-out", str(outs[2]), "--manifest-out", str(tmp_path / "m.json")])
    assert code == 3
    assert capsys.readouterr().out == ("targeted state is invalid: no input reaches "
                                       "all 1 target values simultaneously\n")
    manifest = _manifest(tmp_path)
    assert manifest["exit_code"] == 3 and "error" not in manifest
    assert manifest["solver"]["stop_reason"] == "exhausted"
    assert manifest["outputs"] == [] and "cgf_trials" not in manifest["stage_times_s"]
    assert not any(out.exists() for out in outs)


def test_gen_invalid_target_with_too_large_dmin_exits_2(tmp_path, capsys):
    # the configuration is checked before the verdict's solve
    netlist = _write(tmp_path, "c.bench",
                     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\ny = AND(a, n)\n")
    targets = _write(tmp_path, "t.targets", "y=1\n")
    assert main(["gen", netlist, targets, "--dmin", "3",
                 "--manifest-out", str(tmp_path / "m.json")]) == 2
    assert "d_min 3" in _assert_error_recorded(tmp_path, capsys, 2)["error"]


def test_gen_missing_netlist_exits_1(tmp_path, capsys):
    targets = _write(tmp_path, "t.targets", "y=1\n")
    missing = str(tmp_path / "nope.bench")
    code = main(["gen", missing, targets, "--manifest-out", str(tmp_path / "m.json")])
    assert code == 1
    manifest = _assert_error_recorded(tmp_path, capsys, 1)
    assert manifest["error"] == f"cannot open {missing}"
    assert "solver" not in manifest


@pytest.mark.parametrize("bad", ["netlist", "targets"])
def test_gen_non_utf8_input_exits_1(tmp_path, capsys, bad):
    netlist, targets = _setup_c17(tmp_path)
    path = {"netlist": netlist, "targets": targets}[bad]
    with open(path, "ab") as fh:
        fh.write(b"\xff\n")
    code = main(["gen", netlist, targets, "--manifest-out", str(tmp_path / "m.json")])
    assert code == 1
    manifest = _assert_error_recorded(tmp_path, capsys, 1)
    assert manifest["error"].startswith(f"{path} is not UTF-8 text: byte ")
    assert "solver" not in manifest


@pytest.mark.parametrize("where", ["directory", "missing-dir/p.txt"])
def test_gen_unopenable_patterns_out_exits_1(tmp_path, capsys, where):
    netlist, targets = _setup_c17(tmp_path)
    (tmp_path / "directory").mkdir()
    target = str(tmp_path / where)
    code = main(["gen", netlist, targets, "--patterns-out", target,
                 "--manifest-out", str(tmp_path / "m.json")])
    assert code == 1
    assert _assert_error_recorded(tmp_path, capsys, 1)["error"] == f"cannot open {target}"


def test_gen_unwritable_manifest_exits_1(tmp_path, capsys):
    netlist, targets = _setup_c17(tmp_path)
    patterns_out = tmp_path / "p.txt"
    manifest_out = str(tmp_path / "no-such-dir" / "m.json")
    code = main(["gen", netlist, targets, "--patterns-out", str(patterns_out),
                 "--manifest-out", manifest_out])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot open {manifest_out}\n"
    assert patterns_out.exists()  # the run itself completed


def test_gen_parse_error_exits_1(tmp_path):
    netlist = _write(tmp_path, "bad.bench", "INPUT(a)\nwat\n")
    targets = _write(tmp_path, "t.targets", "y=1\n")
    assert main(["gen", netlist, targets,
                 "--manifest-out", str(tmp_path / "m.json")]) == 1


def test_gen_arity_error_exits_1_naming_the_gate(tmp_path, capsys):
    netlist = _write(tmp_path, "bad.bench", "INPUT(a)\nOUTPUT(y)\ny = AND(a)\n")
    targets = _write(tmp_path, "t.targets", "y=1\n")
    assert main(["gen", netlist, targets,
                 "--manifest-out", str(tmp_path / "m.json")]) == 1
    manifest = _assert_error_recorded(tmp_path, capsys, 1)
    assert manifest["error"] == "AND requires >= 2 inputs, got 1 for 'y'"


def test_gen_unknown_target_node_exits_1(tmp_path):
    netlist, targets = _setup_c17(tmp_path, targets="bogus=1\n")
    assert main(["gen", netlist, targets,
                 "--manifest-out", str(tmp_path / "m.json")]) == 1


def test_gen_bad_dmin_exits_2(tmp_path, capsys):
    netlist, targets = _setup_c17(tmp_path)
    assert main(["gen", netlist, targets, "--dmin", "9",
                 "--manifest-out", str(tmp_path / "m.json")]) == 2
    assert "d_min 9" in _assert_error_recorded(tmp_path, capsys, 2)["error"]


@pytest.mark.parametrize("budget", ["-1", "-50"])
def test_gen_negative_conflict_budget_exits_2(tmp_path, capsys, budget):
    netlist, targets = _setup_c17(tmp_path)
    patterns_out = tmp_path / "p.txt"
    assert main(["gen", netlist, targets, "--conflict-budget", budget,
                 "--patterns-out", str(patterns_out),
                 "--manifest-out", str(tmp_path / "m.json")]) == 2
    manifest = _assert_error_recorded(tmp_path, capsys, 2)
    assert manifest["error"] == "conflict_budget must be >= 0"
    assert manifest["outputs"] == [] and not patterns_out.exists()


def test_gen_budget_exhausted_exits_4(tmp_path, capsys):
    # XOR/XNOR disagreement needs at least one decision and conflict
    netlist = _write(tmp_path, "hard.bench",
                     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n"
                     "y = XOR(a, b)\nz = XNOR(a, b)\n")
    targets = _write(tmp_path, "t.targets", "y=1\nz=1\n")
    code = main(["gen", netlist, targets, "--conflict-budget", "0",
                 "--manifest-out", str(tmp_path / "m.json")])
    assert code == 4
    manifest = _assert_error_recorded(tmp_path, capsys, 4)
    assert manifest["error"] == "conflict budget 0 exhausted after 0 patterns"
    assert manifest["solver"]["stop_reason"] == "solver-budget"


def test_gen_spec_refuted_by_propagation_exits_3_at_budget_0(tmp_path, capsys):
    # q=1 forces a=b=1, and then p = XOR(a, b) is 0: the targets are facts
    # of the session, so propagation at level 0 refutes them with no
    # conflict, and a budget of 0 still gives the verdict
    netlist = _write(tmp_path, "refuted.bench",
                     "INPUT(a)\nINPUT(b)\nOUTPUT(p)\nOUTPUT(q)\n"
                     "p = XOR(a, b)\nq = AND(a, b)\n")
    targets = _write(tmp_path, "t.targets", "p=1\nq=1\n")
    code = main(["gen", netlist, targets, "--conflict-budget", "0",
                 "--manifest-out", str(tmp_path / "m.json")])
    assert code == 3
    assert capsys.readouterr().out == ("targeted state is invalid: no input reaches "
                                       "all 2 target values simultaneously\n")
    manifest = _manifest(tmp_path)
    assert manifest["exit_code"] == 3 and "error" not in manifest
    assert manifest["solver"]["stop_reason"] == "exhausted"
    assert manifest["solver"]["conflicts"] == 0


def test_gen_budget_exhausted_keeps_proven_patterns(tmp_path, capsys):
    # parity leaves no input free, so every pattern is a solve, and the
    # third solve needs a conflict
    netlist = _write(tmp_path, "xor_ladder8.bench", fixture_text("xor_ladder8.bench"))
    targets = _write(tmp_path, "t.targets", fixture_text("xor_ladder8.parity.targets"))
    patterns_out = str(tmp_path / "p.txt")
    code = main(["gen", netlist, targets, "-R", "200", "--conflict-budget", "0",
                 "--seed", "0", "--patterns-out", patterns_out,
                 "--manifest-out", str(tmp_path / "m.json")])
    assert code == 4
    manifest = _assert_error_recorded(tmp_path, capsys, 4)
    assert manifest["solver"]["stop_reason"] == "solver-budget"
    assert manifest["outputs"] == [patterns_out]
    patterns = read_patterns(Path(patterns_out).read_text())
    assert len(patterns) == 2
    graph = build_graph(scan_convert(parse_bench(fixture_text("xor_ladder8.bench"),
                                                 name="xor_ladder8")))
    spec = parse_targets(fixture_text("xor_ladder8.parity.targets"), graph)
    for p in patterns:
        valuation = simulate(graph, p)
        assert all(valuation[n] == v for n, v in spec.entries), p.to_string()


def test_compare_budget_exhausted_exits_4_without_outputs(tmp_path, capsys):
    netlist = _write(tmp_path, "xor_ladder8.bench", fixture_text("xor_ladder8.bench"))
    targets = _write(tmp_path, "t.targets", fixture_text("xor_ladder8.parity.targets"))
    summary_out = tmp_path / "s.csv"
    code = main(["compare", netlist, targets, "-R", "200", "--conflict-budget", "0",
                 "--trials", "1", "--summary-out", str(summary_out),
                 "--manifest-out", str(tmp_path / "m.json")])
    assert code == 4
    manifest = _assert_error_recorded(tmp_path, capsys, 4)
    assert manifest["outputs"] == [] and "cgf_trials" not in manifest["stage_times_s"]
    assert not summary_out.exists()


def test_gen_c432_budget_0_needs_one_conflict_free_solve(tmp_path):
    # the first model lifts to a cube that holds all 200 patterns
    netlist = _write(tmp_path, "c432.bench", fixture_text("c432.bench"))
    targets = _write(tmp_path, "t.targets", fixture_text("c432.mixed.targets"))
    patterns_out = str(tmp_path / "p.txt")
    code = main(["gen", netlist, targets, "-R", "200", "--conflict-budget", "0",
                 "--patterns-out", patterns_out, "--manifest-out", str(tmp_path / "m.json")])
    assert code == 0
    solver = _manifest(tmp_path)["solver"]
    assert solver["conflicts"] == 0 and solver["stop_reason"] == "budget"
    assert len(read_patterns(Path(patterns_out).read_text())) == 200


@pytest.mark.parametrize("argv,message", [
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["-R", "many"], "argument -R/--patterns: invalid int value: 'many'"),
])
def test_gen_usage_error_exits_2_with_a_manifest(tmp_path, capsys, argv, message):
    netlist, targets = _setup_c17(tmp_path)
    code = main(["gen", netlist, targets, *argv, "--manifest-out", str(tmp_path / "m.json")])
    assert code == 2
    manifest = _manifest(tmp_path)
    assert manifest["exit_code"] == 2 and manifest["error"] == message
    assert manifest["outputs"] == []
    # argparse's own report: the usage, then the message
    err = capsys.readouterr().err
    assert err.startswith("usage: gatefuzz") and err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["gen", "--help"]])
def test_help_and_version_exit_0_without_a_manifest(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--manifest-out", "m.json"])
    assert exc.value.code == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--version"], ["gen", "-h"], ["compare", "--help"], ["targets-diff", "-h"],
    ["fuzz", "c17.bench"], ["gen", "c17.bench", "t.targets", "--bogus"],
    ["compare", "c17.bench", "t.targets", "--trials"], ["gen", "c17.bench"],
    ["targets-diff", "c17.bench"], ["--bogus", "gen", "c17.bench", "t.targets"],
    ["gen", "c17.bench", "t.targets", "--version"],
    ["gen", "c17.bench", "t.targets", "--pat", "3"], ["gen", "c17.bench", "t.targets", "-R=3"],
    ["gen", "--", "c17.bench", "t.targets"], ["gen", "c17.bench", "t.targets", "--seed", "-1"],
    ["compare", "c17.bench", "t.targets", "--patterns-out", "x"],
    ["targets-diff", "c17.bench", "c17.bench", "--polarity", "2"],
])
def test_parser_of_the_command_run_answers_as_the_full_parser(tmp_path, monkeypatch, capsys,
                                                              argv):
    # main() gives only the command it runs its arguments; what a user sees,
    # the exit code and the manifest's error must be the full parser's
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps its help at the terminal width
    (tmp_path / "c17.bench").write_text(fixture_text("c17.bench"))
    (tmp_path / "t.targets").write_text("n22=1\n")
    manifest = tmp_path / "gatefuzz-manifest.json"

    def run():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        error = json.loads(manifest.read_text()).get("error") if manifest.exists() else None
        manifest.unlink(missing_ok=True)
        return code, error, capsys.readouterr()

    one = run()
    # a command parser that leaves every word over hands each line to the full parser
    monkeypatch.setattr(cli_module, "_command_parser", lambda command: argparse.Namespace(
        parse_known_args=lambda words: (None, ["-"])))
    assert run() == one
    assert one[0] in (0, 2)


def test_unexpected_exception_is_recorded_and_raised_on(tmp_path, monkeypatch):
    # an exception main() does not map to an exit code keeps its traceback,
    # and the manifest says what it was
    def failing_generate(graph, spec, config):
        raise RuntimeError("pattern 11 misses target y=1")

    monkeypatch.setattr("gatefuzz.cli.generate", failing_generate)
    netlist, targets = _setup_c17(tmp_path)
    with pytest.raises(RuntimeError, match="^pattern 11 misses target y=1$"):
        main(["gen", netlist, targets, "--manifest-out", str(tmp_path / "m.json")])
    manifest = _manifest(tmp_path)
    assert manifest["exit_code"] is None
    assert manifest["error"] == "RuntimeError: pattern 11 misses target y=1"


def test_gen_blif_input(tmp_path):
    netlist = _write(tmp_path, "t.blif",
                     ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end")
    targets = _write(tmp_path, "t.targets", "y=1\n")
    patterns_out = str(tmp_path / "p.txt")
    code = main(["gen", netlist, targets, "--patterns-out", patterns_out,
                 "--manifest-out", str(tmp_path / "m.json")])
    assert code == 0
    assert read_patterns(Path(patterns_out).read_text())[0].bits == (1, 1)


@pytest.mark.parametrize("name", ["m.net", "m.blif"])
def test_gen_blif_behind_a_comment_header(tmp_path, name):
    # the first construct, not the first line, tells BLIF from .bench
    netlist = _write(tmp_path, name, "# header\n\n  # more\n.model m\n.inputs a b\n"
                                     ".outputs y\n.names a b y\n11 1\n.end\n")
    targets = _write(tmp_path, "y.targets", "y=1\n")
    patterns_out = str(tmp_path / "p.txt")
    code = main(["gen", netlist, targets, "--patterns-out", patterns_out,
                 "--manifest-out", str(tmp_path / "m.json")])
    assert code == 0
    assert read_patterns(Path(patterns_out).read_text())[0].bits == (1, 1)


@pytest.mark.parametrize("name,text", [
    ("m.net", "# header\r\n\r\n  # .names in a comment\r\n.model m\r\n.inputs a b\r\n"
              ".outputs y\r\n.names a b y\r\n11 1\r\n.end\r\n"),
    ("m.bench", "# header\r\n# .model in a comment\r\nINPUT(a)\r\nINPUT(b)\r\nOUTPUT(y)\r\n"
                "y = AND(a, b)\r\n"),
], ids=["blif", "bench"])
def test_gen_sniffs_the_first_construct_behind_crlf_comments(tmp_path, name, text):
    netlist = _write(tmp_path, name, text)
    assert b"\r\n" in Path(netlist).read_bytes()
    targets = _write(tmp_path, "y.targets", "y=1\n")
    patterns_out = str(tmp_path / "p.txt")
    assert main(["gen", netlist, targets, "--patterns-out", patterns_out,
                 "--manifest-out", str(tmp_path / "m.json")]) == 0
    assert read_patterns(Path(patterns_out).read_text())[0].bits == (1, 1)


def test_blif_sniff_reads_lines_as_str_splitlines_does():
    # the sniff stops at the first line that is neither blank nor a comment,
    # for every line break that str.splitlines knows
    breaks = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]
    pieces = ["# c", "#", " ", "\t", "\x1f", ".model m", "INPUT(a)", " .model", "# .model",
              "x # .model", ".mod", ".model"] + breaks * 3
    rng = random.Random(7)
    for _ in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 8)))
        first = next((s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"), "")
        assert _is_blif("m.net", text) == first.startswith(".model"), repr(text)
        assert _is_blif("m.blif", text)


def test_compare_or4_and_determinism(tmp_path):
    netlist = _write(tmp_path, "or4.bench", fixture_text("or4.bench"))
    targets = _write(tmp_path, "t.targets", "y=1\n")
    outs = {}
    for run in ("a", "b"):
        outs[run] = {
            "sat": str(tmp_path / f"sat_{run}.csv"),
            "cgf": str(tmp_path / f"cgf_{run}.csv"),
            "summary": str(tmp_path / f"sum_{run}.csv"),
        }
        code = main(["compare", netlist, targets, "-R", "12", "--trials", "5",
                     "--seed", "7",
                     "--sat-curve-out", outs[run]["sat"],
                     "--cgf-curve-out", outs[run]["cgf"],
                     "--summary-out", outs[run]["summary"],
                     "--manifest-out", str(tmp_path / f"m_{run}.json")])
        assert code == 0
    for key in ("sat", "cgf", "summary"):
        assert Path(outs["a"][key]).read_text() == Path(outs["b"][key]).read_text()
    summary = Path(outs["a"]["summary"]).read_text().splitlines()
    assert summary[0] == "metric,sat,cgf_mean,cgf_min,cgf_max"
    state = summary[1].split(",")
    assert state[0] == "state_coverage_pct" and state[1] == "100.00"


def test_compare_single_trial(tmp_path):
    netlist = _write(tmp_path, "or4.bench", fixture_text("or4.bench"))
    targets = _write(tmp_path, "t.targets", "y=1\n")
    summary_out = str(tmp_path / "s.csv")
    code = main(["compare", netlist, targets, "-R", "8", "--trials", "1",
                 "--summary-out", summary_out,
                 "--manifest-out", str(tmp_path / "m.json")])
    assert code == 0
    row = Path(summary_out).read_text().splitlines()[1].split(",")
    assert row[2] == row[3] == row[4]  # mean == min == max with one trial
    manifest = _manifest(tmp_path)
    assert manifest["command"] == "compare" and manifest["exit_code"] == 0


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_compare_fewer_than_one_trial_exits_2_without_outputs(tmp_path, capsys, trials):
    netlist = _write(tmp_path, "or4.bench", fixture_text("or4.bench"))
    targets = _write(tmp_path, "t.targets", "y=1\n")
    summary_out = tmp_path / "s.csv"
    cgf_curve_out = tmp_path / "cgf.csv"
    code = main(["compare", netlist, targets, "-R", "8", "--trials", trials,
                 "--summary-out", str(summary_out), "--cgf-curve-out", str(cgf_curve_out),
                 "--manifest-out", str(tmp_path / "m.json")])
    assert code == 2
    manifest = _assert_error_recorded(tmp_path, capsys, 2)
    assert manifest["error"] == "trials must be >= 1"
    assert manifest["config"]["trials"] == int(trials)
    assert manifest["outputs"] == []
    assert not summary_out.exists() and not cgf_curve_out.exists()


def test_targets_diff_identical_files(tmp_path):
    netlist = _write(tmp_path, "c17.bench", fixture_text("c17.bench"))
    out = str(tmp_path / "d.targets")
    code = main(["targets-diff", netlist, netlist, "--polarity", "1",
                 "--out", out, "--manifest-out", str(tmp_path / "m.json")])
    assert code == 0
    assert Path(out).read_text() == ""
    assert main(["targets-diff", netlist, netlist, "--polarity", "both",
                 "--out", out, "--manifest-out", str(tmp_path / "m.json")]) == 0
    assert [(tmp_path / f"d.all{v}.targets").read_text() for v in (0, 1)] == ["", ""]


def test_targets_diff_kind_mutation(tmp_path):
    a = _write(tmp_path, "a.bench", "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = AND(x, y)\n")
    b = _write(tmp_path, "b.bench", "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = OR(x, y)\n")
    out = str(tmp_path / "d.targets")
    code = main(["targets-diff", a, b, "--polarity", "1", "--out", out,
                 "--manifest-out", str(tmp_path / "m.json")])
    assert code == 0
    assert Path(out).read_text() == "z=1\n"


def test_targets_diff_both_polarities_added_gate(tmp_path):
    a = _write(tmp_path, "a.bench", fixture_text("c17.bench"))
    b_text = fixture_text("c17.bench").replace(
        "n16 = NAND(n2, n11)", "nX = NAND(n11, n11)\nn16 = NAND(n2, nX)")
    b = _write(tmp_path, "b.bench", b_text)
    out = str(tmp_path / "d.targets")
    code = main(["targets-diff", a, b, "--polarity", "both", "--out", out,
                 "--manifest-out", str(tmp_path / "m.json")])
    assert code == 0
    all0 = (tmp_path / "d.all0.targets").read_text()
    all1 = (tmp_path / "d.all1.targets").read_text()
    assert sorted(all1.splitlines()) == ["n16=1", "nX=1"]
    assert sorted(all0.splitlines()) == ["n16=0", "nX=0"]


@pytest.mark.parametrize("polarity,written", [
    ("0", {"d.targets": "n19=0\nn24=0\n"}),
    ("1", {"d.targets": "n19=1\nn24=1\n"}),
    ("both", {"d.all0.targets": "n19=0\nn24=0\n", "d.all1.targets": "n19=1\nn24=1\n"}),
])
def test_targets_diff_c17_kind_change_and_added_gate(tmp_path, polarity, written):
    # the pair the CI runs: n19 turns from NAND to NOR, and n24 is a new gate
    a = _write(tmp_path, "a.bench", fixture_text("c17.bench"))
    b = _write(tmp_path, "b.bench", fixture_text("c17.bench").replace(
        "n19 = NAND", "n19 = NOR") + "n24 = XOR(n10, n19)\n")
    assert main(["targets-diff", a, b, "--polarity", polarity, "--out", str(tmp_path / "d.targets"),
                 "--manifest-out", str(tmp_path / "m.json")]) == 0
    assert {name: (tmp_path / name).read_text() for name in written} == written


@pytest.mark.parametrize("out,written", [
    ("diff.targets", ["diff.all0.targets", "diff.all1.targets"]),
    ("diff", ["diff.all0", "diff.all1"]),
    ("dir/diff.targets", ["dir/diff.all0.targets", "dir/diff.all1.targets"]),
    ("runs.d/diff", ["runs.d/diff.all0", "runs.d/diff.all1"]),
])
def test_targets_diff_both_polarities_tag_only_the_file_name(tmp_path, monkeypatch, out, written):
    (tmp_path / "dir").mkdir()
    (tmp_path / "runs.d").mkdir()
    a = _write(tmp_path, "a.bench", "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = AND(x, y)\n")
    b = _write(tmp_path, "b.bench", "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = OR(x, y)\n")
    monkeypatch.chdir(tmp_path)
    assert main(["targets-diff", a, b, "--polarity", "both", "--out", out,
                 "--manifest-out", "m.json"]) == 0
    assert _manifest(tmp_path)["outputs"] == written
    assert [Path(path).read_text() for path in written] == ["z=0\n", "z=1\n"]


def test_targets_diff_file_of_a_name_holding_an_equals_sign_reads_back(tmp_path):
    # a BLIF signal name may hold "=", so a target line splits at its last one
    blif = ".model m\n.inputs a b\n.outputs y=z\n.names a b y=z\n{}.end\n"
    a = _write(tmp_path, "a.blif", blif.format("11 1\n"))
    b = _write(tmp_path, "b.blif", blif.format("1- 1\n-1 1\n"))
    out = str(tmp_path / "d.targets")
    manifest = str(tmp_path / "m.json")
    assert main(["targets-diff", a, b, "--polarity", "1", "--out", out,
                 "--manifest-out", manifest]) == 0
    assert Path(out).read_text() == "y=z=1\n"
    patterns_out = str(tmp_path / "p.txt")
    assert main(["gen", b, out, "-R", "4", "--patterns-out", patterns_out,
                 "--manifest-out", manifest]) == 0
    assert {p.bits for p in read_patterns(Path(patterns_out).read_text())} <= {(0, 1), (1, 0), (1, 1)}


def test_targets_diff_parse_failure_exits_1(tmp_path, capsys):
    a = _write(tmp_path, "a.bench", "INPUT(x)\nnope\n")
    b = _write(tmp_path, "b.bench", "INPUT(x)\nOUTPUT(y)\ny = BUF(x)\n")
    assert main(["targets-diff", a, b, "--out", str(tmp_path / "d.targets"),
                 "--manifest-out", str(tmp_path / "m.json")]) == 1
    assert _assert_error_recorded(tmp_path, capsys, 1)["command"] == "targets-diff"


@pytest.mark.parametrize("argv,calls", [
    (["gen", "c17.bench", "t.targets", "-R", "4"], 1),  # graph build only
    (["targets-diff", "s27.bench", "s27.bench", "--out", "d.targets"], 4),  # 2 per netlist
])
def test_netlist_validate_calls_per_run(tmp_path, monkeypatch, argv, calls):
    # parsing checks only syntax; graph build checks the structure, and so
    # does scan_convert first on a netlist with DFFs
    for name in ("c17.bench", "s27.bench"):
        _write(tmp_path, name, fixture_text(name))
    _write(tmp_path, "t.targets", "n22=1\n")
    counted = []
    original = Netlist.validate

    def counting_validate(self):
        counted.append(self.name)
        return original(self)

    monkeypatch.setattr(Netlist, "validate", counting_validate)
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--manifest-out", "m.json"]) == 0
    assert len(counted) == calls
