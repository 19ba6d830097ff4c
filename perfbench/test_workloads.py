"""Checks that pin the benchmark's workloads and its oracle.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_workloads.py
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def _suite_random_netlist():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_netlist


@pytest.mark.parametrize("seed", [0, 1])
def test_generator_matches_test_suite(seed):
    from gatefuzz.bench import write_bench

    random_netlist = _suite_random_netlist()
    for case in range(run.CASES["fuzz-20k"]):
        s = run.case_seed("fuzz-20k", seed, case)
        suite = random_netlist(random.Random(s), W.SYNTH_INPUTS, W.SYNTH_GATES)
        pinned = W.random_circuit(random.Random(s), W.SYNTH_INPUTS, W.SYNTH_GATES)
        assert write_bench(suite) == pinned.to_bench()


def test_targets_hold_under_the_program_simulator():
    from gatefuzz import build_graph, parse_bench, parse_targets, scan_convert
    from gatefuzz.pattern import InputPattern
    from gatefuzz.simulate import simulate

    circuit, entries = W.synthetic_workload(run.case_seed("fuzz-20k", 0, 0),
                                            run.FUZZ_20K_TARGETS)
    graph = build_graph(scan_convert(parse_bench(circuit.to_bench())))
    spec = parse_targets(W.targets_text(entries), graph)
    rng = random.Random("witness-0")
    witness = InputPattern(tuple(rng.randrange(2) for _ in circuit.inputs))
    values = simulate(graph, witness)
    assert [(node, values[node]) for node, _ in spec.entries] == spec.entries
    reference = W.evaluate(circuit, [witness.to_string()])
    assert all(reference[graph.names[n]] == values[n] for n in range(graph.node_count))


def test_oracle_rejects_bad_patterns():
    circuit = W.parse_bench_text("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
                                 "y = OR(a, b, c)\n", "or3")
    entries = [("y", 1)]
    good = W.check_gen(circuit, entries, ["100", "011"], 2, 2, False, 0)
    assert good["failed"] == 0 and not good["problems"]
    assert W.check_gen(circuit, entries, ["100", "000"], 2, 2, False, 0)["failed"] == 1
    assert W.check_gen(circuit, entries, ["100", "110"], 2, 2, False, 0)["failed"] == 1
    assert W.check_gen(circuit, entries, ["100"], 2, 2, False, 0)["failed"] == 1
    assert W.check_gen(circuit, entries, ["100"], 2, 2, True, 0)["failed"] == 0
    assert W.check_gen(circuit, entries, ["100", "011"], 2, 2, False, 4)["failed"] == 2


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == {n: unit for n, (unit, _) in spans.LAYER_METRICS.items()})
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_missing_hook_marks_metrics_absent():
    absent = spans.absent_metrics(["gatefuzz.cgf.simulate"])
    assert set(absent) == {"simulate.scalar_calls", "simulate.scalar_s"}
    tracer = spans.Tracer("t")
    tracer.install((("gatefuzz.cgf", "no_such_function", "x", None),))
    assert tracer.missing == ["gatefuzz.cgf.no_such_function"]


def test_sampler_clock_leaves_out_probe_time():
    with probe.sampling() as region:
        spent_before = region.spent
        t0, wall0 = region.clock(), time.perf_counter()
        while time.perf_counter() - wall0 < 0.6:
            pass
        measured, wall = region.clock() - t0, time.perf_counter() - wall0
        spent = region.spent - spent_before
    assert len(region.readings) >= 3  # one at the start, one per 0.25 s
    assert spent > 0 and abs(measured - (wall - spent)) < 1e-3
    assert region.scale() > 0
