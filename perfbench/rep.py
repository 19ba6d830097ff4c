"""One repetition of a workload, in a fresh interpreter started by ``run.py``.

The repetition runs the timed command once through the public surface of
``gatefuzz`` (``cli.main`` for the ``gen`` workloads, ``run_cgf`` for the
fuzz workload) and reads its peak memory.  It times the set-up for at least
``SETUP_MIN_SECONDS``: after the command for gen, before it for fuzz, whose
trials use the set-up's graph.  The host probe of ``probe.py`` is sampled
throughout every timed region, and every time is reported in normalised
seconds, scaled by the region's mean probe reading; the raw seconds and the
mean readings are kept under ``raw``.  Outside the timed region it judges
the outputs with the oracle in ``workloads.py``.  It prints one JSON object
as its last line of output.

    python3 perfbench/rep.py --workload gen-c432 --inputs DIR --out DIR \
        --seed 0 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
from pathlib import Path

import probe
import spans
import workloads as W

SETUP_MIN_SECONDS = 1.0

GEN = {"gen-c432": {"patterns": 200, "d_min": 2}}
CGF_BUDGET = 256
CGF_TRIALS = 2


class FirstLineClock(io.StringIO):
    """Captured stdout that notes by ``clock`` when the first complete line was written."""

    def __init__(self, clock):
        super().__init__()
        self.clock = clock
        self.first_line_at = None

    def write(self, text):
        if self.first_line_at is None and "\n" in text:
            self.first_line_at = self.clock()
        return super().write(text)


def _setup(netlist_text, targets_text, name, span):
    from gatefuzz.bench import parse_bench
    from gatefuzz.cnf import encode
    from gatefuzz.graph import build_graph
    from gatefuzz.netlist import scan_convert
    from gatefuzz.targets import parse_targets

    with span("bench.parse"):
        netlist = parse_bench(netlist_text, name=name)
    with span("netlist.scan"):
        netlist = scan_convert(netlist)
    with span("graph.build"):
        graph = build_graph(netlist)
    with span("cnf.encode"):
        formula = encode(graph)
    with span("targets.parse"):
        spec = parse_targets(targets_text, graph)
    return graph, formula, spec


def _no_span(_name):
    return contextlib.nullcontext({})


def _time_setups(netlist_text, targets_text, name, raw):
    """Normalised set-up samples and the products of the last one."""
    samples = []
    with probe.sampling() as region:
        clock = region.clock
        started = clock()
        while not samples or clock() - started < SETUP_MIN_SECONDS:
            products = None
            gc.collect()
            t0 = clock()
            products = _setup(netlist_text, targets_text, name, _no_span)
            samples.append(clock() - t0)
    raw.update(setup_s=samples, setup_probe_s=probe.NOMINAL_S / region.scale())
    return [sample * region.scale() for sample in samples], products


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _read_spec(inputs):
    """The workload's circuit and target entries, read by the oracle's parser."""
    circuit = W.parse_bench_text(inputs["netlist"].read_text(), "netlist")
    entries = [line.split("=") for line in inputs["targets"].read_text().split()]
    return circuit, [(name, int(bit)) for name, bit in entries]


def run_gen(args, inputs, out, span, done):
    from gatefuzz import cli

    cfg = GEN[args.workload]
    patterns_path = out / "patterns.txt"
    argv = ["gen", str(inputs["netlist"]), str(inputs["targets"]),
            "-R", str(cfg["patterns"]), "--dmin", str(cfg["d_min"]),
            "--seed", str(args.seed), "--patterns-out", str(patterns_path),
            "--report-out", str(out / "report.csv"),
            "--manifest-out", str(out / "manifest.json")]
    with probe.sampling() as region:
        clock = region.clock
        captured = FirstLineClock(clock)
        t0 = clock()
        with contextlib.redirect_stdout(captured), span("cli.main"):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a changed CLI this way
                code = exc.code if isinstance(exc.code, int) else 2
        end = clock()
    rss = done()
    wall = end - t0
    verdict_s = (captured.first_line_at or end) - t0
    k = region.scale()

    stdout_lines = captured.getvalue().splitlines()
    exhausted = bool(stdout_lines) and "space exhausted" in stdout_lines[-1]
    text = patterns_path.read_text() if patterns_path.exists() else ""
    patterns = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    patterns = [p for p in patterns if p]
    circuit, entries = _read_spec(inputs)
    verdict = W.check_gen(circuit, entries, patterns, cfg["patterns"], cfg["d_min"],
                          exhausted, code)
    ok = verdict["attempted"] - verdict["failed"]
    return {
        "wall_s": wall * k, "verdict_s": verdict_s * k, "peak_rss_mb": rss,
        "ops_per_s": ok / (wall * k),
        "raw": {"wall_s": wall, "verdict_s": verdict_s, "probe_s": probe.NOMINAL_S / k},
        "coverage_pct": W.reference_coverage(circuit, entries, patterns)[0],
        "attempted": verdict["attempted"], "failed": verdict["failed"],
        "problems": verdict["problems"],
        "fingerprint": {"patterns_sha256": W.sha256(text), "exit_code": code,
                        "exhausted": exhausted},
        "extras": {"patterns": len(patterns), "hamming_mean": verdict["hamming_mean"],
                   "exhausted": exhausted},
    }


def run_fuzz(args, inputs, out, span, done, graph, spec):
    from gatefuzz import run_cgf
    from gatefuzz.coverage import measure

    results = []
    with probe.sampling() as region:
        t0 = region.clock()
        for trial in range(CGF_TRIALS):
            with span("cgf.run"):
                results.append(run_cgf(graph, spec, budget=CGF_BUDGET,
                                        rng_seed=args.seed + trial))
        wall = region.clock() - t0
    rss = done()
    k = region.scale()

    circuit, entries = _read_spec(inputs)
    problems = []
    failed = 0
    digests = []
    for trial, result in enumerate(results):
        executed = [p.to_string() for p in result.executed]
        digests.append(W.sha256("\n".join(executed)))
        if len(executed) != CGF_BUDGET:
            problems.append(f"trial {trial}: {len(executed)} executions, budget {CGF_BUDGET}")
            failed += abs(CGF_BUDGET - len(executed))
        fresh = measure(graph, spec, result.executed)
        if fresh != result.report:
            problems.append(f"trial {trial}: fresh measure differs from the returned report")
            failed += len(executed)
            continue
        expected = W.reference_coverage(circuit, entries, executed)
        reported = (result.report.state_coverage_pct, result.report.site_coverage_pct)
        if any(abs(a - b) > 1e-9 for a, b in zip(expected, reported)):
            problems.append(f"trial {trial}: coverage {reported} but reference gives {expected}")
            failed += len(executed)
    attempted = CGF_BUDGET * CGF_TRIALS
    failed = min(failed, attempted)
    site = [r.report.site_coverage_pct for r in results]
    extras = {"executions": attempted}
    corpora = [getattr(getattr(r, "corpus", None), "seeds", None) for r in results]
    if None not in corpora:
        extras["corpus_seeds"] = sum(len(seeds) for seeds in corpora)
    return {
        "wall_s": wall * k, "peak_rss_mb": rss,
        "ops_per_s": (attempted - failed) / (wall * k),
        "raw": {"wall_s": wall, "probe_s": probe.NOMINAL_S / k},
        "coverage_pct": sum(site) / len(site),
        "attempted": attempted, "failed": failed, "problems": problems,
        "fingerprint": {"executed_sha256": digests, "site_coverage_pct": site},
        "extras": extras,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(list(GEN) + ["fuzz-20k"]))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-id", default="")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    inputs = {"netlist": args.inputs / "netlist.bench",
              "targets": args.inputs / "targets.txt"}
    netlist_text = inputs["netlist"].read_text()
    targets_text = inputs["targets"].read_text()

    tracer = None
    span = _no_span
    setup_samples, setup_raw = [], {}
    if args.trace:
        # the traced repetition sets up once, under spans; its end-to-end
        # numbers serve only to measure the tracing overhead
        tracer = spans.Tracer(args.trace_id)
        tracer.install()
        span = tracer.span
        products = _setup(netlist_text, targets_text, "netlist", span)
    elif args.workload == "fuzz-20k":
        setup_samples, products = _time_setups(netlist_text, targets_text, "netlist",
                                               setup_raw)
    else:
        products = None

    def done():
        """Ends the timed region: reads peak memory and removes the hooks, so
        that the oracle is neither measured nor traced."""
        rss = _peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
        return rss

    if args.workload == "fuzz-20k":
        graph, formula, spec = products
        result = run_fuzz(args, inputs, args.out, span, done, graph, spec)
    else:
        # the untraced command runs first in its process, as the console
        # script does; the set-up samples follow it
        result = run_gen(args, inputs, args.out, span, done)
        if not args.trace:
            setup_samples, products = _time_setups(netlist_text, targets_text, "netlist",
                                                   setup_raw)
        graph, formula, spec = products
    shape = {"graph_nodes": graph.node_count, "cnf_clauses": formula.clause_count,
             "cnf_vars": formula.var_count}
    result["setup_s"] = setup_samples
    result["raw"].update(setup_raw)
    result["fingerprint"]["cnf_clauses"] = shape["cnf_clauses"]
    result["env"] = {"python": sys.version.split()[0], "optimize": sys.flags.optimize,
                     "asserts": __debug__}
    if tracer is not None:
        dump = tracer.dump()
        layers = spans.layer_metrics(dump, {**shape, **result["extras"]})
        result["layers"] = layers
        result["absent"] = spans.absent_metrics(tracer.missing)
        result["missing_hooks"] = tracer.missing
        result["fingerprint"]["sat_conflicts"] = layers["sat.conflicts"]
        result["fingerprint"]["sat_decisions"] = layers["sat.decisions"]
        (args.out / "spans.json").write_text(json.dumps(dump))
    del result["extras"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
