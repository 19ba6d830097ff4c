"""Span tracing for the traced run, and the per-layer metrics derived from it.

A span records name, start, end, parent and the repetition's trace id.
Spans are kept in memory and written when the repetition ends.  Hooks wrap a
name where its caller resolves it (``gatefuzz.cli.generate`` is what
``cmd_gen`` calls), so the program itself is not edited.  A hook whose target
does not exist at the commit being measured is skipped; the metrics that need
it are then reported as absent, and the rest of the run is unaffected.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager


def _observe_solve(attrs, fn, args, kwargs):
    """Solver counters as before/after deltas around one ``solve``."""
    session = args[0]
    before = {k: getattr(session, k, None) for k in ("conflicts", "decisions")}
    result = fn(*args, **kwargs)
    for key, value in before.items():
        after = getattr(session, key, None)
        if value is not None and after is not None:
            attrs[key] = after - value
    if hasattr(session, "nvars"):
        attrs["vars"] = session.nvars
    return result


def _gates(graph):
    return graph.node_count - graph.input_count


def _observe_scalar_sim(attrs, fn, args, kwargs):
    attrs["pattern_gates"] = _gates(args[0])
    return fn(*args, **kwargs)


def _observe_batch_sim(attrs, fn, args, kwargs):
    result = fn(*args, **kwargs)
    attrs["pattern_gates"] = _gates(args[0]) * len(result.patterns)
    return result


# (module, attribute, span name, observer).  ``Class.method`` patches the
# class, which covers every module that imported it.
HOOKS = (
    ("gatefuzz.cli", "cmd_gen", "cli.gen", None),
    ("gatefuzz.cli", "parse_bench", "bench.parse", None),
    ("gatefuzz.cli", "scan_convert", "netlist.scan", None),
    ("gatefuzz.cli", "build_graph", "graph.build", None),
    ("gatefuzz.cli", "encode", "cnf.encode", None),
    ("gatefuzz.cli", "parse_targets", "targets.parse", None),
    ("gatefuzz.cli", "check_validity", "targets.validity", None),
    ("gatefuzz.cli", "generate", "seedgen.generate", None),
    ("gatefuzz.cli", "measure", "coverage.measure", None),
    ("gatefuzz.cgf", "simulate", "simulate.scalar", _observe_scalar_sim),
    ("gatefuzz.cgf", "measure", "coverage.measure", None),
    ("gatefuzz.cgf", "coverage_curve", "coverage.curve", None),
    ("gatefuzz.coverage", "simulate_batch", "simulate.batch", _observe_batch_sim),
    ("gatefuzz.sat", "SolverSession.__init__", "sat.init", None),
    ("gatefuzz.sat", "SolverSession.solve", "sat.solve", _observe_solve),
    ("gatefuzz.sat", "SolverSession.encode_at_least_k", "sat.at_least_k", None),
    ("gatefuzz.sat", "SolverSession.add_clause", "sat.add_clause", None),
)

# Calls too frequent to keep one span each: they are aggregated into a count
# and a time, and the time is charged to the enclosing span.
AGGREGATED = {"sat.add_clause"}


class Tracer:
    """In-memory span recorder for one repetition."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.aggregates: dict[str, list] = {}  # name -> [calls, seconds]
        self.missing: list[str] = []
        self._stack: list[dict] = []
        self._undo: list = []

    @contextmanager
    def span(self, name: str):
        record = {"trace": self.trace_id, "id": len(self.spans), "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "covered": 0.0,
                  "attrs": {}}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1]["covered"] += record["end"] - record["start"]

    def _wrap_span(self, fn, name, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(attrs, fn, args, kwargs)
        return wrapper

    def _wrap_aggregate(self, fn, name):
        totals = self.aggregates.setdefault(name, [0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals[0] += 1
                totals[1] += elapsed
                if stack:
                    stack[-1]["covered"] += elapsed
        return wrapper

    def install(self, hooks=HOOKS):
        """Wrap every hook target that exists; note the ones that do not."""
        for module_name, attribute, name, observe in hooks:
            key = f"{module_name}.{attribute}"
            try:
                # import_module returns the submodule from sys.modules; the
                # package attribute ``gatefuzz.simulate`` is the function.
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(key)
                continue
            if name in AGGREGATED:
                wrapped = self._wrap_aggregate(original, name)
            else:
                wrapped = self._wrap_span(original, name, observe)
            setattr(owner, leaf, wrapped)
            self._undo.append((owner, leaf, original))

    def uninstall(self):
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def dump(self) -> dict:
        return {"trace": self.trace_id, "spans": self.spans,
                "aggregates": self.aggregates, "missing_hooks": self.missing}


# -- per-layer metrics -----------------------------------------------------------

# metric -> (unit, hooked span or aggregate it needs, or None when the
# benchmark's own set-up, spans, oracle or timing always provide it)
LAYER_METRICS = {
    "bench.parse_s": ("s", None),
    "netlist.scan_s": ("s", None),
    "graph.build_s": ("s", None),
    "graph.nodes": ("count", None),
    "cnf.encode_s": ("s", None),
    "cnf.clauses": ("count", None),
    "cnf.vars": ("count", None),
    "targets.validity_s": ("s", "targets.validity"),
    "sat.init_s": ("s", "sat.init"),
    "sat.add_clause_calls": ("count", "sat.add_clause"),
    "sat.add_clause_s": ("s", "sat.add_clause"),
    "sat.solve_calls": ("count", "sat.solve"),
    "sat.solve_s": ("s", "sat.solve"),
    "sat.solve_ms_p50": ("ms", "sat.solve"),
    "sat.solve_ms_p95": ("ms", "sat.solve"),
    "sat.solve_growth": ("ratio", "sat.solve"),
    "sat.conflicts": ("count", "sat.solve"),
    "sat.decisions": ("count", "sat.solve"),
    "sat.at_least_k_s": ("s", "sat.at_least_k"),
    "sat.vars_final": ("count", "sat.solve"),
    "seedgen.generate_s": ("s", "seedgen.generate"),
    "seedgen.self_s": ("s", "seedgen.generate"),
    "seedgen.ms_per_pattern": ("ms", "seedgen.generate"),
    "seedgen.hamming_mean": ("bits", None),
    "seedgen.exhausted": ("count", None),
    "simulate.scalar_calls": ("count", "simulate.scalar"),
    "simulate.scalar_s": ("s", "simulate.scalar"),
    "simulate.batch_calls": ("count", "simulate.batch"),
    "simulate.batch_s": ("s", "simulate.batch"),
    "simulate.ns_per_pattern_gate": ("ns", "simulate.*"),
    "coverage.measure_s": ("s", "coverage.measure"),
    "coverage.curve_s": ("s", "coverage.curve"),
    "cgf.run_s": ("s", None),
    "cgf.self_s": ("s", None),
    "cgf.us_per_exec": ("us", None),
    "cgf.admit_ratio": ("ratio", None),
    "cli.self_s": ("s", None),
    "trace.overhead_s": ("s", None),
}


def absent_metrics(missing_hooks) -> dict[str, str]:
    """Metrics whose every source hook is missing, mapped to the missing hooks."""
    hooks_by_span = {}
    for module_name, attribute, name, _ in HOOKS:
        hooks_by_span.setdefault(name, []).append(f"{module_name}.{attribute}")
    absent = {}
    for metric, (_, source) in LAYER_METRICS.items():
        if source is None:
            continue
        prefix = source[:-1] if source.endswith("*") else None
        keys = [k for name, ks in hooks_by_span.items()
                if (name.startswith(prefix) if prefix else name == source) for k in ks]
        if keys and all(k in missing_hooks for k in keys):
            absent[metric] = ", ".join(keys)
    return absent


def _self_time(span):
    return (span["end"] - span["start"]) - span["covered"]


def _quarter_growth(durations):
    quarter = len(durations) // 4
    if quarter == 0:
        return 0.0
    first = sum(durations[:quarter]) / quarter
    last = sum(durations[-quarter:]) / quarter
    return last / first if first > 0 else 0.0


def layer_metrics(dump: dict, extras: dict) -> dict[str, float]:
    """Per-layer values of one traced repetition.

    Front-end stages (parse, scan, graph, encode) are seconds per call, since
    the set-up runs them once and so does the CLI on gen-c432;
    everything else is summed over the timed command.  A layer that did no
    work reports 0.
    """
    spans = dump["spans"]
    by_id = {s["id"]: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(s["end"] - s["start"] for s in named.get(name, ()))

    def per_call(name):
        found = named.get(name, ())
        return total(name) / len(found) if found else 0.0

    def self_total(prefix):
        return sum(_self_time(s) for s in spans if s["name"].startswith(prefix))

    def under(span, ancestor):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == ancestor:
                return True
            parent = by_id[parent]["parent"]
        return False

    solves = named.get("sat.solve", [])
    solve_ms = sorted((s["end"] - s["start"]) * 1e3 for s in solves)
    gen_solves = [(s["end"] - s["start"]) for s in solves if under(s, "seedgen.generate")]
    sims = named.get("simulate.scalar", []) + named.get("simulate.batch", [])
    pattern_gates = sum(s["attrs"].get("pattern_gates", 0) for s in sims)
    add_calls, add_s = dump["aggregates"].get("sat.add_clause", [0, 0.0])
    patterns = extras.get("patterns", 0)
    executions = extras.get("executions", 0)
    generate_s = total("seedgen.generate")
    cgf_s = total("cgf.run")

    values = {
        "bench.parse_s": per_call("bench.parse"),
        "netlist.scan_s": per_call("netlist.scan"),
        "graph.build_s": per_call("graph.build"),
        "graph.nodes": extras["graph_nodes"],
        "cnf.encode_s": per_call("cnf.encode"),
        "cnf.clauses": extras["cnf_clauses"],
        "cnf.vars": extras["cnf_vars"],
        "targets.validity_s": total("targets.validity"),
        "sat.init_s": total("sat.init"),
        "sat.add_clause_calls": add_calls,
        "sat.add_clause_s": add_s,
        "sat.solve_calls": len(solves),
        "sat.solve_s": total("sat.solve"),
        "sat.solve_ms_p50": statistics.median(solve_ms) if solve_ms else 0.0,
        "sat.solve_ms_p95": (statistics.quantiles(solve_ms, n=20)[-1]
                             if len(solve_ms) >= 200 else max(solve_ms, default=0.0)),
        "sat.solve_growth": _quarter_growth(gen_solves),
        "sat.conflicts": sum(s["attrs"].get("conflicts", 0) for s in solves),
        "sat.decisions": sum(s["attrs"].get("decisions", 0) for s in solves),
        "sat.at_least_k_s": total("sat.at_least_k"),
        "sat.vars_final": max((s["attrs"].get("vars", 0) for s in solves), default=0),
        "seedgen.generate_s": generate_s,
        "seedgen.self_s": self_total("seedgen.generate"),
        "seedgen.ms_per_pattern": generate_s * 1e3 / patterns if patterns else 0.0,
        "seedgen.hamming_mean": extras.get("hamming_mean", 0.0),
        "seedgen.exhausted": int(extras.get("exhausted", False)),
        "simulate.scalar_calls": len(named.get("simulate.scalar", ())),
        "simulate.scalar_s": total("simulate.scalar"),
        "simulate.batch_calls": len(named.get("simulate.batch", ())),
        "simulate.batch_s": total("simulate.batch"),
        "simulate.ns_per_pattern_gate": (
            (total("simulate.scalar") + total("simulate.batch")) * 1e9 / pattern_gates
            if pattern_gates else 0.0),
        "coverage.measure_s": total("coverage.measure"),
        "coverage.curve_s": total("coverage.curve"),
        "cgf.run_s": cgf_s,
        "cgf.self_s": self_total("cgf.run"),
        "cgf.us_per_exec": cgf_s * 1e6 / executions if executions else 0.0,
        "cgf.admit_ratio": extras.get("corpus_seeds", 0) / executions if executions else 0.0,
        "cli.self_s": self_total("cli."),
    }
    return values
