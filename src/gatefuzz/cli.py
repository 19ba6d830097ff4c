"""Command-line pipeline: targeted generation, fuzzer comparison, diff targets.

Exit codes: 0 success, 1 parse or read error (including a file that cannot be
opened), 2 configuration error, 3 invalid (unreachable) target state, 4
solver conflict budget exhausted (``gen`` still writes the patterns proven
before it).  Every exit but ``--help`` and ``--version`` writes the JSON run
manifest, with the exit code and, on exits 1, 2 and 4, the error message; a
usage error that argparse reports is exit 2, and its manifest goes to the
``--manifest-out`` path if the command line names one.  An unexpected
exception leaves a null exit code and ``<Type>: <message>`` as the error, and
is raised on, with its traceback.

A command line whose first word is a command is parsed by a parser of that
command alone, the full parser's subparser for it built on its own.  Words
it leaves over, and a line that opens with an option or names no known
command, go to the full parser, :func:`build_parser`; so every help text,
usage line, message and exit code is the full parser's.

All randomness is seeded, and data files never contain wall-clock values, so
identical invocations produce byte-identical outputs; timing lives in the
manifest, by stage.  Generation encodes the circuit and measures its own
patterns, so it has no separate encode or coverage stage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time

from . import __version__
from .blif import parse_blif
from .bench import parse_bench
from .cgf import run_cgf
from .cnf import write_dimacs
from .coverage import curve_csv
from .graph import build_graph, diff_graphs
from .netlist import NetlistError, scan_convert
from .seedgen import (REPORT_CSV_HEADER, GenConfig, generate, report_csv_row, target_formula,
                      write_patterns)
from .targets import TargetError, TargetSpec, parse_targets

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONFIG = 2
EXIT_INVALID_TARGET = 3
EXIT_BUDGET = 4


class _InputDecodeError(Exception):
    """An input file that is not UTF-8 text (a parse failure, not a config one)."""


class _UsageError(Exception):
    """A command line that argparse rejects; argparse has printed it already."""


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as argparse does, but raises instead of exiting,
    so that :func:`main` can write the manifest.  Subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


class _Manifest:
    """Run metadata: input digests, config, stage times, output paths, exit."""

    def __init__(self, command, args):
        keys = ("pattern_budget", "d_min", "seed", "trials", "polarity", "conflict_budget")
        self.data = {"tool_version": __version__, "command": command,
                     "config": {k: getattr(args, k) for k in keys if hasattr(args, k)},
                     "inputs": {}, "stage_times_s": {}, "outputs": []}
        self._last = time.perf_counter()

    def read_input(self, path):
        with open(path, "rb") as fh:
            raw = fh.read()
        self.data["inputs"][str(path)] = hashlib.sha256(raw).hexdigest()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # a UnicodeDecodeError is a ValueError, which main() reports as a config error
            raise _InputDecodeError(
                f"{path} is not UTF-8 text: byte {exc.start} ({exc.reason})") from None

    def stage(self, name):
        now = time.perf_counter()
        self.data["stage_times_s"][name] = round(now - self._last, 6)
        self._last = now

    def write_output(self, path, text):
        if path is None:
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.data["outputs"].append(str(path))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")


# the blank space and whole-line comments before a netlist's first construct;
# a comment runs to the next of the line breaks that str.splitlines knows
_PREAMBLE = re.compile(r"(?:\s|#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*)*")


def _is_blif(path, text) -> bool:
    """A ``.blif`` file, or one whose first construct is ``.model``: a BLIF
    file may open with comments, so only the text before that construct is read."""
    return str(path).endswith(".blif") or text.startswith(".model", _PREAMBLE.match(text).end())


def _load_netlist(manifest, path):
    text = manifest.read_input(path)
    name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    if _is_blif(path, text):
        return parse_blif(text, name=name)
    return parse_bench(text, name=name)


def _prepare(manifest, netlist_path, targets_path):
    netlist = _load_netlist(manifest, netlist_path)
    manifest.stage("parse")
    graph = build_graph(scan_convert(netlist))
    manifest.stage("graph")
    spec = parse_targets(manifest.read_input(targets_path), graph)
    manifest.stage("parse_targets")
    return graph, spec


def _fail(manifest, code, message):
    print(f"error: {message}", file=sys.stderr)
    manifest.data["error"] = message
    return code


_STOP_TEXT = {"budget": "budget reached", "exhausted": "space exhausted",
              "solver-budget": "conflict budget reached"}


def _generate(args, manifest, graph, spec):
    """Generate patterns and record the solver counters in the manifest.

    The first model is the validity witness.  UNSAT before it means the
    targeted state is invalid: that is printed and None is returned.
    """
    config = GenConfig(pattern_budget=args.pattern_budget, d_min=args.d_min,
                       seed=args.seed, conflict_budget=args.conflict_budget)
    report = generate(graph, spec, config)
    manifest.data["solver"] = {key: getattr(report, key) for key in (
        "conflicts", "decisions", "propagations", "solver_calls", "solver_vars",
        "stop_reason", "lifted_models", "free_inputs_min", "free_inputs_median",
        "free_inputs_max")}
    if report.exhausted and not report.patterns:
        print(f"targeted state is invalid: no input reaches all {len(spec)} "
              f"target values simultaneously")
        return None
    return report


def cmd_gen(args, manifest) -> int:
    graph, spec = _prepare(manifest, args.netlist, args.targets)
    if args.dimacs_out:
        _, _, formula, literals = target_formula(graph, spec)
        manifest.write_output(args.dimacs_out, write_dimacs(formula, assumptions=literals))

    report = _generate(args, manifest, graph, spec)
    manifest.stage("generate")
    if report is None:
        return EXIT_INVALID_TARGET
    if report.patterns:
        print(f"targeted state is valid (witness {report.patterns[0].to_string()})")

    cov = report.coverage
    manifest.write_output(args.patterns_out, write_patterns(report, graph))
    if args.report_out:
        manifest.write_output(args.report_out,
                              REPORT_CSV_HEADER + "\n" + report_csv_row(report, graph) + "\n")
    manifest.stage("report")

    print(f"{len(report.patterns)} patterns ({_STOP_TEXT[report.stop_reason]}), "
          f"{report.solver_calls} solver calls, "
          f"state coverage {cov.state_coverage_pct:.2f}%, "
          f"site coverage {cov.site_coverage_pct:.2f}%, "
          f"d_max {report.observed_d_max}")
    if report.stop_reason == "solver-budget":
        return _fail(manifest, EXIT_BUDGET, f"conflict budget {args.conflict_budget} "
                     f"exhausted after {len(report.patterns)} patterns")
    return EXIT_OK


def cmd_compare(args, manifest) -> int:
    if args.trials < 1:
        return _fail(manifest, EXIT_CONFIG, "trials must be >= 1")
    graph, spec = _prepare(manifest, args.netlist, args.targets)
    sat_report = _generate(args, manifest, graph, spec)
    if sat_report is None:
        return EXIT_INVALID_TARGET
    if sat_report.stop_reason == "solver-budget":
        return _fail(manifest, EXIT_BUDGET, f"conflict budget {args.conflict_budget} exhausted")
    manifest.stage("sat_generation")

    trials = []
    for t in range(args.trials):
        trials.append(run_cgf(graph, spec, budget=args.pattern_budget,
                              rng_seed=args.seed + t))
    manifest.data["cgf"] = {"passes": sum(t.passes for t in trials),
                            "executions": sum(len(t.executed) for t in trials)}
    manifest.stage("cgf_trials")

    manifest.write_output(args.sat_curve_out, curve_csv(sat_report.curve))
    manifest.write_output(args.cgf_curve_out, curve_csv(_mean_curve([t.curve for t in trials])))
    summary = _summary_csv(sat_report, trials, args.pattern_budget)
    manifest.write_output(args.summary_out, summary)
    manifest.stage("report")
    print(summary, end="")
    return EXIT_OK


def _mean_curve(curves):
    """Index-wise mean of equal-length coverage curves."""
    return [(i, sum(p[1] for p in points) / len(points), sum(p[2] for p in points) / len(points))
            for i, points in enumerate(zip(*curves), 1)]


def _first_full_state(curve):
    for index, state, _ in curve:
        if state == 100.0:
            return index
    return None


def _summary_csv(sat_report, trials, budget):
    def fmt(x):
        return "" if x is None else (f"{x:.2f}" if isinstance(x, float) else str(x))

    def stats(values):
        present = [v for v in values if v is not None]
        if not present:
            return None, None, None
        return sum(present) / len(present), min(present), max(present)

    lines = ["metric,sat,cgf_mean,cgf_min,cgf_max"]
    for metric, sat_value, cgf_values in (
        ("state_coverage_pct", sat_report.coverage.state_coverage_pct,
         [t.report.state_coverage_pct for t in trials]),
        ("site_coverage_pct", sat_report.coverage.site_coverage_pct,
         [t.report.site_coverage_pct for t in trials]),
        ("first_full_state_index", _first_full_state(sat_report.curve),
         [_first_full_state(t.curve) for t in trials]),
        ("patterns", sat_report.pattern_count, [budget] * len(trials)),
    ):
        mean, lo, hi = stats(cgf_values)
        mean = float(mean) if mean is not None else None
        lines.append(",".join([metric, fmt(sat_value), fmt(mean), fmt(lo), fmt(hi)]))
    return "\n".join(lines) + "\n"


def cmd_targets_diff(args, manifest) -> int:
    original = _load_netlist(manifest, args.original)
    modified = _load_netlist(manifest, args.modified)
    manifest.stage("parse")
    original = build_graph(scan_convert(original))
    modified = build_graph(scan_convert(modified))
    manifest.stage("graph")
    diff = diff_graphs(original, modified)
    nodes = diff.target_nodes()
    manifest.stage("diff")

    paths = _polarity_paths(args.out, args.polarity)
    for polarity, path in paths:
        manifest.write_output(path, TargetSpec([(n, polarity) for n in nodes]).to_text(modified))
    manifest.stage("write")
    print(f"{len(diff.changed)} changed, {len(diff.added)} added; "
          f"wrote {', '.join(p for _, p in paths)}")
    return EXIT_OK


def _polarity_paths(out, polarity):
    if polarity in ("0", "1"):
        return [(int(polarity), out)]
    stem, ext = os.path.splitext(out)  # the tag goes into the file name, never a directory
    return [(0, f"{stem}.all0{ext}"), (1, f"{stem}.all1{ext}")]


def _common_arguments(p):
    p.add_argument("netlist", help="netlist file (.bench or .blif)")
    p.add_argument("targets", help="target file: <node>=<0|1> per line")
    p.add_argument("-R", "--patterns", dest="pattern_budget", type=int, default=100,
                   help="pattern budget (default 100)")
    p.add_argument("--dmin", dest="d_min", type=int, default=2,
                   help="minimum pairwise Hamming distance (default 2)")
    p.add_argument("--seed", type=int, default=0, help="base RNG/decision seed")
    p.add_argument("--conflict-budget", type=int, default=None,
                   help="abort any solve after this many conflicts")
    p.add_argument("--manifest-out", default="gatefuzz-manifest.json",
                   help="run manifest path (default gatefuzz-manifest.json)")


def _gen_arguments(p):
    _common_arguments(p)
    p.add_argument("--dimacs-out", default=None,
                   help="write the target cone's formula that gen solves, plus the "
                   "target unit clauses, as DIMACS")
    p.add_argument("--patterns-out", default=None, help="write the pattern file")
    p.add_argument("--report-out", default=None, help="write the summary CSV row")


def _compare_arguments(p):
    _common_arguments(p)
    p.add_argument("--trials", type=int, default=15,
                   help="number of seeded CGF runs (default 15)")
    p.add_argument("--sat-curve-out", default=None, help="SAT coverage curve CSV")
    p.add_argument("--cgf-curve-out", default=None, help="mean CGF coverage curve CSV")
    p.add_argument("--summary-out", default=None, help="summary CSV")


def _targets_diff_arguments(p):
    p.add_argument("original", help="original netlist")
    p.add_argument("modified", help="modified netlist")
    p.add_argument("--polarity", choices=("0", "1", "both"), default="both")
    p.add_argument("--out", default="diff.targets", help="output target file")
    p.add_argument("--manifest-out", default="gatefuzz-manifest.json")


def _commands():
    """Each command's help, the function that adds its arguments and the
    one that runs it, read from the module at each call, so a patched
    function is the one a parser built then runs."""
    return {"gen": ("generate targeted patterns", _gen_arguments, cmd_gen),
            "compare": ("compare against coverage-guided fuzzing", _compare_arguments,
                        cmd_compare),
            "targets-diff": ("derive targets from a netlist diff", _targets_diff_arguments,
                             cmd_targets_diff)}


def build_parser() -> argparse.ArgumentParser:
    """The full command-line parser, every command a subparser."""
    parser = _Parser(
        prog="gatefuzz",
        description="SAT-directed test pattern generation for gate-level netlists")
    parser.add_argument("--version", action="version", version=f"gatefuzz {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments, func) in _commands().items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        arguments(p)
    return parser


def _command_parser(command):
    """The parser of one command alone: the full parser's subparser for it."""
    _, arguments, func = _commands()[command]
    parser = _Parser(prog=f"gatefuzz {command}")
    parser.set_defaults(command=command, func=func)
    arguments(parser)
    return parser


def _parse(argv):
    """The full parser's namespace for ``argv``.  A command line that opens
    with a command is parsed by that command's parser alone; whatever it
    leaves over, and every other line, goes to the full parser."""
    if argv and argv[0] in _commands():
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def _manifest_path(argv):
    """The ``--manifest-out`` path of a command line that failed to parse."""
    default = "gatefuzz-manifest.json"
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--manifest-out", default=default)
    try:
        return pre.parse_known_args(argv)[0].manifest_out
    except argparse.ArgumentError:  # the option without its path
        return default


def _save(manifest, code, path):
    """Record the exit code and write the manifest; returns the exit code."""
    manifest.data["exit_code"] = code
    try:
        manifest.save(path)
    except OSError as exc:
        return _fail(manifest, EXIT_PARSE, f"cannot open {exc.filename}")
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
    except _UsageError as exc:
        manifest = _Manifest(None, argparse.Namespace())
        manifest.data["error"] = str(exc)
        return _save(manifest, EXIT_CONFIG, _manifest_path(argv))
    manifest = _Manifest(args.command, args)
    code = None  # recorded as null if an unexpected exception escapes
    try:
        code = args.func(args, manifest)
    except OSError as exc:
        code = _fail(manifest, EXIT_PARSE, f"cannot open {exc.filename}")
    except (NetlistError, TargetError, _InputDecodeError) as exc:
        code = _fail(manifest, EXIT_PARSE, str(exc))
    except ValueError as exc:  # GenConfigError and bad solver input are ValueErrors
        code = _fail(manifest, EXIT_CONFIG, str(exc))
    except Exception as exc:
        manifest.data["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        code = _save(manifest, code, args.manifest_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
