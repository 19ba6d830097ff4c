"""SAT-directed test pattern generation for gate-level netlists.

Pipeline: parse a netlist (``.bench`` or BLIF), scan-convert it, build the
levelized circuit graph, Tseitin-encode it to CNF, pick target nodes and
desired values, then enumerate diverse input patterns that each provably
drive every target — and measure state/site coverage against a
coverage-guided fuzzing baseline.  Netlist structure is checked when the
graph is built; target validity is read from generation's first model, which
is the witness pattern, or is absent when the targeted state is unreachable.
"""

__version__ = "0.1.0"

from .bench import parse_bench, write_bench
from .blif import parse_blif
from .cgf import run_cgf
from .cnf import CnfFormula, encode, write_dimacs
from .coverage import CoverageReport, measure
from .fixtures import load_circuit
from .graph import CircuitGraph, GraphDiff, build_graph, diff_graphs, to_dot
from .netlist import Netlist, NetlistError, RawGate, scan_convert
from .pattern import InputPattern
from .sat import SatResult, SolverSession
from .seedgen import GenConfig, GenReport, generate, write_patterns
from .targets import TargetSpec, parse_targets

__all__ = [
    "parse_bench", "write_bench", "parse_blif",
    "run_cgf", "CnfFormula", "encode", "write_dimacs",
    "CoverageReport", "measure", "load_circuit",
    "CircuitGraph", "GraphDiff", "build_graph", "diff_graphs", "to_dot",
    "Netlist", "NetlistError", "RawGate", "scan_convert", "InputPattern",
    "SatResult", "SolverSession", "GenConfig",
    "GenReport", "generate", "write_patterns",
    "TargetSpec", "parse_targets",
]
