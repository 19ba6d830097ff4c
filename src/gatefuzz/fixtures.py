"""Access to the circuit and target files bundled with the package."""

from __future__ import annotations

from importlib import resources

from .bench import parse_bench
from .netlist import Netlist


def fixture_text(filename: str) -> str:
    return (resources.files(__package__) / "circuits" / filename).read_text(encoding="utf-8")


def load_circuit(name: str) -> Netlist:
    """Parse a bundled ``.bench`` fixture by short name, e.g. ``"c17"``."""
    return parse_bench(fixture_text(f"{name}.bench"), name=name)
