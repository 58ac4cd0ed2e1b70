"""Minimal dedicated input/output placement for structurally controllable LTI systems."""

from .graph_core import StructPattern, build_digraph
from .oracle import brute_force_minimum, is_structurally_controllable, numeric_cross_check
from .placement import (
    design_inputs,
    design_outputs,
    emit_input_matrix,
    emit_output_matrix,
    enumerate_configurations,
    generate_configuration,
    min_dedicated_inputs,
    natural_partitions,
)
from .fileio import PatternFormatError, gen_random, parse_pattern, write_pattern

__version__ = "0.1.0"

__all__ = [
    "PatternFormatError",
    "StructPattern",
    "brute_force_minimum",
    "build_digraph",
    "design_inputs",
    "design_outputs",
    "emit_input_matrix",
    "emit_output_matrix",
    "enumerate_configurations",
    "gen_random",
    "generate_configuration",
    "is_structurally_controllable",
    "min_dedicated_inputs",
    "natural_partitions",
    "numeric_cross_check",
    "parse_pattern",
    "write_pattern",
]
