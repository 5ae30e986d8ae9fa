"""Functional block-diagram language: types, parser, validation, semantics."""

from .blocks import (FunctionRegistry, KIND_NAMES, default_registry, init_state,
                     port_names, step_block, wrap32)
from .graph import (Block, Endpoint, FlatGraph, Link, ModelGraph, Subsystem,
                    flatten, topo_order)
from .parser import ParseError, parse_model
from .validate import Diagnostic, ValidationReport, validate_model

__all__ = [
    "Block", "Diagnostic", "Endpoint", "FlatGraph", "FunctionRegistry",
    "KIND_NAMES", "Link", "ModelGraph", "ParseError", "Subsystem",
    "ValidationReport", "default_registry", "flatten",
    "init_state", "parse_model", "port_names", "step_block", "topo_order",
    "validate_model", "wrap32",
]
