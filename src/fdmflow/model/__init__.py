"""Functional block-diagram language: types, parser, validation, semantics."""

from .blocks import KINDS, USER_FUNCTIONS, init_state, port_names
from .graph import (Block, Endpoint, FlatGraph, Link, ModelGraph, Subsystem,
                    flatten, topo_order)
from .parser import ParseError, parse_model
from .validate import Diagnostic, ValidationReport, validate_model

__all__ = [
    "Block", "Diagnostic", "Endpoint", "FlatGraph", "KINDS", "Link",
    "ModelGraph", "ParseError", "Subsystem", "USER_FUNCTIONS",
    "ValidationReport", "flatten",
    "init_state", "parse_model", "port_names", "topo_order",
    "validate_model",
]
