"""Macro-architecture generation.

Turns a recognized partition into a hierarchical netlist, whose module
tree is the design database, with parameter templates, and into one
behavior program per unit.
"""

from .tree import Module, Port, build_tree
from .netlist import ColifNetlist, Net, emit_netlist, netlist_to_json
from .params import ParamSet, attach_params, emit_param_templates, \
    load_param_files, param_files
from .behavior import Assign, Call, Loop, Recv, Send, TaskBehavior, \
    gen_task_behavior

__all__ = [
    "Module", "Port", "build_tree",
    "ColifNetlist", "Net", "emit_netlist", "netlist_to_json",
    "ParamSet", "emit_param_templates", "attach_params",
    "param_files", "load_param_files",
    "TaskBehavior", "gen_task_behavior",
    "Recv", "Send", "Call", "Assign", "Loop",
]
