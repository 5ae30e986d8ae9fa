"""Macro-architecture generation.

Turns a recognized partition into a database tree, a hierarchical
netlist with parameter templates, and per-task behavior programs.
"""

from .tree import DesignTree, TreeNode, build_tree
from .netlist import ColifNetlist, Module, Net, Port, emit_netlist, \
    netlist_to_json
from .params import ParamSet, attach_params, emit_param_templates, \
    load_param_files, param_files
from .behavior import Assign, Call, If, Loop, Recv, Send, TaskBehavior, \
    gen_task_behavior

__all__ = [
    "DesignTree", "TreeNode", "build_tree",
    "ColifNetlist", "Module", "Net", "Port", "emit_netlist",
    "netlist_to_json",
    "ParamSet", "emit_param_templates", "attach_params",
    "param_files", "load_param_files",
    "TaskBehavior", "gen_task_behavior",
    "Recv", "Send", "Call", "Assign", "Loop", "If",
]
