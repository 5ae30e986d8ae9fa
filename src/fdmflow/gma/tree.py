"""Database tree: one node per architecture element plus a synthetic root.

Netlist emission reads the tree: a node, task, IP, channel or testbench
element becomes a module.  Behavior generation and the software and
hardware backends read the recognized partition (``TlmModel``) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model.blocks import port_names
from ..tlm import TlmModel, Unit


@dataclass
class TreeNode:
    name: str
    role: str  # root, sw_node, hw_node, task, ip, channel, testbench, block
    in_ports: tuple[str, ...] = ()
    out_ports: tuple[str, ...] = ()
    children: list["TreeNode"] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    ref: object = None  # source element: Subsystem, Block, Unit or ChannelSpec


@dataclass
class DesignTree:
    root: TreeNode
    tlm: TlmModel


def _block_leaf(name: str, blk, role: str) -> TreeNode:
    ins, outs = port_names(blk.kind, blk.params)
    return TreeNode(name, role, tuple(ins), tuple(outs),
                    params={"kind": blk.kind, "params": blk.params}, ref=blk)


def _task_node(unit: Unit) -> TreeNode:
    name = unit.name.split("/", 1)[1] if "/" in unit.name else unit.name
    node = TreeNode(name, "task", unit.in_ports, unit.out_ports, ref=unit)
    if unit.block is not None:
        node.children.append(_block_leaf(unit.block.id, unit.block, "block"))
    else:
        for blk in unit.subsystem.blocks:
            node.children.append(_block_leaf(blk.id, blk, "block"))
    return node


def build_tree(t: TlmModel) -> DesignTree:
    """root -> nodes / channels / testbench -> tasks and IPs -> blocks.

    A hardware node has one IP per block of its flattened graph, named by
    the block's path in it, such as ``inner/u``."""
    root = TreeNode(t.base.name, "root",
                    tuple(t.base.inputs), tuple(t.base.outputs), ref=t.base)
    for info in t.nodes.values():
        if info.role == "software":
            nd = TreeNode(info.name, "sw_node",
                          tuple(info.subsystem.inputs),
                          tuple(info.subsystem.outputs), ref=info.subsystem)
            for uname in info.units:
                nd.children.append(_task_node(t.units[uname]))
        else:
            nd = TreeNode(info.name, "hw_node",
                          tuple(info.subsystem.inputs),
                          tuple(info.subsystem.outputs), ref=info.subsystem)
            for path, fb in t.flats[info.name].blocks.items():
                nd.children.append(_block_leaf(path, fb.block, "ip"))
        root.children.append(nd)
    for ch in t.channels:
        root.children.append(TreeNode(
            ch.id, "channel", ("in",), ("out",),
            params={"topology": ch.topology, "depth": ch.fifo_depth,
                    "explicit": ch.explicit},
            ref=ch))
    for name in t.testbench:
        u = t.units[name]
        node = TreeNode(name, "testbench", u.in_ports, u.out_ports, ref=u)
        root.children.append(node)
    return DesignTree(root, t)
