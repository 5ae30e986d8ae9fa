"""Database tree: one node per architecture element plus a synthetic root.

The tree is the pivot between partition recognition and everything
downstream; netlist emission, behavior generation and the software and
hardware backends all read from it rather than from the raw model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model.blocks import FunctionRegistry, default_registry, port_names
from ..tlm import TlmModel, Unit

ROLES = ("root", "sw_node", "hw_node", "task", "ip", "channel",
         "testbench", "block")


@dataclass
class TreeNode:
    name: str
    role: str
    in_ports: tuple[str, ...] = ()
    out_ports: tuple[str, ...] = ()
    children: list["TreeNode"] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    ref: object = None  # source element: Subsystem, Block, Unit or ChannelSpec
    path: str = ""

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass
class DesignTree:
    root: TreeNode
    tlm: TlmModel

    def nodes(self) -> list[TreeNode]:
        return list(self.root.walk())


def _block_leaf(blk, role: str, registry) -> TreeNode:
    ins, outs = port_names(blk.kind, blk.params, registry)
    return TreeNode(blk.id, role, tuple(ins), tuple(outs),
                    params={"kind": blk.kind, "params": blk.params}, ref=blk)


def _task_node(unit: Unit, registry) -> TreeNode:
    name = unit.name.split("/", 1)[1] if "/" in unit.name else unit.name
    node = TreeNode(name, "task", unit.in_ports, unit.out_ports, ref=unit)
    if unit.block is not None:
        node.children.append(_block_leaf(unit.block, "block", registry))
    else:
        for blk in unit.subsystem.blocks:
            node.children.append(_block_leaf(blk, "block", registry))
    return node


def build_tree(t: TlmModel,
               registry: FunctionRegistry | None = None) -> DesignTree:
    """root -> nodes / channels / testbench -> tasks and IPs -> blocks."""
    registry = registry or default_registry()
    root = TreeNode(t.base.name, "root",
                    tuple(t.base.inputs), tuple(t.base.outputs), ref=t.base)
    for info in t.nodes.values():
        if info.role == "software":
            nd = TreeNode(info.name, "sw_node",
                          tuple(info.subsystem.inputs),
                          tuple(info.subsystem.outputs), ref=info.subsystem)
            for uname in info.units:
                nd.children.append(_task_node(t.units[uname], registry))
        else:
            nd = TreeNode(info.name, "hw_node",
                          tuple(info.subsystem.inputs),
                          tuple(info.subsystem.outputs), ref=info.subsystem)
            for blk in info.subsystem.blocks:
                nd.children.append(_block_leaf(blk, "ip", registry))
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
    _assign_paths(root, "")
    return DesignTree(root, t)


def _assign_paths(node: TreeNode, prefix: str) -> None:
    node.path = f"{prefix}/{node.name}" if prefix else node.name
    for c in node.children:
        _assign_paths(c, node.path)
