"""The netlist's module tree, built straight from the recognized partition.

The top module holds one module per node, then one channel_adapter with
the ports of each connected CHAN_ subsystem, so interface synthesis has an
attachment point, then one IP per testbench unit.  A software node holds
one task module per unit; a hardware node holds one IP per block of its
flattened graph.  Blocks inside a task live in its behavior, and an
implicit channel is a net only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model.blocks import port_names
from ..tlm import TlmModel


@dataclass
class Port:
    name: str
    direction: str  # "in" | "out"
    width: int = 1
    protocol: str = ""


@dataclass
class Module:
    name: str
    kind: str  # top, sw_node, hw_node, task, ip, channel_adapter
    ports: list[Port] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    children: list["Module"] = field(default_factory=list)


def _module(name: str, kind: str, ins, outs, params=None) -> Module:
    return Module(name, kind, [Port(p, "in") for p in ins]
                  + [Port(p, "out") for p in outs], params or {})


def _ip(name: str, blk) -> Module:
    return _module(name, "ip", *port_names(blk.kind, blk.params),
                   {"kind": blk.kind})


def build_tree(t: TlmModel) -> Module:
    """top -> nodes / channel adapters / testbench -> tasks and IPs.

    A hardware node's IP is named by its block's path in the node's flat
    graph, such as ``inner/u``."""
    top = _module(t.base.name, "top", t.base.inputs, t.base.outputs)
    for info in t.nodes.values():
        sub = info.subsystem
        if info.role == "software":
            node = _module(info.name, "sw_node", sub.inputs, sub.outputs)
            for uname in info.units:
                u = t.units[uname]
                node.children.append(_module(
                    uname.split("/", 1)[1], "task", u.in_ports, u.out_ports))
        else:
            node = _module(info.name, "hw_node", sub.inputs, sub.outputs)
            node.children = [_ip(path, b) for path, b
                             in t.flats[info.name].blocks.items()]
        top.children.append(node)
    subs = {s.id: s for s in t.base.subsystems}
    for ch in t.channels:
        if ch.explicit:
            sub = subs[ch.id]
            top.children.append(_module(
                ch.id, "channel_adapter", sub.inputs, sub.outputs,
                {"topology": ch.topology, "depth": ch.fifo_depth}))
    for name in t.testbench:
        u = t.units[name]
        top.children.append(_ip(name, u.block) if u.block is not None else
                            _module(name, "ip", u.in_ports, u.out_ports))
    return top
