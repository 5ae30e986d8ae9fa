"""Hierarchical netlist: modules, ports and nets, written as JSON.

One module per tree node except block leaves inside tasks; implicit
channels contribute a net only, declared channel subsystems also get a
channel_adapter module so interface synthesis has an attachment point.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .tree import DesignTree, TreeNode

_ROLE_KIND = {
    "root": "top",
    "sw_node": "sw_node",
    "hw_node": "hw_node",
    "task": "task",
    "ip": "ip",
    # testbench leaves are plain behavioral modules under the top, same
    # shape as an IP
    "testbench": "ip",
    "channel": "channel_adapter",
}


@dataclass
class Port:
    name: str
    direction: str  # "in" | "out"
    width: int = 1
    protocol: str = ""


@dataclass
class Module:
    name: str
    kind: str
    ports: list[Port] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    children: list["Module"] = field(default_factory=list)


@dataclass
class Net:
    name: str
    endpoints: list[str]  # "module/path.port", producer first


@dataclass
class ColifNetlist:
    top: Module
    nets: list[Net]

    def modules(self) -> list[tuple[str, Module]]:
        """(path, module) pairs in hierarchy order."""
        out: list[tuple[str, Module]] = []

        def walk(m: Module, prefix: str):
            path = f"{prefix}/{m.name}" if prefix else m.name
            out.append((path, m))
            for c in m.children:
                walk(c, path)

        walk(self.top, "")
        return out

    def module_at(self, path: str) -> Module | None:
        for p, m in self.modules():
            if p == path:
                return m
        return None


def _module_of(node: TreeNode) -> Module:
    ports = [Port(p, "in") for p in node.in_ports] \
        + [Port(p, "out") for p in node.out_ports]
    params = {}
    if node.role == "channel":
        params = {"topology": node.params["topology"],
                  "depth": node.params["depth"]}
    elif node.role in ("ip", "block"):
        params = {"kind": node.params["kind"]}
    elif node.role == "testbench" and node.ref.block is not None:
        params = {"kind": node.ref.block.kind}
    return Module(node.name, _ROLE_KIND[node.role], ports, params)


def emit_netlist(d: DesignTree) -> ColifNetlist:
    def build(node: TreeNode) -> Module | None:
        if node.role == "block":
            return None  # blocks inside tasks live in the behavior, not here
        if node.role == "channel" and not node.params.get("explicit"):
            return None
        m = _module_of(node)
        for c in node.children:
            cm = build(c)
            if cm is not None:
                m.children.append(cm)
        return m

    top = build(d.root)
    root = d.root.name

    def pin_path(pin) -> str:
        kind, owner, port = pin
        if kind == "top":
            return f"{root}.{port}"
        return f"{root}/{owner}.{port}"

    nets = []
    for ch in d.tlm.channels:
        nets.append(Net(ch.id, [pin_path(p) for p in ch.chain]))
    return ColifNetlist(top, nets)


def netlist_to_json(n: ColifNetlist) -> str:
    doc = {"top": asdict(n.top), "nets": [asdict(x) for x in n.nets]}
    return json.dumps(doc, indent=2) + "\n"
