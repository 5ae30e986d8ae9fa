"""Hierarchical netlist: the module tree of ``build_tree`` and one net per
channel, written as JSON.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from ..tlm import TlmModel
from .tree import Module, build_tree


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


def emit_netlist(t: TlmModel) -> ColifNetlist:
    root = t.base.name

    def pin_path(pin) -> str:
        kind, owner, port = pin
        if kind == "top":
            return f"{root}.{port}"
        return f"{root}/{owner}.{port}"

    nets = [Net(ch.id, [pin_path(p) for p in ch.chain]) for ch in t.channels]
    return ColifNetlist(build_tree(t), nets)


def netlist_to_json(n: ColifNetlist) -> str:
    doc = {"top": asdict(n.top), "nets": [asdict(x) for x in n.nets]}
    return json.dumps(doc, indent=2) + "\n"
