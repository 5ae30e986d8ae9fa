"""Hierarchical block-diagram graph and its flattened form."""

from __future__ import annotations

from dataclasses import dataclass, field

from .blocks import FunctionRegistry, port_names

SELF = "self"  # reserved endpoint id for the enclosing scope's own ports


@dataclass(frozen=True)
class Endpoint:
    block: str  # block/subsystem id, or SELF
    port: str

    def __str__(self) -> str:
        return f"{self.block}.{self.port}"


@dataclass
class Link:
    src: Endpoint
    dst: Endpoint
    line: int = 0


@dataclass
class Block:
    id: str
    kind: str
    params: tuple = ()
    width: int = 1
    line: int = 0


@dataclass
class Subsystem:
    id: str
    blocks: list[Block] = field(default_factory=list)
    subsystems: list["Subsystem"] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    line: int = 0


@dataclass
class ModelGraph:
    name: str
    blocks: list[Block] = field(default_factory=list)
    subsystems: list[Subsystem] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    line: int = 0


def is_channel_subsystem(sub_id: str) -> bool:
    return sub_id.startswith("CHAN_")


# Flattened pins are tagged tuples:
#   ("blk", path, port)  -- a port of a block instance
#   ("port", path, port) -- a boundary port of a subsystem (path "" = model)
Pin = tuple


@dataclass
class FlatBlock:
    path: str
    block: Block


@dataclass
class Issue:
    message: str
    location: str
    line: int = 0


@dataclass
class FlatGraph:
    """Fully elaborated graph: block instances with resolved drivers."""

    blocks: dict[str, FlatBlock]
    # (block path, input port) -> ("block", src path, src port) | ("top", port)
    drivers: dict
    top_outputs: dict  # top output port -> same source form
    issues: list[Issue]


def _chan_pass_through(pin: Pin, incoming: dict):
    """Resolve a channel subsystem's undriven output port to a driven input.

    Channel subsystems carry no behavior: data entering any driven port
    leaves on the outputs.  Ports pair by name (out<->in, outN<->inN) when
    possible, otherwise the first driven port in link order is used.
    """
    _, path, port = pin
    driven = [p for p in incoming if p[0] == "port" and p[1] == path]
    if not driven:
        return None
    want = port.replace("out", "in") if "out" in port else None
    for p in driven:
        if p[2] == want:
            return p
    return driven[0]


def _scope_index(scope):
    idx = {}
    for b in scope.blocks:
        idx[b.id] = ("blk", b)
    for s in scope.subsystems:
        idx[s.id] = ("sub", s)
    return idx


def flatten(g: ModelGraph, registry: FunctionRegistry | None = None) -> FlatGraph:
    """Elaborate the hierarchy, chasing links through subsystem boundary ports.

    Structural problems are collected as issues instead of raised so that
    validation can report them all.
    """
    blocks: dict[str, FlatBlock] = {}
    incoming: dict[Pin, Pin] = {}
    issues: list[Issue] = []
    sub_ports: dict[str, set] = {"": set(g.inputs) | set(g.outputs)}
    chan_paths: set[str] = set()

    def pin_of(scope, path: str, ep: Endpoint, link: Link, is_src: bool):
        if ep.block == SELF:
            if ep.port not in sub_ports[path]:
                issues.append(Issue(f"unknown port {ep.port!r} on enclosing scope",
                                    f"{path or g.name}", link.line))
                return None
            return ("port", path, ep.port)
        idx = _scope_index(scope)
        if ep.block not in idx:
            issues.append(Issue(f"link references undeclared id {ep.block!r}",
                                path or g.name, link.line))
            return None
        tag, obj = idx[ep.block]
        child = f"{path}/{ep.block}" if path else ep.block
        if tag == "sub":
            if is_channel_subsystem(obj.id):
                # channel subsystems are wiring declarations: any port name
                # is accepted, declared or not
                return ("port", child, ep.port)
            if ep.port not in set(obj.inputs) | set(obj.outputs):
                issues.append(Issue(f"subsystem {ep.block!r} has no port {ep.port!r}",
                                    path or g.name, link.line))
                return None
            return ("port", child, ep.port)
        ins, outs = port_names(obj.kind, obj.params, registry)
        legal = outs if is_src else ins
        if ep.port not in legal:
            side = "output" if is_src else "input"
            issues.append(Issue(f"block {ep.block!r} ({obj.kind}) has no {side} "
                                f"port {ep.port!r}", path or g.name, link.line))
            return None
        return ("blk", child, ep.port)

    def walk(scope, path: str):
        for b in scope.blocks:
            bpath = f"{path}/{b.id}" if path else b.id
            blocks[bpath] = FlatBlock(bpath, b)
        for s in scope.subsystems:
            spath = f"{path}/{s.id}" if path else s.id
            sub_ports[spath] = set(s.inputs) | set(s.outputs)
            if is_channel_subsystem(s.id):
                chan_paths.add(spath)
            walk(s, spath)
        for link in scope.links:
            src = pin_of(scope, path, link.src, link, True)
            dst = pin_of(scope, path, link.dst, link, False)
            if src is None or dst is None:
                continue
            if dst in incoming:
                issues.append(Issue(f"multiple drivers for {link.dst}",
                                    path or g.name, link.line))
                continue
            incoming[dst] = src

    walk(g, "")

    def chase(pin: Pin, what: str):
        seen = set()
        cur = pin
        while True:
            if cur != pin and cur[0] == "blk":
                return ("block", cur[1], cur[2])
            if cur[0] == "port" and cur[1] == "" and cur[2] in g.inputs:
                return ("top", cur[2])
            if cur in seen:
                issues.append(Issue(f"port wiring cycle while resolving {what}",
                                    cur[1] or g.name))
                return None
            seen.add(cur)
            nxt = incoming.get(cur)
            if nxt is None and cur[0] == "port" and cur[1] in chan_paths:
                nxt = _chan_pass_through(cur, incoming)
            if nxt is None:
                issues.append(Issue(f"{what} is not driven by any link",
                                    cur[1] or g.name))
                return None
            cur = nxt

    drivers = {}
    for path, fb in blocks.items():
        ins, _ = port_names(fb.block.kind, fb.block.params, registry)
        for p in ins:
            src = chase(("blk", path, p), f"input {path}.{p}")
            if src is not None:
                drivers[(path, p)] = src
    top_outputs = {}
    for p in g.outputs:
        src = chase(("port", "", p), f"model output {p}")
        if src is not None:
            top_outputs[p] = src
    return FlatGraph(blocks, drivers, top_outputs, issues)


def comb_successors(flat: FlatGraph) -> dict[str, list[str]]:
    """Combinational dependency edges driver -> consumer.

    Edges out of delay blocks are omitted: a delay's output is registered
    and does not combinationally depend on its input.
    """
    succ: dict[str, list[str]] = {p: [] for p in flat.blocks}
    for (dst, _port), src in sorted(flat.drivers.items()):
        if src[0] != "block":
            continue
        sp = src[1]
        if flat.blocks[sp].block.kind == "delay":
            continue
        if dst not in succ[sp]:
            succ[sp].append(dst)
    return succ


def topo_order(flat: FlatGraph) -> list[str]:
    """Declaration-order-stable topological order of the combinational graph."""
    succ = comb_successors(flat)
    indeg = {p: 0 for p in flat.blocks}
    for sp, ds in succ.items():
        for d in ds:
            indeg[d] += 1
    order = []
    ready = [p for p in flat.blocks if indeg[p] == 0]
    while ready:
        cur = ready.pop(0)
        order.append(cur)
        newly = []
        for d in succ[cur]:
            indeg[d] -= 1
            if indeg[d] == 0:
                newly.append(d)
        # keep declaration order among newly-ready nodes
        ready = sorted(ready + newly, key=lambda p: list(flat.blocks).index(p))
    if len(order) != len(flat.blocks):
        raise ValueError("combinational cycle; run validation first")
    return order
