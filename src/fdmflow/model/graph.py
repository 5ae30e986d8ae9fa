"""Hierarchical block-diagram graph, its flattened form and the graph
searches every stage shares.

``flatten`` is the one elaboration of a hierarchy, which reports each
structural problem as a ``Diagnostic``; ``successors`` is the one
successor map of a flat graph, ``sccs`` the one loop search and
``stable_topo`` the one ordering."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .blocks import port_names

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


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    location: str
    message: str
    cycle: tuple[str, ...] | None = None
    line: int = 0


@dataclass
class FlatGraph:
    """Fully elaborated graph: block instances with resolved drivers."""

    blocks: dict[str, Block]  # block path -> the block
    # (block path, input port) -> ("block", src path, src port) | ("top", port)
    drivers: dict
    top_outputs: dict  # top output port -> same source form
    issues: list[Diagnostic]  # the errors flatten found


def flatten(g: ModelGraph) -> FlatGraph:
    """Elaborate the hierarchy, chasing links through subsystem boundary ports.

    A link leaves a subsystem by one of its outputs and enters it by one
    of its inputs.  Structural problems are collected as error diagnostics
    instead of raised so that validation can report them all.
    """
    blocks: dict[str, Block] = {}
    incoming: dict[Pin, Pin] = {}
    issues: list[Diagnostic] = []
    sub_ports: dict[str, set] = {"": set(g.inputs) | set(g.outputs)}
    chan_paths: set[str] = set()
    # channel subsystems carry no behavior: each of their undriven ports
    # passes on the value of the input a link of the enclosing scope drives
    chan_input: dict[str, Pin] = {}

    def issue(message: str, location: str, line: int = 0):
        issues.append(Diagnostic("error", location, message, line=line))

    def pin_of(idx: dict, path: str, ep: Endpoint, link: Link, is_src: bool):
        if ep.block == SELF:
            if ep.port not in sub_ports[path]:
                issue(f"unknown port {ep.port!r} on enclosing scope",
                      path or g.name, link.line)
                return None
            return ("port", path, ep.port)
        if ep.block not in idx:
            issue(f"link references undeclared id {ep.block!r}",
                  path or g.name, link.line)
            return None
        tag, obj, child = idx[ep.block]
        if tag == "sub":
            if ep.port not in set(obj.inputs) | set(obj.outputs):
                issue(f"subsystem {ep.block!r} has no port {ep.port!r}",
                      path or g.name, link.line)
                return None
            if ep.port not in (obj.outputs if is_src else obj.inputs):
                side, role = ("input", "source") if is_src else \
                    ("output", "destination")
                issue(f"subsystem {ep.block!r} port {ep.port!r} is an {side}, "
                      f"not a link {role}", path or g.name, link.line)
                return None
            return ("port", child, ep.port)
        ins, outs = port_names(obj.kind, obj.params)
        legal = outs if is_src else ins
        if ep.port not in legal:
            side = "output" if is_src else "input"
            issue(f"block {ep.block!r} ({obj.kind}) has no {side} port "
                  f"{ep.port!r}", path or g.name, link.line)
            return None
        return ("blk", child, ep.port)

    def walk(scope, path: str):
        # id -> (tag, block or subsystem, its path): a pin reuses the path
        # string that keys ``blocks``, so drivers hold no copy of it
        idx = {}
        for b in scope.blocks:
            bpath = f"{path}/{b.id}" if path else b.id
            blocks[bpath] = b
            idx[b.id] = ("blk", b, bpath)
        for s in scope.subsystems:
            spath = f"{path}/{s.id}" if path else s.id
            idx[s.id] = ("sub", s, spath)
            sub_ports[spath] = set(s.inputs) | set(s.outputs)
            if is_channel_subsystem(s.id):
                chan_paths.add(spath)
            walk(s, spath)
        for link in scope.links:
            src = pin_of(idx, path, link.src, link, True)
            dst = pin_of(idx, path, link.dst, link, False)
            if src is None or dst is None:
                continue
            if dst in incoming:
                issue(f"multiple drivers for {link.dst}", path or g.name,
                      link.line)
                continue
            incoming[dst] = src
            if dst[1] in chan_paths and link.dst.block != SELF:
                chan_input.setdefault(dst[1], dst)

    walk(g, "")
    # walk calls itself through its closure, a cycle that would keep the
    # walk's tables alive until the next collection of cycles; unbound,
    # they are freed when flatten returns
    walk = None

    def chase(pin: Pin, what: str):
        seen = set()
        cur = pin
        while True:
            if cur != pin and cur[0] == "blk":
                return ("block", cur[1], cur[2])
            if cur[0] == "port" and cur[1] == "" and cur[2] in g.inputs:
                return ("top", cur[2])
            if cur in seen:
                issue(f"port wiring cycle while resolving {what}",
                      cur[1] or g.name)
                return None
            seen.add(cur)
            nxt = incoming.get(cur)
            if nxt is None and cur[0] == "port":
                nxt = chan_input.get(cur[1])
            if nxt is None:
                issue(f"{what} is not driven by any link", cur[1] or g.name)
                return None
            cur = nxt

    drivers = {}
    for path, b in blocks.items():
        ins, _ = port_names(b.kind, b.params)
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


def successors(flat: FlatGraph, skip=frozenset()) -> dict[str, list[str]]:
    """Block -> the blocks its outputs feed, leaving out the wires (block
    path, input port) in ``skip``; a block feeding two inputs of one
    block is listed twice."""
    succ: dict[str, list[str]] = {p: [] for p in flat.blocks}
    for w, src in flat.drivers.items():
        if src[0] == "block" and w not in skip:
            succ[src[1]].append(w[0])
    return succ


def delay_wires(flat: FlatGraph) -> set[tuple]:
    """The wires a delay block drives: its output is registered, so they
    carry no combinational dependency."""
    return {w for w, src in flat.drivers.items()
            if src[0] == "block" and flat.blocks[src[1]].kind == "delay"}


def sccs(nodes: list, succ: dict) -> list[list]:
    """Tarjan's strongly connected components of ``succ`` over ``nodes``
    that hold a cycle: two or more nodes, or one with an edge to itself.
    Iterative, so a long chain does not reach the recursion limit; each
    node and edge is visited once."""
    index: dict = {}
    low: dict = {}
    on: set = set()
    stack: list = []
    work: list = []  # (node, iterator over its unvisited successors)
    out = []

    def push(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on.add(v)
        work.append((v, iter(succ[v])))

    for root in nodes:
        if root in index:
            continue
        push(root)
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    push(w)
                    break
                if w in on:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on.discard(comp[-1])
                    if len(comp) > 1 or v in succ[v]:
                        out.append(comp)
    return out


def stable_topo(nodes: list, succ: dict) -> list:
    """Kahn's algorithm; among ready nodes the earliest in ``nodes`` fires
    first.  Nodes on a cycle are left out of the result."""
    rank = {n: i for i, n in enumerate(nodes)}
    indeg = dict.fromkeys(nodes, 0)
    for n in nodes:
        for d in succ[n]:
            indeg[d] += 1
    ready = [i for i, n in enumerate(nodes) if indeg[n] == 0]
    order = []
    while ready:
        cur = nodes[heapq.heappop(ready)]
        order.append(cur)
        for d in succ[cur]:
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(ready, rank[d])
    return order


def topo_order(flat: FlatGraph) -> list[str]:
    """Declaration-order-stable topological order of the combinational graph."""
    succ = successors(flat, delay_wires(flat))
    order = stable_topo(list(flat.blocks), succ)
    if len(order) != len(flat.blocks):
        raise ValueError("combinational cycle; run validation first")
    return order
