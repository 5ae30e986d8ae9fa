"""Hardware refinement of functional nodes.

Each hardware node's blocks are mapped to RTL IPs with cycle latencies.
When every IP is pipelined the graph is delay-corrected by inserting
balancing registers on reconvergent paths; otherwise a multicycle FSM
controller sequences the IPs, accepting one sample per initiation
interval.  Both are executed by compiling the RTL graph into the one
block sweep (``sim.sweep``): the controller as the zero-latency sweep, the
cycle model with every IP's output pipeline and every balancing register
added as sweep registers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .model.blocks import port_names
from .model.graph import ModelGraph, Subsystem, flatten, stable_topo
from .sim.sweep import Sweep


@dataclass(frozen=True)
class RtlLibraryEntry:
    rtl_name: str
    latency: int
    eligibility: str  # "pipelined" | "multicycle"


def _fir_latency(params: tuple) -> int:
    taps = len(params)
    return 1 + max(0, math.ceil(math.log2(taps))) if taps > 1 else 1


# Default latencies are repo placeholders, overridable per instance via the
# cost_cycles parameter; they are not calibrated figures.
def library_entry(kind: str, params: tuple,
                  cost_override: int | None = None) -> RtlLibraryEntry:
    if kind == "user":
        name = params[0]
        lat = cost_override if cost_override is not None \
            else RTL_USER_INDEX.get(name, 1)
        return RtlLibraryEntry(f"u_{name}", lat, "multicycle")
    if kind == "for_loop":
        lat = cost_override if cost_override is not None else params[0]
        return RtlLibraryEntry("loop_engine", lat, "multicycle")
    base = {
        "const": ("const_reg", 0, "pipelined"),
        "add": ("adder", 0, "pipelined"),
        "sub": ("subtractor", 0, "pipelined"),
        "gain": ("scaler", 0, "pipelined"),
        "mul": ("multiplier", 1, "pipelined"),
        "quant": ("quantizer", 1, "pipelined"),
        "if_else": ("selector", 0, "pipelined"),
        "mux": ("mux", 0, "pipelined"),
        "demux": ("demux", 0, "pipelined"),
        "sink": ("probe", 0, "pipelined"),
        "delay": ("delay_line", 0, "pipelined"),
    }
    if kind == "fir":
        lat = cost_override if cost_override is not None else _fir_latency(params)
        return RtlLibraryEntry("fir_core", lat, "pipelined")
    name, lat, elig = base[kind]
    if cost_override is not None:
        lat = cost_override
    return RtlLibraryEntry(name, lat, elig)


# user functions with a shipped RTL implementation (name -> latency)
RTL_USER_INDEX: dict[str, int] = {"clip": 2}


class HwSynthError(Exception):
    pass


@dataclass
class RtlNode:
    name: str
    kind: str  # block kind, or "input"/"output" pseudo nodes
    params: tuple = ()
    latency: int = 0
    eligibility: str = "pipelined"

    @property
    def is_delay(self) -> bool:
        return self.kind == "delay"


@dataclass
class RtlEdge:
    src: str
    dst: str
    dst_port: str
    regs: int = 0
    src_port: str = "out"


@dataclass
class RtlGraph:
    name: str
    nodes: dict[str, RtlNode]
    edges: list[RtlEdge]
    inputs: list[str]   # names of input pseudo nodes ("in:<port>")
    outputs: list[str]  # names of output pseudo nodes ("out:<port>")
    levels: dict[str, int] = field(default_factory=dict)
    latency: int | None = None  # k after delay correction


@dataclass
class Controller:
    """Multicycle schedule: one IP firing per step, one sample per II cycles."""

    graph: RtlGraph
    order: list[str]
    ii: int


@dataclass(frozen=True)
class HwImpl:
    """What level 3 runs for one hardware node."""

    kind: str  # "pipelined" | "controller"
    rtl: RtlGraph | Controller  # delay-corrected graph, or the controller
    latency: int  # k of the pipeline, or the controller's II


def _reach(succ: dict, start: str) -> list[str]:
    """``start`` and every node it reaches through ``succ``."""
    seen = [start]
    for m in seen:
        seen += [d for d in succ[m] if d not in seen]
    return seen


def _ordered_nodes(g: RtlGraph) -> tuple[list[str], set[int]]:
    """Topological order ignoring the edges out of a declared delay block
    to a node that reaches it, which close a loop, and their ids."""
    succ: dict[str, list[str]] = {n: [] for n in g.nodes}
    for e in g.edges:
        succ[e.src].append(e.dst)
    loops = {id(e) for e in g.edges
             if g.nodes[e.src].is_delay and e.src in _reach(succ, e.dst)}
    for e in g.edges:
        if id(e) in loops:
            succ[e.src].remove(e.dst)
    order = stable_topo(list(g.nodes), succ)
    if len(order) != len(g.nodes):
        stuck = sorted(set(g.nodes) - set(order))
        raise HwSynthError(f"cycle without a declared delay involving {stuck}")
    return order, loops


def map_rtl_library(node_sub: Subsystem,
                    costs: dict[str, int] | None = None) -> RtlGraph:
    """Replace each functional block of a hardware node with its RTL IP.

    Topology is preserved; costs maps block paths to designer-supplied
    cost_cycles overriding the library defaults.
    """
    costs = costs or {}
    wrapper = ModelGraph(node_sub.id, blocks=node_sub.blocks,
                         subsystems=node_sub.subsystems, links=node_sub.links,
                         inputs=node_sub.inputs, outputs=node_sub.outputs)
    flat = flatten(wrapper)
    if flat.issues:
        raise HwSynthError(
            f"{node_sub.id}: {flat.issues[0].message} ({flat.issues[0].location})")

    nodes: dict[str, RtlNode] = {}
    edges: list[RtlEdge] = []
    inputs = [f"in:{p}" for p in node_sub.inputs]
    outputs = [f"out:{p}" for p in node_sub.outputs]
    for p in node_sub.inputs:
        nodes[f"in:{p}"] = RtlNode(f"in:{p}", "input")
    for path, fb in flat.blocks.items():
        blk = fb.block
        if blk.kind == "user" and blk.params[0] not in RTL_USER_INDEX \
                and path not in costs:
            raise HwSynthError(
                f"{node_sub.id}/{path}: user function {blk.params[0]!r} has "
                "neither an RTL library entry nor a cost_cycles parameter")
        if blk.kind == "delay" and path in costs:
            raise HwSynthError(
                f"{node_sub.id}/{path}: a delay block takes no cost_cycles; "
                "its lag is its functional k")
        entry = library_entry(blk.kind, blk.params, costs.get(path))
        nodes[path] = RtlNode(path, blk.kind, blk.params, entry.latency,
                              entry.eligibility)
    for p in node_sub.outputs:
        nodes[f"out:{p}"] = RtlNode(f"out:{p}", "output")

    def edge(src, dst: str, dst_port: str) -> RtlEdge:
        if src[0] == "top":
            return RtlEdge(f"in:{src[1]}", dst, dst_port)
        return RtlEdge(src[1], dst, dst_port, src_port=src[2])

    rank = {p: i for i, p in enumerate(flat.blocks)}
    for (dst, port), src in sorted(flat.drivers.items(),
                                   key=lambda kv: (rank[kv[0][0]], kv[0][1])):
        edges.append(edge(src, dst, port))
    for p, src in flat.top_outputs.items():
        edges.append(edge(src, f"out:{p}", "in"))

    g = RtlGraph(node_sub.id, nodes, edges, inputs, outputs)
    _ordered_nodes(g)  # raises on undeclared cycles
    return g


def pipelineable(g: RtlGraph) -> bool:
    """Whether ``delay_correct`` keeps the function of ``g``: every IP is
    pipelined and none with latency sits on a loop closed by a delay,
    whose lag its output pipeline would lengthen.  The FSM controller
    runs any other graph, a loop at zero latency."""
    succ = {n: [e.dst for e in g.edges if e.src == n] for n in g.nodes}
    loops = _ordered_nodes(g)[1]
    return all(n.eligibility == "pipelined" for n in g.nodes.values()) and \
        not any(g.nodes[n].latency for e in g.edges if id(e) in loops
                for n in _reach(succ, e.dst) if e.src in _reach(succ, n))


def delay_correct(g: RtlGraph) -> tuple[RtlGraph, int]:
    """Balance path latencies with slack registers; returns (graph, k).

    level(v) = max over incoming edges of level(src), plus L(v); the slack
    on each edge becomes that many registers, and every output is padded to
    the common latency k.  Declared delay blocks implement functional lag;
    an edge closing a loop through one carries no skew and no registers.
    """
    bad = sorted(n.name for n in g.nodes.values() if n.eligibility != "pipelined")
    if bad:
        raise HwSynthError(f"multicycle-only IPs present ({bad}); "
                           "use fsm_controller instead")
    order, loops = _ordered_nodes(g)
    incoming: dict[str, list[RtlEdge]] = {n: [] for n in g.nodes}
    for e in g.edges:
        incoming[e.dst].append(e)
    levels: dict[str, int] = {}
    for n in order:
        levels[n] = g.nodes[n].latency + max(
            (levels[e.src] for e in incoming[n] if id(e) not in loops),
            default=0)
    k = max((levels[o] for o in g.outputs), default=0)
    for o in g.outputs:
        levels[o] = k
    new_edges = []
    for e in g.edges:
        slack = 0 if id(e) in loops else \
            (levels[e.dst] - g.nodes[e.dst].latency) - levels[e.src]
        new_edges.append(replace(e, regs=slack))
    out = RtlGraph(g.name, dict(g.nodes), new_edges, list(g.inputs),
                   list(g.outputs), levels, latency=k)
    return out, k


def fsm_controller(g: RtlGraph) -> Controller:
    """Sequential schedule firing one IP per step; II is the latency sum."""
    order = [n for n in _ordered_nodes(g)[0]
             if g.nodes[n].kind not in ("input", "output")]
    ii = sum(g.nodes[n].latency for n in order)
    if ii == 0:
        ii = 1
    return Controller(g, order, ii)


# ---------------------------------------------------------------------------
# cycle-level execution


def _sweep(g: RtlGraph, order: list[str], timed: bool) -> Sweep:
    """Compile the graph's block sweep; slots are keyed by (node, port).

    ``timed`` adds each IP's L-stage output pipeline and each edge's
    balancing registers; without it the graph runs with zero latency.
    """
    sw = Sweep()
    for n in g.inputs:
        sw.inputs[n.split(":", 1)[1]] = sw.slot((n, "out"))
    read: dict[tuple, int] = {}  # (node, input port) -> slot
    for e in g.edges:
        s = sw.slot((e.src, e.src_port))
        if timed and e.regs:
            q = sw.slot((e.dst, e.dst_port, "regs"))
            sw.reg(s, q, e.regs)
            s = q
        read[(e.dst, e.dst_port)] = s
    for n in order:
        nd = g.nodes[n]
        if nd.kind in ("input", "output"):
            continue
        ins, outs = port_names(nd.kind, nd.params)
        in_slots = [read.get((n, p), 0) for p in ins]
        out_slots = [sw.slot((n, p)) for p in outs]
        if nd.is_delay:
            sw.reg(in_slots[0], out_slots[0], nd.params[0])
            continue
        if timed and nd.latency:
            pipe = [sw.slot((n, p, "pipe")) for p in outs]
            for d, q in zip(pipe, out_slots):
                sw.reg(d, q, nd.latency)
            out_slots = pipe
        sw.op(nd.kind, nd.params, in_slots, out_slots)
    for o in g.outputs:
        sw.outputs[o.split(":", 1)[1]] = read.get((o, "in"), 0)
    sw.build()
    return sw


class RtlCycleSim:
    """Cycle-accurate model of a delay-corrected graph.

    Each IP is its functional block followed by an L-stage output pipeline;
    balancing registers sit on the edges.  One input sample is consumed per
    step; the first k outputs are priming samples, which the engine
    discards.
    """

    def __init__(self, g: RtlGraph):
        if g.latency is None:
            raise HwSynthError("graph must be delay-corrected first")
        self.sweep = _sweep(g, _ordered_nodes(g)[0], timed=True)

    def step(self, in_values: dict[str, int]) -> dict[str, int]:
        return self.sweep.tick(in_values)


class ControllerSim:
    """Executes the multicycle schedule: functional result, II cycles each."""

    def __init__(self, ctrl: Controller):
        self.sweep = _sweep(ctrl.graph, ctrl.order, timed=False)

    def fire(self, in_values: dict[str, int]) -> dict[str, int]:
        return self.sweep.tick(in_values)


# ---------------------------------------------------------------------------
# structural emission


def emit_rtl_text(obj: RtlGraph | Controller) -> str:
    """Stable structural text: instances, registers, wires, latency header."""
    if isinstance(obj, Controller):
        g = obj.graph
        header = f"controller II={obj.ii}"
    else:
        g = obj
        header = f"latency k={g.latency}"
    lines = [f"design {g.name}", header]
    for n, nd in g.nodes.items():
        if nd.kind in ("input", "output"):
            continue
        entry = library_entry(nd.kind, nd.params, nd.latency)
        lines.append(f"inst {n} : {entry.rtl_name} latency={nd.latency}")
    for e in g.edges:
        for i in range(e.regs):
            lines.append(f"reg bal_{e.src}_{e.dst}_{e.dst_port}_{i}")
    for e in g.edges:
        src = e.src if e.src_port == "out" else f"{e.src}.{e.src_port}"
        lines.append(f"wire {src} -> {e.dst}.{e.dst_port}"
                     + (f" regs={e.regs}" if e.regs else ""))
    return "\n".join(lines) + "\n"
