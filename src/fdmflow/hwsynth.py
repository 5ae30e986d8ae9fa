"""Hardware refinement of functional nodes.

Synthesis reads the node's flat graph, the ``FlatGraph`` the partition
flattened once for every stage (``TlmModel.flats``); an ``RtlGraph`` is
that graph plus the RTL IP of each block and, after delay correction, the
balancing registers on its wires.  A wire is named by what it drives, as
in ``FlatGraph.drivers``: (block path, input port), or (None, port) for
a node output.  ``map_rtl_library`` searches the graph once: one
``graph.sccs`` pass over ``graph.successors`` finds the loops, so a wire
out of a ``delay`` closes a loop when both its ends lie in one cyclic
component, and ``stable_topo`` without those wires gives the evaluation
order; every later step reads the order, the loop wires and the blocks on
a loop from the ``RtlGraph``.
Synthesis ends in one ``HwImpl`` per node, which level 3, the RTL text
and ``synth-hw`` read: when every IP is pipelined, the graph
delay-corrected by balancing registers on reconvergent paths, with its
latency k; otherwise the graph a multicycle FSM controller sequences,
with its initiation interval.  Both run as the flat graph's block sweep,
built by ``sim.sweep.plan`` as level 0's is: the controller at zero
latency, the cycle model with every IP's output pipeline and every
balancing register added as sweep registers.  Each steps by the sweep's
per-sample ``step`` (``RtlCycleSim.step``, ``ControllerSim.fire``), which
runs the chunks of level 0's loop, each body once per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .model.blocks import KINDS, RTL_USER_INDEX
from .model.graph import FlatGraph, delay_wires, sccs, stable_topo, \
    successors
from .sim.sweep import plan


@dataclass(frozen=True)
class RtlLibraryEntry:
    rtl_name: str
    latency: int
    eligibility: str  # "pipelined" | "multicycle"


def library_entry(kind: str, params: tuple,
                  cost_override: int | None = None) -> RtlLibraryEntry:
    """A block's RTL IP (``Kind.ip``), at ``cost_override`` if given."""
    ip = KINDS[kind].ip
    name, latency, eligibility = ip(params) if callable(ip) else ip
    return RtlLibraryEntry(
        name, latency if cost_override is None else cost_override, eligibility)


class HwSynthError(Exception):
    pass


@dataclass
class RtlGraph:
    """A hardware node's flat graph with each block mapped to its IP, its
    evaluation order and its loops; after ``delay_correct`` also the
    balancing registers on its wires."""

    name: str
    flat: FlatGraph
    ips: dict[str, RtlLibraryEntry]  # block path -> its IP
    order: list[str]  # the blocks in evaluation order
    loops: set[tuple]  # the wires out of a delay that close a loop
    on_loop: set[str]  # the blocks on a loop
    # balancing registers per wire, keyed like ``flat.drivers`` with
    # (None, port) for a node output
    regs: dict[tuple, int] = field(default_factory=dict)


@dataclass(frozen=True)
class HwImpl:
    """The one record hardware synthesis makes of a node, which level 3,
    the RTL text and ``synth-hw`` read: a delay-corrected pipeline with its
    latency k, or a multicycle controller firing one IP per step, with its
    initiation interval (II); level 3 charges no cycle for either."""

    kind: str  # "pipelined" | "controller"
    graph: RtlGraph  # with its balancing registers when pipelined
    latency: int  # k of the pipeline, or the controller's II


def _wires(flat: FlatGraph) -> list[tuple]:
    """(wire, driver) of each wire, ``wire`` keyed as in ``RtlGraph.regs``:
    the block inputs by block, then by port name, then the node outputs."""
    rank = {p: i for i, p in enumerate(flat.blocks)}
    return sorted(flat.drivers.items(),
                  key=lambda kv: (rank[kv[0][0]], kv[0][1])) + \
        [((None, p), src) for p, src in flat.top_outputs.items()]


def map_rtl_library(name: str, flat: FlatGraph,
                    costs: dict[str, int] | None = None) -> RtlGraph:
    """Map each functional block of hardware node ``name``, whose flat
    graph is ``flat``, to its RTL IP.

    Topology is preserved; costs maps block paths to designer-supplied
    cost_cycles overriding the library defaults.
    """
    costs = costs or {}
    if flat.issues:
        raise HwSynthError(
            f"{name}: {flat.issues[0].message} ({flat.issues[0].location})")
    ips = {}
    for path, blk in flat.blocks.items():
        if blk.kind == "user" and blk.params[0] not in RTL_USER_INDEX \
                and path not in costs:
            raise HwSynthError(
                f"{name}/{path}: user function {blk.params[0]!r} has "
                "neither an RTL library entry nor a cost_cycles parameter")
        if blk.kind == "delay" and path in costs:
            raise HwSynthError(
                f"{name}/{path}: a delay block takes no cost_cycles; "
                "its lag is its functional k")
        ips[path] = library_entry(blk.kind, blk.params, costs.get(path))
    comps = sccs(list(flat.blocks), successors(flat))
    comp = {p: i for i, c in enumerate(comps) for p in c}
    loops = {w for w in delay_wires(flat)
             if w[0] in comp and comp[w[0]] == comp.get(flat.drivers[w][1])}
    order = stable_topo(list(flat.blocks), successors(flat, loops))
    if len(order) != len(flat.blocks):
        stuck = sorted(set(flat.blocks) - set(order))
        raise HwSynthError(f"cycle without a declared delay involving {stuck}")
    return RtlGraph(name, flat, ips, order, loops, set(comp))


def pipelineable(g: RtlGraph) -> bool:
    """Whether ``delay_correct`` keeps the function of ``g``: every IP is
    pipelined and none with latency sits on a loop closed by a delay,
    whose lag its output pipeline would lengthen.  The FSM controller
    runs any other graph, a loop at zero latency."""
    return all(ip.eligibility == "pipelined" for ip in g.ips.values()) \
        and not any(g.ips[n].latency for n in g.on_loop)


def delay_correct(g: RtlGraph) -> HwImpl:
    """Balance path latencies with slack registers: the pipelined node of
    latency k.

    level(v) = max over incoming wires of level(src), plus L(v); the slack
    on each wire becomes that many registers, and every output is padded to
    the common latency k.  Declared delay blocks implement functional lag;
    a wire closing a loop through one carries no skew and no registers.
    """
    bad = sorted(p for p, ip in g.ips.items() if ip.eligibility != "pipelined")
    if bad:
        raise HwSynthError(f"multicycle-only IPs present ({bad}); "
                           "use fsm_controller instead")
    incoming: dict[str, list[tuple]] = {p: [] for p in g.flat.blocks}
    for w, src in g.flat.drivers.items():
        if w not in g.loops:
            incoming[w[0]].append(src)
    levels: dict[str, int] = {}

    def level(src: tuple) -> int:  # a node input's is 0
        return levels[src[1]] if src[0] == "block" else 0

    for n in g.order:
        levels[n] = g.ips[n].latency + max(map(level, incoming[n]), default=0)
    k = max(map(level, g.flat.top_outputs.values()), default=0)
    regs = {w: 0 if w in g.loops else
            (levels[w[0]] - g.ips[w[0]].latency if w[0] else k) - level(src)
            for w, src in _wires(g.flat)}
    return HwImpl("pipelined", replace(g, regs=regs), k)


def fsm_controller(g: RtlGraph) -> HwImpl:
    """Sequential schedule firing one IP per step; II is the latency sum."""
    return HwImpl("controller", g,
                  sum(ip.latency for ip in g.ips.values()) or 1)


# ---------------------------------------------------------------------------
# cycle-level execution


class RtlCycleSim:
    """Cycle-accurate model of a pipelined node.

    Each IP is its functional block followed by an L-stage output pipeline;
    balancing registers sit on the wires.  One input sample is consumed per
    step; the first k outputs are priming samples, which the engine
    discards.
    """

    def __init__(self, impl: HwImpl):
        g = impl.graph
        self.sweep = plan(g.flat, g.order,
                          {p: ip.latency for p, ip in g.ips.items()}, g.regs)
        self.sweep.stream(sample=True)

    def step(self, *xs: int) -> tuple:
        return self.sweep.step(*xs)


class ControllerSim:
    """Executes the multicycle schedule; its II is reported, not charged."""

    def __init__(self, impl: HwImpl):
        self.sweep = plan(impl.graph.flat, impl.graph.order)
        self.sweep.stream(sample=True)

    def fire(self, *xs: int) -> tuple:
        return self.sweep.step(*xs)


# ---------------------------------------------------------------------------
# structural emission


def emit_rtl_text(impl: HwImpl) -> str:
    """Stable structural text: instances, registers, wires, latency header."""
    g = impl.graph
    header = f"latency k={impl.latency}" if impl.kind == "pipelined" \
        else f"controller II={impl.latency}"
    lines = [f"design {g.name}", header]
    lines += [f"inst {p} : {ip.rtl_name} latency={ip.latency}"
              for p, ip in g.ips.items()]
    wires = []
    for w, src in _wires(g.flat):
        a = f"in:{src[1]}" if src[0] == "top" else src[1]
        pin = a if src[0] == "top" or src[2] == "out" else f"{a}.{src[2]}"
        b, port = w if w[0] else (f"out:{w[1]}", "in")
        n = g.regs.get(w, 0)
        lines += [f"reg bal_{a}_{b}_{port}_{i}" for i in range(n)]
        wires.append(f"wire {pin} -> {b}.{port}" + (f" regs={n}" if n else ""))
    return "\n".join(lines + wires) + "\n"
