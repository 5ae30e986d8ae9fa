"""Partition recognition: naming conventions over a validated model.

Subsystem prefixes assign architecture roles: ``SW_`` software node,
``HW_`` hardware node, ``TASK_`` task inside a software node, ``CHAN_``
declared communication channel.  Everything left at the top level is
testbench.  Recognition is total; legality is checked separately by
validate_partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .hwsynth import RTL_USER_INDEX
from .model.blocks import port_names
from .model.graph import Block, Endpoint, FlatGraph, Link, ModelGraph, \
    Subsystem, flatten, is_channel_subsystem
from .model.validate import Diagnostic, ValidationReport


@dataclass(frozen=True)
class PortRef:
    unit: str | None  # unit name, or None for a model boundary port
    port: str

    def __str__(self) -> str:
        return f"{self.unit or '<top>'}.{self.port}"


@dataclass
class ChannelSpec:
    id: str
    topology: str  # point_to_point | multipoint | network
    producers: list[PortRef]
    consumers: list[PortRef]
    fifo_depth: int | str = 1  # the raw param; validation rejects a str
    explicit: bool = False
    # ordered pins the connection passes through, for netlist net emission:
    # ("top"|"unit"|"nport"|"chan", owner, port)
    chain: list[tuple] = field(default_factory=list)


@dataclass
class Unit:
    """Behavioral leaf: a software task, a hardware node, or a testbench block."""

    name: str
    kind: str  # "task" | "hw_node" | "testbench"
    subsystem: Subsystem | None = None
    block: Block | None = None
    in_ports: tuple[str, ...] = ()
    out_ports: tuple[str, ...] = ()


@dataclass
class NodeInfo:
    name: str
    role: str  # "software" | "hardware"
    subsystem: Subsystem
    units: list[str] = field(default_factory=list)


@dataclass
class TlmModel:
    base: ModelGraph
    nodes: dict[str, NodeInfo]
    units: dict[str, Unit]
    channels: list[ChannelSpec]
    testbench: list[str]  # unit names

    @cached_property
    def flats(self) -> dict[str, FlatGraph]:
        """Each unit's ``_unit_graph``, flattened once for all stages."""
        return {name: flatten(_unit_graph(u)) for name, u in self.units.items()}

    @cached_property
    def bound(self) -> set[tuple]:
        """(unit, port) of each port on a channel; a port on none reads 0
        and drops what it writes, as its unit's behavior decides."""
        return {(r.unit, r.port) for ch in self.channels
                for r in ch.producers + ch.consumers}


def node_role(sub_id: str) -> str | None:
    if sub_id.startswith("SW_"):
        return "software"
    if sub_id.startswith("HW_"):
        return "hardware"
    return None


def _unit_ports(sub: Subsystem | None, blk: Block | None):
    if sub is not None:
        return tuple(sub.inputs), tuple(sub.outputs)
    ins, outs = port_names(blk.kind, blk.params)
    return tuple(ins), tuple(outs)


def _unit_graph(unit: Unit) -> ModelGraph:
    """The unit on its own: its subsystem, or its block wired to boundary
    ports of the same names."""
    if unit.subsystem is not None:
        s = unit.subsystem
        return ModelGraph(s.id, blocks=s.blocks, subsystems=s.subsystems,
                          links=s.links, inputs=s.inputs, outputs=s.outputs)
    blk = unit.block
    links = [Link(Endpoint("self", p), Endpoint(blk.id, p))
             for p in unit.in_ports]
    links += [Link(Endpoint(blk.id, p), Endpoint("self", p))
              for p in unit.out_ports]
    return ModelGraph(blk.id, blocks=[blk], links=links,
                      inputs=list(unit.in_ports), outputs=list(unit.out_ports))


def recognize_partition(g: ModelGraph) -> TlmModel:
    nodes: dict[str, NodeInfo] = {}
    units: dict[str, Unit] = {}
    testbench: list[str] = []
    chan_subs: dict[str, Subsystem] = {}

    def add_unit(u: Unit):
        units[u.name] = u

    for sub in g.subsystems:
        role = node_role(sub.id)
        if role == "software":
            node = NodeInfo(sub.id, "software", sub)
            nodes[sub.id] = node
            for inner in sub.subsystems:
                # TASK_ subsystems and plain subsystems both become tasks;
                # prefixed ones nested wrongly are flagged by validation
                name = f"{sub.id}/{inner.id}"
                ins, outs = _unit_ports(inner, None)
                add_unit(Unit(name, "task", subsystem=inner,
                              in_ports=ins, out_ports=outs))
                node.units.append(name)
            for blk in sub.blocks:
                name = f"{sub.id}/{blk.id}"
                ins, outs = _unit_ports(None, blk)
                add_unit(Unit(name, "task", block=blk,
                              in_ports=ins, out_ports=outs))
                node.units.append(name)
        elif role == "hardware":
            node = NodeInfo(sub.id, "hardware", sub)
            nodes[sub.id] = node
            ins, outs = _unit_ports(sub, None)
            add_unit(Unit(sub.id, "hw_node", subsystem=sub,
                          in_ports=ins, out_ports=outs))
            node.units.append(sub.id)
        elif is_channel_subsystem(sub.id):
            chan_subs[sub.id] = sub
        else:
            ins, outs = _unit_ports(sub, None)
            add_unit(Unit(sub.id, "testbench", subsystem=sub,
                          in_ports=ins, out_ports=outs))
            testbench.append(sub.id)
    for blk in g.blocks:
        ins, outs = _unit_ports(None, blk)
        add_unit(Unit(blk.id, "testbench", block=blk,
                      in_ports=ins, out_ports=outs))
        testbench.append(blk.id)

    channels = _resolve_channels(g, nodes, units, chan_subs)
    return TlmModel(g, nodes, units, channels, testbench)


def _resolve_channels(g, nodes, units, chan_subs) -> list[ChannelSpec]:
    """Group links into unit-to-unit connections.

    Links are chased through software-node boundary ports down to task
    pins, stopped at hardware-node boundaries, routed through CHAN_
    subsystems which contribute topology and depth, and followed on from
    a model output that a link reads, as level 0 reads it.
    """
    adj: dict[tuple, list[tuple]] = {}

    def add_edge(src, dst):
        adj.setdefault(src, []).append(dst)

    def top_pin(ep):
        if ep.block == "self":
            return ("top", None, ep.port)
        if ep.block in chan_subs:
            return ("chan", ep.block, ep.port)
        if ep.block in nodes:
            if nodes[ep.block].role == "hardware":
                return ("unit", ep.block, ep.port)
            return ("nport", ep.block, ep.port)
        if ep.block in units:
            return ("unit", ep.block, ep.port)
        return None

    for link in g.links:
        s, d = top_pin(link.src), top_pin(link.dst)
        if s is not None and d is not None:
            add_edge(s, d)

    for node in nodes.values():
        if node.role != "software":
            continue

        def sw_pin(ep, node=node):
            if ep.block == "self":
                return ("nport", node.name, ep.port)
            name = f"{node.name}/{ep.block}"
            if name in units:
                return ("unit", name, ep.port)
            return None

        for link in node.subsystem.links:
            s, d = sw_pin(link.src), sw_pin(link.dst)
            if s is not None and d is not None:
                add_edge(s, d)

    # origins: unit output pins and top-level input ports, declaration order
    origins: list[tuple] = []
    for p in g.inputs:
        origins.append(("top", None, p))
    for u in units.values():
        for p in u.out_ports:
            origins.append(("unit", u.name, p))

    chan_out_pins = {}
    for pin in adj:
        if pin[0] == "chan":
            chan_out_pins.setdefault(pin[1], []).append(pin)

    results = []  # (origin, chan name | None, terminals, chain)
    for origin in origins:
        if origin not in adj:
            continue
        chain = [origin]
        terminals: list[tuple] = []
        chan_name = None
        frontier = list(adj.get(origin, []))
        seen = {origin}
        while frontier:
            pin = frontier.pop(0)
            if pin in seen:
                continue
            seen.add(pin)
            chain.append(pin)
            kind = pin[0]
            if kind == "unit" or (kind == "top" and pin[2] in g.outputs):
                terminals.append(pin)
            if kind in ("nport", "top"):
                frontier.extend(adj.get(pin, []))
            elif kind == "chan":
                chan_name = pin[1]
                for out_pin in chan_out_pins.get(pin[1], []):
                    if out_pin not in seen:
                        chain.append(out_pin)
                        seen.add(out_pin)
                        frontier.extend(adj.get(out_pin, []))
        if terminals:
            results.append((origin, chan_name, terminals, chain))

    def ref(pin) -> PortRef:
        return PortRef(pin[1], pin[2])

    channels: list[ChannelSpec] = []
    by_chan: dict[str, ChannelSpec] = {}
    for origin, chan_name, terminals, chain in results:
        if chan_name is not None:
            sub = chan_subs[chan_name]
            if chan_name in by_chan:
                spec = by_chan[chan_name]
                spec.producers.append(ref(origin))
                for t in terminals:
                    if ref(t) not in spec.consumers:
                        spec.consumers.append(ref(t))
                spec.chain.extend(p for p in chain if p not in spec.chain)
                continue
            spec = ChannelSpec(chan_name,
                               str(sub.params.get("topology", "point_to_point")),
                               [ref(origin)], [ref(t) for t in terminals],
                               sub.params.get("depth", 1),
                               explicit=True, chain=chain)
            by_chan[chan_name] = spec
            channels.append(spec)
        else:
            owner = origin[1] if origin[1] is not None else f"top_{origin[2]}"
            cid = f"ch_{owner.replace('/', '_')}_{origin[2]}"
            topo = "point_to_point" if len(terminals) == 1 else "multipoint"
            channels.append(ChannelSpec(cid, topo, [ref(origin)],
                                        [ref(t) for t in terminals],
                                        1, explicit=False, chain=chain))
    return channels


def validate_partition(t: TlmModel) -> ValidationReport:
    """Legality of the recognized partition.

    Each channel has one producer: level 0 has one value per tick on a
    wire, so a merge of two streams would have no level-0 meaning.  Each
    output a unit declares must be driven inside it, even if nothing
    reads it, as the unit's own graph is compiled whole.  A hardware user
    block without an RTL library entry only gets a warning: the flow
    accepts it once its ``cost_cycles`` parameter is set, and rejects it
    at hardware synthesis otherwise.
    """
    out: list[Diagnostic] = []

    def walk_nested(sub: Subsystem, node: NodeInfo, path: str):
        for inner in sub.subsystems:
            loc = f"{path}/{inner.id}"
            role = node_role(inner.id)
            if role is not None and role != node.role:
                out.append(Diagnostic(
                    "error", loc,
                    f"{inner.id.split('_')[0]}_ subsystem nested inside a "
                    f"{node.role} node", line=inner.line))
            if inner.id.startswith("TASK_") and node.role != "software":
                out.append(Diagnostic("error", loc,
                                      "TASK_ subsystem outside a software node",
                                      line=inner.line))
            walk_nested(inner, node, loc)

    for node in t.nodes.values():
        walk_nested(node.subsystem, node, node.name)

    for sub in t.base.subsystems:
        if sub.id.startswith("TASK_"):
            out.append(Diagnostic("error", sub.id,
                                  "TASK_ subsystem outside a software node",
                                  line=sub.line))

    for ch in t.channels:
        loc = ch.id
        if len(ch.producers) > 1:
            out.append(Diagnostic(
                "error", loc,
                f"channel has {len(ch.producers)} producers "
                f"({', '.join(map(str, ch.producers))}); a channel takes one"))
        if ch.topology not in ("point_to_point", "multipoint", "network"):
            out.append(Diagnostic("error", loc,
                                  f"unknown channel topology {ch.topology!r}"))
        elif ch.topology == "point_to_point" and len(ch.producers) < 2:
            if len(ch.producers) != 1 or len(ch.consumers) != 1:
                out.append(Diagnostic(
                    "error", loc,
                    f"point_to_point channel must have exactly one producer "
                    f"and one consumer (has {len(ch.producers)}/{len(ch.consumers)})"))
        elif not ch.producers or not ch.consumers:
            out.append(Diagnostic("error", loc,
                                  "channel must have at least one producer "
                                  "and one consumer"))
        if not isinstance(ch.fifo_depth, int):
            out.append(Diagnostic(
                "error", loc,
                f"fifo depth must be an integer, got {ch.fifo_depth!r}"))
        elif ch.fifo_depth < 1:
            out.append(Diagnostic("error", loc, "fifo depth must be >= 1"))

    for u in t.units.values():
        out += [Diagnostic("error", u.name,
                           f"output {p!r} is not driven by any link",
                           line=(u.subsystem or u.block).line)
                for p in u.out_ports if p not in t.flats[u.name].top_outputs]

    for node in t.nodes.values():
        if node.role != "hardware":
            continue
        for path, fb in t.flats[node.name].blocks.items():
            blk = fb.block
            if blk.kind == "user" and blk.params[0] not in RTL_USER_INDEX:
                out.append(Diagnostic(
                    "warning", f"{node.name}/{path}",
                    f"user function {blk.params[0]!r} has no RTL library entry "
                    "and needs a cost_cycles parameter", line=blk.line))

    out.sort(key=lambda d: (d.line, d.location, d.message))
    return ValidationReport(out)
