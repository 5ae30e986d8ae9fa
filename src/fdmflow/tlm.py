"""Partition recognition: naming conventions over a validated model.

Subsystem prefixes assign architecture roles: ``SW_`` software node,
``HW_`` hardware node, ``TASK_`` task inside a software node, ``CHAN_``
declared communication channel.  Everything left at the top level is
testbench.  Recognition is total; legality is checked separately by
validate_partition.  ``gate`` is the one legality check of a model, which
``check`` prints and ``flow`` stops at: the model rules of
``validate_model`` and, when they pass, the partition's.

Channels run over pins ``(kind, owner, port)`` of four kinds: ``top`` a
model port (owner None), ``unit`` a port of a task, hardware node or
testbench unit, ``nport`` a software node's boundary port, which links
pass through to its tasks, and ``chan`` a port of a CHAN_ subsystem.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .model.blocks import RTL_USER_INDEX, port_names
from .model.graph import SELF, Block, Endpoint, FlatGraph, Link, \
    ModelGraph, Subsystem, flatten, is_channel_subsystem
from .model.validate import Diagnostic, ValidationReport, validate_model


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
    # the pins the connection passes through, producer first, for its net
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


def _unit(name: str, kind: str, src: Subsystem | Block) -> Unit:
    if isinstance(src, Subsystem):
        return Unit(name, kind, src, None, tuple(src.inputs), tuple(src.outputs))
    ins, outs = port_names(src.kind, src.params)
    return Unit(name, kind, None, src, tuple(ins), tuple(outs))


def recognize_partition(g: ModelGraph) -> TlmModel:
    nodes: dict[str, NodeInfo] = {}
    units: dict[str, Unit] = {}
    chan_subs: dict[str, Subsystem] = {}
    for sub in g.subsystems:
        role = node_role(sub.id)
        if is_channel_subsystem(sub.id):
            chan_subs[sub.id] = sub
        elif role is None:
            units[sub.id] = _unit(sub.id, "testbench", sub)
        else:
            # a software node's tasks are its subsystems, TASK_ or plain,
            # and its blocks; validation flags prefixed ones nested wrongly
            node = nodes[sub.id] = NodeInfo(sub.id, role, sub)
            members = ([(f"{sub.id}/{m.id}", "task", m)
                        for m in sub.subsystems + sub.blocks]
                       if role == "software" else [(sub.id, "hw_node", sub)])
            for name, kind, src in members:
                units[name] = _unit(name, kind, src)
                node.units.append(name)
    for blk in g.blocks:
        units[blk.id] = _unit(blk.id, "testbench", blk)
    testbench = [n for n, u in units.items() if u.kind == "testbench"]
    channels = _resolve_channels(g, nodes, units, chan_subs)
    return TlmModel(g, nodes, units, channels, testbench)


def _resolve_channels(g, nodes, units, chan_subs) -> list[ChannelSpec]:
    """Group links into unit-to-unit connections.

    Links are chased through software-node boundary ports down to task
    pins, stopped at hardware-node boundaries, routed through CHAN_
    subsystems which contribute topology and depth, and followed on from
    a model output that a link reads, as level 0 reads it.  The walk from
    each model input and unit output makes one channel, or joins its CHAN_'s.
    """

    def pin(ep: Endpoint, node: str | None = None) -> tuple | None:
        """``ep``'s pin in the top scope or in software node ``node``'s."""
        if ep.block == SELF:
            return ("top", None, ep.port) if node is None else \
                ("nport", node, ep.port)
        if node is not None:
            name = f"{node}/{ep.block}"
            return ("unit", name, ep.port) if name in units else None
        if ep.block in chan_subs:
            return ("chan", ep.block, ep.port)
        if ep.block in nodes and nodes[ep.block].role == "software":
            return ("nport", ep.block, ep.port)
        return ("unit", ep.block, ep.port) if ep.block in units else None

    adj: dict[tuple, list[tuple]] = {}
    scopes = [(None, g.links)] + [(n.name, n.subsystem.links)
                                  for n in nodes.values() if n.role == "software"]
    for node, links in scopes:
        for link in links:
            s, d = pin(link.src, node), pin(link.dst, node)
            if s is not None and d is not None:
                adj.setdefault(s, []).append(d)
    chan_outs: dict[str, list[tuple]] = {}
    for p in adj:
        if p[0] == "chan":
            chan_outs.setdefault(p[1], []).append(p)

    origins = [("top", None, p) for p in g.inputs]
    origins += [("unit", u.name, p) for u in units.values() for p in u.out_ports]
    channels: list[ChannelSpec] = []
    by_chan: dict[str, ChannelSpec] = {}
    for origin in origins:
        if origin not in adj:
            continue
        chain, seen, terminals, chan = [origin], {origin}, [], None
        frontier = deque(adj[origin])
        while frontier:
            p = frontier.popleft()
            if p in seen:
                continue
            seen.add(p)
            chain.append(p)
            kind = p[0]
            if kind == "unit" or (kind == "top" and p[2] in g.outputs):
                terminals.append(p)
            if kind in ("nport", "top"):
                frontier.extend(adj.get(p, ()))
            elif kind == "chan":
                chan = p[1]
                for out in chan_outs.get(chan, ()):
                    if out not in seen:
                        chain.append(out)
                        seen.add(out)
                        frontier.extend(adj[out])
        if not terminals:
            continue
        producer = PortRef(*origin[1:])
        consumers = [PortRef(*t[1:]) for t in terminals]
        if chan in by_chan:
            spec = by_chan[chan]
            spec.producers.append(producer)
            spec.consumers += [c for c in consumers if c not in spec.consumers]
            spec.chain += [p for p in chain if p not in spec.chain]
        elif chan is not None:
            params = chan_subs[chan].params
            spec = by_chan[chan] = ChannelSpec(
                chan, str(params.get("topology", "point_to_point")), [producer],
                consumers, params.get("depth", 1), explicit=True, chain=chain)
            channels.append(spec)
        else:
            owner = origin[1] or f"top_{origin[2]}"
            channels.append(ChannelSpec(
                f"ch_{owner.replace('/', '_')}_{origin[2]}",
                "point_to_point" if len(consumers) == 1 else "multipoint",
                [producer], consumers, 1, chain=chain))
    return channels


def validate_partition(t: TlmModel) -> ValidationReport:
    """Legality of the recognized partition.

    Each channel has one producer: level 0 has one value per tick on a
    wire, so a merge of two streams would have no level-0 meaning.  A
    connection passes through one CHAN_ at most, whose topology and depth
    it takes.  Each
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
        elif ch.topology == "point_to_point" and len(ch.consumers) != 1:
            out.append(Diagnostic(
                "error", loc,
                f"point_to_point channel must have exactly one producer "
                f"and one consumer (has {len(ch.producers)}/{len(ch.consumers)})"))
        chans = list(dict.fromkeys(p[1] for p in ch.chain if p[0] == "chan"))
        if len(chans) > 1:
            out.append(Diagnostic(
                "error", loc, f"connection passes through {' and '.join(chans)}"
                "; a connection takes one CHAN_"))
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
        for path, blk in t.flats[node.name].blocks.items():
            if blk.kind == "user" and blk.params[0] not in RTL_USER_INDEX:
                out.append(Diagnostic(
                    "warning", f"{node.name}/{path}",
                    f"user function {blk.params[0]!r} has no RTL library entry "
                    "and needs a cost_cycles parameter", line=blk.line))

    out.sort(key=lambda d: (d.line, d.location, d.message))
    return ValidationReport(out)


def gate(g: ModelGraph) \
        -> tuple[list[Diagnostic], TlmModel | None, FlatGraph]:
    """Every diagnostic of ``g``, the model rules' then the partition's;
    its partition, or None when a model rule fails, as the partition rules
    assume a valid model; and ``g`` flattened, as validation flattened it."""
    report = validate_model(g)
    if not report.ok:
        return report.diagnostics, None, report.flat
    t = recognize_partition(g)
    return (report.diagnostics + validate_partition(t).diagnostics, t,
            report.flat)
