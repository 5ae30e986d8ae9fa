"""Per-unit behavior programs over a small imperative micro-IR.

Every unit (software task, hardware node or testbench unit) gets a
behavior, so all of them run as the same kind of process at the macro
level.  A body is an ordered list of recv/send/call/assign/loop/if
statements.  Single user blocks become a direct call of the registered
function, single predefined blocks a call of the block kind's library
function, and multi-block units a merged body firing each block in a
topological order of the intra-unit dataflow.

Statement order matters for liveness when tasks exchange data in both
directions: the scheduler emits a ready send before anything else, plain
computation next, and a blocking recv only when nothing else can run.
Delay blocks are split into an emit of the queued sample (schedulable
before the unit's inputs arrive) and a push of the new sample at the end
of the dependency chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model.blocks import FunctionRegistry, default_registry, init_state, \
    port_names
from ..model.graph import Endpoint, Link, ModelGraph, flatten
from ..tlm import Unit
from .tree import DesignTree

DELAY_EMIT = "__delay_emit__"
DELAY_PUSH = "__delay_push__"


class BehaviorError(Exception):
    pass


@dataclass
class Recv:
    port: str
    var: str


@dataclass
class Send:
    port: str
    var: str


@dataclass
class Call:
    name: str  # library function or registered user function
    kind: str  # originating block kind
    params: tuple
    ins: tuple[str, ...]
    outs: tuple[str, ...]
    state_key: str | None = None


@dataclass
class Assign:
    var: str
    src: "str | int"  # variable name, or integer literal


@dataclass
class Loop:
    count: int
    body: list
    loop_id: str


@dataclass
class If:
    cond: str
    then: list
    orelse: list


Stmt = object


@dataclass
class TaskBehavior:
    task: str
    mode: str  # "direct_user" | "library_instance" | "merged"
    in_ports: tuple[str, ...]
    out_ports: tuple[str, ...]
    body: list
    states: dict = field(default_factory=dict)  # state key -> initial tuple


def _task_graph(unit: Unit) -> ModelGraph:
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


def _mode_of(unit: Unit) -> str:
    blocks = [unit.block] if unit.block is not None \
        else list(unit.subsystem.blocks)
    if len(blocks) == 1:
        return "direct_user" if blocks[0].kind == "user" else "library_instance"
    return "merged"


@dataclass
class _SchedNode:
    seq: int
    prio: int  # 0 send, 1 compute, 2 recv
    stmts: list
    defines: tuple[str, ...]
    uses: tuple[str, ...]
    after: tuple[int, ...] = ()  # explicit ordering edges (delay emit->push)


def _block_node(seq, path, blk, ins_v, outs_v, registry):
    kind, params = blk.kind, blk.params
    if kind == "for_loop":
        n, fname = params
        acc = outs_v[0]
        body = [Call(fname, "user", (fname,), (acc,), (acc,))]
        stmts = [Assign(acc, ins_v[0]), Loop(n, body, f"loop_{path}")]
        return _SchedNode(seq, 1, stmts, (acc,), tuple(ins_v))
    if kind == "if_else":
        pred, a, b = ins_v
        out = outs_v[0]
        stmts = [If(pred, [Assign(out, a)], [Assign(out, b)])]
        return _SchedNode(seq, 1, stmts, (out,), tuple(ins_v))
    name = params[0] if kind == "user" else kind
    state_key = path if init_state(kind, params) is not None else None
    call = Call(name, kind, params, tuple(ins_v), tuple(outs_v), state_key)
    return _SchedNode(seq, 1, [call], tuple(outs_v), tuple(ins_v))


def _schedule(nodes: list[_SchedNode]) -> list:
    def_of = {}
    for nd in nodes:
        for v in nd.defines:
            def_of[v] = nd.seq
    succ: dict[int, list[int]] = {nd.seq: [] for nd in nodes}
    indeg = {nd.seq: 0 for nd in nodes}
    for nd in nodes:
        deps = {def_of[v] for v in nd.uses if v in def_of}
        deps.update(nd.after)
        deps.discard(nd.seq)
        for d in deps:
            succ[d].append(nd.seq)
            indeg[nd.seq] += 1
    by_seq = {nd.seq: nd for nd in nodes}
    ready = [s for s in indeg if indeg[s] == 0]
    body: list = []
    done = 0
    while ready:
        ready.sort(key=lambda s: (by_seq[s].prio, s))
        cur = ready.pop(0)
        body.extend(by_seq[cur].stmts)
        done += 1
        for d in succ[cur]:
            indeg[d] -= 1
            if indeg[d] == 0:
                ready.append(d)
    if done != len(nodes):
        stuck = sorted(s for s in indeg if indeg[s] > 0)
        raise BehaviorError(
            f"combinational cycle inside unit (nodes {stuck}); "
            "insert a delay block")
    return body


def gen_task_behavior(d: DesignTree, task_id: str,
                      registry: FunctionRegistry | None = None) -> TaskBehavior:
    registry = registry or default_registry()
    unit = d.tlm.units.get(task_id)
    if unit is None:
        raise BehaviorError(f"no unit named {task_id!r}")
    for blk in ([unit.block] if unit.block else unit.subsystem.blocks):
        if blk.kind == "user" and blk.params[0] not in registry:
            raise BehaviorError(
                f"{task_id}/{blk.id}: user function {blk.params[0]!r} "
                "is not registered")
        if blk.kind == "for_loop" and blk.params[1] not in registry:
            raise BehaviorError(
                f"{task_id}/{blk.id}: loop function {blk.params[1]!r} "
                "is not registered")

    g = _task_graph(unit)
    flat = flatten(g, registry)
    if flat.issues:
        i = flat.issues[0]
        raise BehaviorError(f"{task_id}: {i.message} ({i.location})")

    def var_of(src) -> str:
        if src[0] == "top":
            return f"p_{src[1]}"
        return f"{src[1]}_{src[2]}"

    nodes: list[_SchedNode] = []
    seq = 0
    for p in unit.in_ports:
        nodes.append(_SchedNode(seq, 2, [Recv(p, f"p_{p}")], (f"p_{p}",), ()))
        seq += 1
    states: dict[str, tuple] = {}
    for path, fb in flat.blocks.items():
        blk = fb.block
        ins, outs = port_names(blk.kind, blk.params, registry)
        ins_v = [var_of(flat.drivers[(path, p)]) for p in ins]
        outs_v = [f"{path}_{p}" for p in outs]
        st = init_state(blk.kind, blk.params)
        if blk.kind == "delay":
            states[path] = st
            emit = _SchedNode(seq, 1,
                              [Call(DELAY_EMIT, "delay", blk.params,
                                    (), tuple(outs_v), path)],
                              tuple(outs_v), ())
            nodes.append(emit)
            seq += 1
            push = _SchedNode(seq, 1,
                              [Call(DELAY_PUSH, "delay", blk.params,
                                    tuple(ins_v), (), path)],
                              (), tuple(ins_v), after=(emit.seq,))
            nodes.append(push)
            seq += 1
            continue
        if st is not None:
            states[path] = st
        nodes.append(_block_node(seq, path, blk, ins_v, outs_v, registry))
        seq += 1
    for p in unit.out_ports:
        v = var_of(flat.top_outputs[p])
        nodes.append(_SchedNode(seq, 0, [Send(p, v)], (), (v,)))
        seq += 1

    body = _schedule(nodes)
    return TaskBehavior(task_id, _mode_of(unit), unit.in_ports,
                        unit.out_ports, body, states)


def format_behavior(b: TaskBehavior) -> str:
    """Readable listing, one statement per line."""
    lines = [f"task {b.task} mode={b.mode}"]

    def emit(stmts, ind):
        pad = "  " * ind
        for s in stmts:
            if isinstance(s, Recv):
                lines.append(f"{pad}{s.var} = recv({s.port})")
            elif isinstance(s, Send):
                lines.append(f"{pad}send({s.port}, {s.var})")
            elif isinstance(s, Call):
                o = ", ".join(s.outs)
                i = ", ".join(s.ins)
                lhs = f"{o} = " if o else ""
                lines.append(f"{pad}{lhs}{s.name}({i})")
            elif isinstance(s, Assign):
                lines.append(f"{pad}{s.var} = {s.src}")
            elif isinstance(s, Loop):
                lines.append(f"{pad}loop {s.count} times [{s.loop_id}]:")
                emit(s.body, ind + 1)
            elif isinstance(s, If):
                lines.append(f"{pad}if {s.cond}:")
                emit(s.then, ind + 1)
                lines.append(f"{pad}else:")
                emit(s.orelse, ind + 1)

    emit(b.body, 1)
    for key, st in b.states.items():
        lines.append(f"  state {key} = {list(st)}")
    return "\n".join(lines) + "\n"
