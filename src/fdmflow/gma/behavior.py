"""Per-unit behavior programs over a small imperative micro-IR.

Every unit (software task, hardware node or testbench unit) gets a
behavior, so all of them run as the same kind of process at the macro
level.  A body is an ordered list of recv/send/call/assign/loop
statements.  Single user blocks become a direct call of the built-in
user function, single predefined blocks a call of the block kind's library
function, and multi-block units a merged body firing each block in a
topological order of the intra-unit dataflow.

An input on no channel becomes an assignment of 0 in place of its recv,
and an output on no channel gets no send, so no executor meets either.

Statement order matters for liveness when tasks exchange data in both
directions: the scheduler emits a ready send before anything else, plain
computation next, and a blocking recv only when nothing else can run.
Delay blocks are split into an emit of the queued sample (schedulable
before the unit's inputs arrive) and a push of the new sample at the end
of the dependency chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model.blocks import init_state, port_names
from ..model.graph import stable_topo
from ..tlm import TlmModel, Unit

DELAY_EMIT = "__delay_emit__"
DELAY_PUSH = "__delay_push__"


class BehaviorError(Exception):
    pass


@dataclass
class Recv:
    port: str
    var: str
    addr: int | None = None  # DATA register, once lowered to a bus Read


@dataclass
class Send:
    port: str
    var: str
    addr: int | None = None  # DATA register, once lowered to a bus Write


@dataclass
class Call:
    name: str  # library function or built-in user function
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
class TaskBehavior:
    task: str
    mode: str  # "direct_user" | "library_instance" | "merged"
    in_ports: tuple[str, ...]  # the ports it receives on
    out_ports: tuple[str, ...]  # the ports it sends on
    body: list
    states: dict = field(default_factory=dict)  # state key -> initial tuple


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


def _block_node(seq, path, blk, ins_v, outs_v):
    kind, params = blk.kind, blk.params
    if kind == "for_loop":
        n, fname = params
        acc = outs_v[0]
        body = [Call(fname, "user", (fname,), (acc,), (acc,))]
        stmts = [Assign(acc, ins_v[0]), Loop(n, body, f"loop_{path}")]
        return _SchedNode(seq, 1, stmts, (acc,), tuple(ins_v))
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
    for nd in nodes:
        deps = {def_of[v] for v in nd.uses if v in def_of}
        deps.update(nd.after)
        deps.discard(nd.seq)
        for d in deps:
            succ[d].append(nd.seq)
    by_seq = {nd.seq: nd for nd in nodes}
    order = stable_topo(sorted(by_seq, key=lambda s: (by_seq[s].prio, s)), succ)
    if len(order) != len(nodes):
        stuck = sorted(set(by_seq) - set(order))
        raise BehaviorError(
            f"combinational cycle inside unit (nodes {stuck}); "
            "insert a delay block")
    return [st for s in order for st in by_seq[s].stmts]


def gen_task_behavior(t: TlmModel, task_id: str) -> TaskBehavior:
    unit = t.units.get(task_id)
    if unit is None:
        raise BehaviorError(f"no unit named {task_id!r}")
    flat = t.flats[task_id]
    if flat.issues:
        i = flat.issues[0]
        raise BehaviorError(f"{task_id}: {i.message} ({i.location})")

    def var_of(src) -> str:
        if src[0] == "top":
            return f"p_{src[1]}"
        return f"{src[1]}_{src[2]}"

    bound = t.bound
    in_ports = tuple(p for p in unit.in_ports if (task_id, p) in bound)
    out_ports = tuple(p for p in unit.out_ports if (task_id, p) in bound)
    nodes: list[_SchedNode] = []
    seq = 0
    for p in unit.in_ports:
        # an input on no channel is a constant, computed like a block
        on = p in in_ports
        st = Recv(p, f"p_{p}") if on else Assign(f"p_{p}", 0)
        nodes.append(_SchedNode(seq, 2 if on else 1, [st], (f"p_{p}",), ()))
        seq += 1
    states: dict[str, tuple] = {}
    for path, blk in flat.blocks.items():
        ins, outs = port_names(blk.kind, blk.params)
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
        nodes.append(_block_node(seq, path, blk, ins_v, outs_v))
        seq += 1
    for p in out_ports:
        v = var_of(flat.top_outputs[p])
        nodes.append(_SchedNode(seq, 0, [Send(p, v)], (), (v,)))
        seq += 1

    body = _schedule(nodes)
    return TaskBehavior(task_id, _mode_of(unit), in_ports, out_ports, body,
                        states)


def format_stmt(s) -> str:
    """A recv, send, call or assignment as one line; a recv or send with
    an address as its bus transaction."""
    if isinstance(s, Recv):
        if s.addr is not None:
            return f"{s.var} = Read(0x{s.addr:04x}, pop)"
        return f"{s.var} = recv({s.port})"
    if isinstance(s, Send):
        if s.addr is not None:
            return f"Write(0x{s.addr:04x}, {s.var}, push)"
        return f"send({s.port}, {s.var})"
    if isinstance(s, Call):
        o = ", ".join(s.outs)
        return f"{o + ' = ' if o else ''}{s.name}({', '.join(s.ins)})"
    return f"{s.var} = {s.src}"


def format_behavior(b: TaskBehavior) -> str:
    """Readable listing, one statement per line."""
    lines = [f"task {b.task} mode={b.mode}"]

    def emit(stmts, ind):
        pad = "  " * ind
        for s in stmts:
            if isinstance(s, Loop):
                lines.append(f"{pad}loop {s.count} times [{s.loop_id}]:")
                emit(s.body, ind + 1)
            else:
                lines.append(pad + format_stmt(s))

    emit(b.body, 1)
    for key, st in b.states.items():
        lines.append(f"  state {key} = {list(st)}")
    return "\n".join(lines) + "\n"
