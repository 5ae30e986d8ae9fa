"""Software synthesis: task FSMs, the merged image, and bus lowering.

Each task behavior becomes an FSM with one state at entry and one after
every yield point.  Yield points are the blocking operations: a recv on
a possibly-empty channel, a send on a possibly-full channel, and a loop
back-edge, which bounds one scheduler slot to one loop iteration so long
loops interleave with other tasks.  The merged image steps the FSMs
round-robin, one enabled transition per task per slot; the micro level
replaces channel operations with polled Read/Write bus transactions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .gma.behavior import Assign, Call, If, Loop, Recv, Send, TaskBehavior
from .gma.netlist import ColifNetlist

DATA_OFFSET = 0
STATUS_OFFSET = 4
STATUS_NOT_EMPTY = 1  # bit0
STATUS_NOT_FULL = 2   # bit1
ADDR_BASE = 0x1000
ADDR_STRIDE = 0x10
ADDR_LIMIT = 0x1_0000_0000


class SwSynthError(Exception):
    pass


# guards: a transition fires when all its guards hold


@dataclass(frozen=True)
class GTrue:
    pass


@dataclass(frozen=True)
class GCanRecv:
    port: str


@dataclass(frozen=True)
class GCanSend:
    port: str


@dataclass(frozen=True)
class GLoopNotDone:
    loop_id: str


@dataclass(frozen=True)
class GLoopDone:
    loop_id: str


@dataclass(frozen=True)
class GStatusReady:
    """Micro level: poll the STATUS register, test a bit.

    Evaluating this guard performs one bus Read whether or not it passes.
    """

    addr: int
    bit: int
    port: str  # kept for trace labeling


# actions


@dataclass(frozen=True)
class ARecv:
    port: str
    var: str


@dataclass(frozen=True)
class ASend:
    port: str
    var: str


@dataclass(frozen=True)
class ACall:
    call: Call


@dataclass(frozen=True)
class AAssign:
    var: str
    src: "str | int"


@dataclass(frozen=True)
class ALoopInit:
    loop_id: str
    count: int


@dataclass(frozen=True)
class ALoopStep:
    loop_id: str


@dataclass(frozen=True)
class AIf:
    cond: str
    then: tuple
    orelse: tuple


@dataclass(frozen=True)
class ABusRead:
    addr: int
    var: str
    ctrl: str  # "pop" | "none"
    port: str


@dataclass(frozen=True)
class ABusWrite:
    addr: int
    var: str
    ctrl: str  # "push" | "none"
    port: str


@dataclass
class Transition:
    state: int
    guards: tuple
    actions: tuple
    next: int


@dataclass
class TaskFsm:
    task: str
    states: list[int]
    transitions: list[Transition]
    initial: int
    in_ports: tuple[str, ...]
    out_ports: tuple[str, ...]
    init_states: dict  # behavior state key -> initial tuple
    api_level: str = "macro"  # "macro" | "micro"


_BLOCKING = (ARecv, ASend)


def build_task_fsm(b: TaskBehavior) -> TaskFsm:
    """States at entry and after each yield; compute stays in transitions."""
    states = [0]
    transitions: list[Transition] = []

    def new_state() -> int:
        states.append(len(states))
        return states[-1]

    def close(cur: int, guards: tuple, actions: list) -> int:
        nxt = new_state()
        transitions.append(Transition(cur, guards, tuple(actions), nxt))
        return nxt

    def compile_seq(stmts, cur: int, pending: list) -> tuple[int, list]:
        """Returns (state, unclosed trailing actions)."""
        for s in stmts:
            if isinstance(s, Recv):
                pending.append(ARecv(s.port, s.var))
                cur = close(cur, (GCanRecv(s.port),), pending)
                pending = []
            elif isinstance(s, Send):
                pending.append(ASend(s.port, s.var))
                cur = close(cur, (GCanSend(s.port),), pending)
                pending = []
            elif isinstance(s, Call):
                pending.append(ACall(s))
            elif isinstance(s, Assign):
                pending.append(AAssign(s.var, s.src))
            elif isinstance(s, If):
                pending.append(AIf(s.cond, _plain(s.then), _plain(s.orelse)))
            elif isinstance(s, Loop):
                pending.append(ALoopInit(s.loop_id, s.count))
                head = close(cur, (GTrue(),), pending)
                pending = []
                mark = len(transitions)
                bend, bpend = compile_seq(s.body, head, [])
                if bend == head:
                    # no yields inside: one iteration is one transition
                    transitions.append(Transition(
                        head, (GLoopNotDone(s.loop_id),),
                        tuple(bpend) + (ALoopStep(s.loop_id),), head))
                else:
                    # entering the body only while iterations remain
                    for t in transitions[mark:]:
                        if t.state == head:
                            t.guards = (GLoopNotDone(s.loop_id),) + tuple(
                                g for g in t.guards if not isinstance(g, GTrue))
                    transitions.append(Transition(
                        bend, (GTrue(),),
                        tuple(bpend) + (ALoopStep(s.loop_id),), head))
                cur = close(head, (GLoopDone(s.loop_id),), [])
            else:
                raise SwSynthError(f"unknown statement {s!r}")
        return cur, pending

    def _plain(stmts) -> tuple:
        out = []
        for s in stmts:
            if isinstance(s, Assign):
                out.append(AAssign(s.var, s.src))
            elif isinstance(s, Call):
                out.append(ACall(s))
            elif isinstance(s, If):
                out.append(AIf(s.cond, _plain(s.then), _plain(s.orelse)))
            else:
                raise SwSynthError("blocking operation inside if branch")
        return tuple(out)

    end, pending = compile_seq(b.body, 0, [])
    # wrap around to the entry state so the task body repeats
    if pending or end == 0:
        transitions.append(Transition(end, (GTrue(),), tuple(pending), 0))
    elif end == states[-1] and not any(t.state == end for t in transitions):
        for t in transitions:
            if t.next == end:
                t.next = 0
        states.pop()
    else:
        transitions.append(Transition(end, (GTrue(),), (), 0))
    fsm = TaskFsm(b.task, states, transitions, 0, b.in_ports, b.out_ports,
                  dict(b.states))
    problems = check_fsm(fsm)
    if problems:
        raise SwSynthError(f"{b.task}: {problems[0]}")
    return fsm


def check_fsm(f: TaskFsm) -> list[str]:
    problems = []
    declared = set(f.states)
    if f.initial not in declared:
        problems.append("initial state undeclared")
    for t in f.transitions:
        if t.state not in declared or t.next not in declared:
            problems.append(f"transition {t.state}->{t.next} uses "
                            "undeclared state")
        for a in t.actions[:-1]:
            if isinstance(a, _BLOCKING):
                problems.append(f"blocking action not last in transition "
                                f"from state {t.state}")
    # reachability from the initial state
    succ: dict[int, set] = {s: set() for s in f.states}
    for t in f.transitions:
        if t.state in succ:
            succ[t.state].add(t.next)
    seen, stack = {f.initial}, [f.initial]
    while stack:
        for n in succ[stack.pop()]:
            if n not in seen:
                seen.add(n)
                stack.append(n)
    for s in f.states:
        if s not in seen:
            problems.append(f"state {s} unreachable")
    return problems


# ---------------------------------------------------------------------------
# memory map


@dataclass(frozen=True)
class AddrEntry:
    net: str
    endpoint: str  # "module/path.port"
    base: int

    @property
    def data_addr(self) -> int:
        return self.base + DATA_OFFSET

    @property
    def status_addr(self) -> int:
        return self.base + STATUS_OFFSET


@dataclass
class AddressMap:
    entries: list[AddrEntry]

    def by_endpoint(self, endpoint: str) -> AddrEntry | None:
        for e in self.entries:
            if e.endpoint == endpoint:
                return e
        return None


# module kinds whose ports are real bus endpoints; sw_node boundaries and
# channel adapters are routing, not endpoints
_ENDPOINT_KINDS = {"top", "task", "hw_node", "ip"}


def allocate_address_map(n: ColifNetlist) -> AddressMap:
    kinds = {path: m.kind for path, m in n.modules()}
    top = n.top.name
    entries = []
    base = ADDR_BASE
    for net in n.nets:
        for ep in net.endpoints:
            mpath, _, _port = ep.rpartition(".")
            kind = kinds.get(mpath)
            if kind is None and mpath == top:
                kind = "top"
            if kind not in _ENDPOINT_KINDS:
                continue
            if base >= ADDR_LIMIT:
                raise SwSynthError("address space exhausted")
            entries.append(AddrEntry(net.name, ep, base))
            base += ADDR_STRIDE
    return AddressMap(entries)


def format_address_map(m: AddressMap) -> str:
    lines = ["# endpoint  base  data  status"]
    for e in m.entries:
        lines.append(f"{e.endpoint}  0x{e.base:04x}  0x{e.data_addr:04x}  "
                     f"0x{e.status_addr:04x}  net={e.net}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# lowering to bus transactions


def lower_api(f: TaskFsm, m: AddressMap, unit_path: str) -> TaskFsm:
    """Replace channel operations with polled Read/Write transactions.

    unit_path is the netlist module path of the task, used to find its
    endpoint addresses.
    """
    if f.api_level != "macro":
        raise SwSynthError(f"{f.task}: already at micro level")

    def entry(port: str) -> AddrEntry:
        e = m.by_endpoint(f"{unit_path}.{port}")
        if e is None:
            raise SwSynthError(
                f"{f.task}: port {port!r} has no address map entry")
        return e

    def lower_guard(g):
        if isinstance(g, GCanRecv):
            return GStatusReady(entry(g.port).status_addr,
                                STATUS_NOT_EMPTY, g.port)
        if isinstance(g, GCanSend):
            return GStatusReady(entry(g.port).status_addr,
                                STATUS_NOT_FULL, g.port)
        return g

    def lower_action(a):
        if isinstance(a, ARecv):
            return ABusRead(entry(a.port).data_addr, a.var, "pop", a.port)
        if isinstance(a, ASend):
            return ABusWrite(entry(a.port).data_addr, a.var, "push", a.port)
        return a

    transitions = [Transition(t.state,
                              tuple(lower_guard(g) for g in t.guards),
                              tuple(lower_action(a) for a in t.actions),
                              t.next)
                   for t in f.transitions]
    return replace(f, transitions=transitions, api_level="micro",
                   init_states=dict(f.init_states))


# ---------------------------------------------------------------------------
# pretty-printing (stable, for golden files)


def _fmt_guard(g) -> str:
    if isinstance(g, GTrue):
        return "true"
    if isinstance(g, GCanRecv):
        return f"can_recv({g.port})"
    if isinstance(g, GCanSend):
        return f"can_send({g.port})"
    if isinstance(g, GLoopNotDone):
        return f"not_done({g.loop_id})"
    if isinstance(g, GLoopDone):
        return f"done({g.loop_id})"
    if isinstance(g, GStatusReady):
        return f"status(0x{g.addr:04x}) & {g.bit}"
    return repr(g)


def _fmt_action(a) -> str:
    if isinstance(a, ARecv):
        return f"{a.var} = recv({a.port})"
    if isinstance(a, ASend):
        return f"send({a.port}, {a.var})"
    if isinstance(a, ACall):
        o = ", ".join(a.call.outs)
        return f"{o + ' = ' if o else ''}{a.call.name}" \
               f"({', '.join(a.call.ins)})"
    if isinstance(a, AAssign):
        return f"{a.var} = {a.src}"
    if isinstance(a, ALoopInit):
        return f"{a.loop_id} = 0..{a.count}"
    if isinstance(a, ALoopStep):
        return f"{a.loop_id}++"
    if isinstance(a, AIf):
        t = "; ".join(_fmt_action(x) for x in a.then)
        e = "; ".join(_fmt_action(x) for x in a.orelse)
        return f"if {a.cond} {{{t}}} else {{{e}}}"
    if isinstance(a, ABusRead):
        return f"{a.var} = Read(0x{a.addr:04x}, {a.ctrl})"
    if isinstance(a, ABusWrite):
        return f"Write(0x{a.addr:04x}, {a.var}, {a.ctrl})"
    return repr(a)


def format_fsm(f: TaskFsm) -> str:
    lines = [f"fsm {f.task} level={f.api_level} states={len(f.states)} "
             f"initial=S{f.initial}"]
    for s in f.states:
        lines.append(f"state S{s}:")
        for t in f.transitions:
            if t.state != s:
                continue
            g = " && ".join(_fmt_guard(x) for x in t.guards)
            lines.append(f"  when {g} -> S{t.next}:")
            for a in t.actions:
                lines.append(f"    {_fmt_action(a)}")
    for key, st in f.init_states.items():
        lines.append(f"state_var {key} = {list(st)}")
    return "\n".join(lines) + "\n"
