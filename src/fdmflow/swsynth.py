"""Software synthesis: task FSMs, the merged image, and bus lowering.

Each task behavior becomes an FSM with one state at entry and one after
every yield point.  Yield points are the blocking operations: a recv on
a possibly-empty channel, a send on a possibly-full channel, and a loop
back-edge, which bounds one scheduler slot to one loop iteration so long
loops interleave with other tasks.  The merged image steps the FSMs
round-robin, one enabled transition per task per slot.

An FSM speaks the behavior's own vocabulary: a transition's actions are
the body's ``Recv``, ``Send``, ``Call`` and ``Assign`` statements plus
the loop counter ops, and a channel op is guarded by ``GReady``.
The micro level changes nothing but addresses: ``lower_api`` gives each
``GReady`` its endpoint's STATUS register, so it becomes a polled bus
Read, and each ``Recv``/``Send`` its DATA register, a bus Read/Write.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .gma.behavior import Assign, Call, Loop, Recv, Send, TaskBehavior, \
    format_stmt
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


# guards: a transition fires when all its guards hold, and always if it
# has none


@dataclass(frozen=True)
class GReady:
    """The channel of ``port`` can move a sample: an input holds one, an
    output (``out``) has room.  Once lowered, ``addr`` is the STATUS
    register it polls, and testing it performs one bus Read whether or
    not it passes."""

    port: str
    out: bool
    addr: int | None = None


@dataclass(frozen=True)
class GLoopNotDone:
    loop_id: str


@dataclass(frozen=True)
class GLoopDone:
    loop_id: str


# actions: the behavior's Recv, Send, Call and Assign, and these


@dataclass(frozen=True)
class ALoopInit:
    loop_id: str
    count: int


@dataclass(frozen=True)
class ALoopStep:
    loop_id: str


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
            if isinstance(s, (Recv, Send)):
                pending.append(s)
                cur = close(cur, (GReady(s.port, isinstance(s, Send)),),
                            pending)
                pending = []
            elif isinstance(s, (Call, Assign)):
                pending.append(s)
            elif isinstance(s, Loop):
                pending.append(ALoopInit(s.loop_id, s.count))
                head = close(cur, (), pending)
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
                            t.guards = (GLoopNotDone(s.loop_id),) + t.guards
                    transitions.append(Transition(
                        bend, (), tuple(bpend) + (ALoopStep(s.loop_id),),
                        head))
                cur = close(head, (GLoopDone(s.loop_id),), [])
            else:
                raise SwSynthError(f"unknown statement {s!r}")
        return cur, pending

    end, pending = compile_seq(b.body, 0, [])
    # wrap around to the entry state so the task body repeats
    if pending or end == 0:
        transitions.append(Transition(end, (), tuple(pending), 0))
    else:
        # a body ending in a channel op or a loop ends in the fresh last
        # state, which has no transition out: enter the entry state instead
        for t in transitions:
            if t.next == end:
                t.next = 0
        states.pop()
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
            if isinstance(a, (Recv, Send)):
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

    @cached_property
    def endpoints(self) -> dict[str, AddrEntry]:
        """Endpoint -> its entry, the first one where an endpoint repeats."""
        return {e.endpoint: e for e in reversed(self.entries)}


# module kinds whose ports are real bus endpoints; sw_node boundaries and
# channel adapters are routing, not endpoints
_ENDPOINT_KINDS = {"top", "task", "hw_node", "ip"}


def allocate_address_map(n: ColifNetlist) -> AddressMap:
    kinds = {path: m.kind for path, m in n.modules()}
    entries = []
    base = ADDR_BASE
    for net in n.nets:
        for ep in net.endpoints:
            if kinds.get(ep.rpartition(".")[0]) not in _ENDPOINT_KINDS:
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
    """Annotate each channel op with its bus address: a ``GReady`` polls
    its endpoint's STATUS register, a ``Recv``/``Send`` moves the sample
    through its DATA register.

    unit_path is the netlist module path of the task, used to find its
    endpoint addresses.
    """
    if f.api_level != "macro":
        raise SwSynthError(f"{f.task}: already at micro level")

    def lower(op):
        if not isinstance(op, (GReady, Recv, Send)):
            return op
        e = m.endpoints.get(f"{unit_path}.{op.port}")
        if e is None:
            raise SwSynthError(
                f"{f.task}: port {op.port!r} has no address map entry")
        return replace(op, addr=e.status_addr if isinstance(op, GReady)
                       else e.data_addr)

    transitions = [Transition(t.state, tuple(map(lower, t.guards)),
                              tuple(map(lower, t.actions)), t.next)
                   for t in f.transitions]
    return replace(f, transitions=transitions, api_level="micro",
                   init_states=dict(f.init_states))


# ---------------------------------------------------------------------------
# pretty-printing (stable, for golden files)


def _fmt(x) -> str:
    """A guard or an action, a lowered status poll as its bus Read."""
    if isinstance(x, GReady):
        if x.addr is not None:
            bit = STATUS_NOT_FULL if x.out else STATUS_NOT_EMPTY
            return f"status(0x{x.addr:04x}) & {bit}"
        return f"can_{'send' if x.out else 'recv'}({x.port})"
    if isinstance(x, GLoopNotDone):
        return f"not_done({x.loop_id})"
    if isinstance(x, GLoopDone):
        return f"done({x.loop_id})"
    if isinstance(x, ALoopInit):
        return f"{x.loop_id} = 0..{x.count}"
    if isinstance(x, ALoopStep):
        return f"{x.loop_id}++"
    return format_stmt(x)


def format_fsm(f: TaskFsm) -> str:
    lines = [f"fsm {f.task} level={f.api_level} states={len(f.states)} "
             f"initial=S{f.initial}"]
    for s in f.states:
        lines.append(f"state S{s}:")
        for t in f.transitions:
            if t.state != s:
                continue
            g = " && ".join(map(_fmt, t.guards)) or "true"
            lines.append(f"  when {g} -> S{t.next}:")
            for a in t.actions:
                lines.append(f"    {_fmt(a)}")
    for key, st in f.init_states.items():
        lines.append(f"state_var {key} = {list(st)}")
    return "\n".join(lines) + "\n"
