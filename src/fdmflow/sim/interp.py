"""Executors for unit behaviors and task FSMs.

A macro unit runs its behavior body as a generator bound to its
channels, which yields only when it blocks or ends a body iteration; the
micro interpreter steps a lowered FSM one transition at a time under the
round-robin scheduler, charging bus cycles for every transaction
including failed status polls.

``behavior_coroutine`` emits each body once as the source of one
generator function, compiled through ``sweep.exec_generated`` (equal
texts are compiled once): behavior variables and block states become
locals, a loop a ``for`` and a branch an ``if``/``else``, and every call
one call of the step function ``block_fn`` binds for its block, passed
in as an argument.  ``block_fn`` stays the one definition of a block; no
statement or block kind has a code template, and the source holds only
integers, ``repr`` strings and names the generator makes up.

The FSM runner is generated the same way, one function per FSM state:
the function tests the state's transitions in order, each guard chain
one ``and`` expression, so a poll runs, and is charged, exactly when the
chain reaches it; the first transition whose guards hold runs its
actions as straight-line code and returns the next state, and None says
no transition fired.  Every name, address, count and state key from the
model is a parameter of the text, so FSM states of the same shape share
one compiled text.  Both executors, and the block sweep, write a block
call through ``sweep.call_src``, the one call convention.
"""

from __future__ import annotations

from ..gma.behavior import DELAY_EMIT, DELAY_PUSH, Assign, Call, If, Loop, \
    Recv, Send, TaskBehavior
from ..model.blocks import block_fn
from ..swsynth import AAssign, ABusRead, ABusWrite, ACall, AIf, ALoopInit, \
    ALoopStep, ARecv, ASend, GCanRecv, GCanSend, GLoopDone, GLoopNotDone, \
    GStatusReady, GTrue, TaskFsm
from .sweep import call_src, exec_generated


class SimError(Exception):
    pass


def _call_src(c: Call, var, state, fns: list) -> str:
    """The statement for call ``c``.  ``var`` and ``state`` write out a
    variable and a state key as source; each block function bound is
    appended to ``fns`` and called as ``fnN``, N its index there."""
    ins = [var(v) for v in c.ins]
    outs = [var(v) for v in c.outs]
    st = state(c.state_key) if c.state_key else None
    if c.name == DELAY_EMIT:
        return f"{outs[0]} = {st}[0]"
    if c.name == DELAY_PUSH:
        return f"{st} = {st}[1:] + ({ins[0]},)"
    fns.append(block_fn(c.kind, c.params))
    return call_src(f"fn{len(fns) - 1}", ins, outs, st)


class _BodyGen:
    """Emits a behavior body as the source of one generator function.

    Behavior variables become locals ``v0, v1, ...`` and block states
    locals ``s0, ...``; bound block functions and channel methods are
    parameters.
    """

    def __init__(self, ins, outs):
        self.vars: dict[str, str] = {}
        self.states: dict[str, str] = {}
        self.fns: list = []
        self.loops = 0
        self.lines: list[str] = []
        self.ins = {p: i for i, p in enumerate(ins)}
        self.outs = {p: i for i, p in enumerate(outs)}

    def var(self, name: str) -> str:
        return self.vars.setdefault(name, f"v{len(self.vars)}")

    def state(self, key: str) -> str:
        return self.states.setdefault(key, f"s{len(self.states)}")

    def body(self, stmts, ind: str) -> None:
        if not stmts:
            self.lines.append(f"{ind}pass")
        for s in stmts:
            self.stmt(s, ind)

    def stmt(self, s, ind: str) -> None:
        emit = self.lines.append
        if isinstance(s, Recv):
            i = self.ins[s.port]
            self.io(f"can_pop{i}(key{i})",
                    f"{self.var(s.var)} = pop{i}(key{i})", ind)
        elif isinstance(s, Send):
            i = self.outs[s.port]
            self.io(f"can_push{i}()", f"push{i}({self.var(s.var)})", ind)
        elif isinstance(s, Call):
            emit(ind + _call_src(s, self.var, self.state, self.fns))
        elif isinstance(s, Assign):
            src = repr(s.src) if isinstance(s.src, int) else self.var(s.src)
            emit(f"{ind}{self.var(s.var)} = {src}")
        elif isinstance(s, Loop):
            emit(f"{ind}for i{self.loops} in range({s.count!r}):")
            self.loops += 1
            self.body(s.body, ind + "    ")
        elif isinstance(s, If):
            emit(f"{ind}if {self.var(s.cond)}:")
            self.body(s.then, ind + "    ")
            emit(f"{ind}else:")
            self.body(s.orelse, ind + "    ")
        else:
            raise SimError(f"unknown statement {s!r}")

    def io(self, ready: str, op: str, ind: str) -> None:
        """Run ``op`` once ``ready`` holds; while it does not, yield
        whether the unit moved since it was last resumed."""
        self.lines += [f"{ind}while not {ready}:", f"{ind}    yield moved",
                       f"{ind}    moved = False", ind + op, f"{ind}moved = True"]


def behavior_coroutine(b: TaskBehavior, cons: dict, prod: dict):
    """The behavior as a generator calling the ``can_pop``/``pop`` of
    ``cons`` (port -> (channel, consumer key)) and the ``can_push``/``push``
    of ``prod`` (port -> channel).  ``next`` yields True at the end of a
    body iteration, or on a blocked port whether it moved since resumed."""
    gen = _BodyGen(b.in_ports, b.out_ports)
    gen.body(b.body, "        ")
    chans = {}
    for i, (ch, key) in enumerate(cons[p] for p in b.in_ports):
        chans |= {f"can_pop{i}": ch.can_pop, f"pop{i}": ch.pop, f"key{i}": key}
    for i, ch in enumerate(prod[p] for p in b.out_ports):
        chans |= {f"can_push{i}": ch.can_push, f"push{i}": ch.push}
    params = [f"fn{i}" for i in range(len(gen.fns))] + \
        list(gen.states.values()) + list(chans)
    src = "\n".join([f"def behavior({', '.join(params)}):",
                     "    while True:", "        moved = False"] + gen.lines +
                    ["        yield True", ""])
    behavior = exec_generated(src, {})["behavior"]
    return behavior(*gen.fns, *(b.states.get(k) for k in gen.states),
                    *chans.values())


class _StateGen:
    """Emits the transitions out of one FSM state as one function.

    Every name, address, count and state key from the model becomes a
    parameter ``k0, k1, ...`` (equal strings share one), each bound block
    function a parameter ``fn0, ...`` and each ``io`` method used a local
    of its own name, bound once; the text thus depends only on the shape
    of the state, and equal shapes share one compiled text.
    """

    # guard and action types -> the io method they call
    IO_OPS = {GCanRecv: "can_recv", GCanSend: "can_send",
              GStatusReady: "poll_status", ARecv: "recv", ASend: "send",
              ABusRead: "read_data", ABusWrite: "write_data"}

    def __init__(self, loops: dict):
        self.loops = loops
        self.values: list = []
        self.names: dict[str, str] = {}
        self.fns: list = []
        self.ops: dict[str, None] = {}  # io methods used, in order
        self.lines: list[str] = []

    def key(self, value) -> str:
        if isinstance(value, str) and value in self.names:
            return self.names[value]
        k = f"k{len(self.values)}"
        self.values.append(value)
        if isinstance(value, str):
            self.names[value] = k
        return k

    def var(self, name: str) -> str:
        return f"env[{self.key(name)}]"

    def loop(self, loop_id: str) -> str:
        self.loops.setdefault(loop_id, 0)
        return f"loops[{self.key(loop_id)}]"

    def op(self, x) -> str:
        method = self.IO_OPS[type(x)]
        self.ops[method] = None
        return method

    def guard(self, g) -> str:
        if isinstance(g, (GCanRecv, GCanSend)):
            return f"{self.op(g)}({self.key(g.port)})"
        if isinstance(g, GStatusReady):
            return (f"{self.op(g)}({self.key(g.port)}, {self.key(g.addr)})"
                    f" & {self.key(g.bit)}")
        if isinstance(g, GLoopNotDone):
            return f"{self.loop(g.loop_id)} > 0"
        if isinstance(g, GLoopDone):
            return f"{self.loop(g.loop_id)} <= 0"
        raise SimError(f"unknown guard {g!r}")

    def actions(self, actions, ind: str) -> None:
        if not actions:
            self.lines.append(f"{ind}pass")
        for a in actions:
            if isinstance(a, AIf):
                self.lines.append(f"{ind}if {self.var(a.cond)} != 0:")
                self.actions(a.then, ind + "    ")
                self.lines.append(f"{ind}else:")
                self.actions(a.orelse, ind + "    ")
            else:
                self.lines.append(ind + self.action(a))

    def action(self, a) -> str:
        if isinstance(a, ARecv):
            return f"{self.var(a.var)} = {self.op(a)}({self.key(a.port)})"
        if isinstance(a, ASend):
            return f"{self.op(a)}({self.key(a.port)}, {self.var(a.var)})"
        if isinstance(a, ABusRead):
            return (f"{self.var(a.var)} = {self.op(a)}({self.key(a.port)}, "
                    f"{self.key(a.addr)}, {self.key(a.ctrl)})")
        if isinstance(a, ABusWrite):
            return (f"{self.op(a)}({self.key(a.port)}, {self.key(a.addr)}, "
                    f"{self.var(a.var)}, {self.key(a.ctrl)})")
        if isinstance(a, ACall):
            return _call_src(a.call, self.var,
                             lambda k: f"states[{self.key(k)}]", self.fns)
        if isinstance(a, AAssign):
            src = self.key(a.src) if isinstance(a.src, int) \
                else self.var(a.src)
            return f"{self.var(a.var)} = {src}"
        if isinstance(a, ALoopInit):
            return f"{self.loop(a.loop_id)} = {self.key(a.count)}"
        if isinstance(a, ALoopStep):
            return f"{self.loop(a.loop_id)} -= 1"
        raise SimError(f"unknown action {a!r}")

    def build(self, transitions, io, env: dict, states: dict):
        """Bind the function running the first transition whose guards
        hold and returning its next state, or None if none holds."""
        for t in transitions:
            guards = [self.guard(g) for g in t.guards
                      if not isinstance(g, GTrue)]
            ind = "        "
            if guards:
                self.lines.append(f"{ind}if {' and '.join(guards)}:")
                ind += "    "
            self.actions(t.actions, ind)
            self.lines.append(f"{ind}return {self.key(t.next)}")
        params = ["io", "env", "states", "loops"] + \
            [f"fn{i}" for i in range(len(self.fns))] + \
            [f"k{i}" for i in range(len(self.values))]
        src = "\n".join(
            [f"def bind({', '.join(params)}):"] +
            [f"    {method} = io.{method}" for method in self.ops] +
            ["    def state():"] + self.lines +
            ["        return None", "    return state", ""])
        return exec_generated(src, {})["bind"](
            io, env, states, self.loops, *self.fns, *self.values)


class FsmRunner:
    """One task FSM plus its mutable execution state.

    io binds the task's ports: can_recv/recv/can_send/send at the macro
    level, plus poll_status/read_data/write_data bus operations (each
    charging bus cycles through io) at the micro level.  ``run`` maps each
    state to its generated function; a transition fires when its guards
    hold, tested in order up to the first that fails, so every failed
    status poll is still a bus transaction.
    """

    def __init__(self, fsm: TaskFsm, io):
        self.fsm = fsm
        self.state = fsm.initial
        env: dict = {}
        states = dict(fsm.init_states)
        loops: dict[str, int] = {}  # loop id -> iterations left
        out: dict[int, list] = {s: [] for s in fsm.states}
        for t in fsm.transitions:
            out.setdefault(t.state, []).append(t)
        self.run = {s: _StateGen(loops).build(ts, io, env, states)
                    for s, ts in out.items()}

    def step(self) -> bool:
        """Attempt one transition; True if one fired."""
        nxt = self.run[self.state]()
        if nxt is None:
            return False
        self.state = nxt
        return True
