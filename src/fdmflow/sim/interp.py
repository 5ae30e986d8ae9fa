"""Executors for unit behaviors and task FSMs.

A macro unit runs its behavior body as a generator holding its ports'
queues, which yields only when it blocks or ends a body iteration and
calls a channel only on a blocked test or a send to several consumers;
the micro interpreter steps a lowered FSM one transition at a time under
the round-robin scheduler, charging bus cycles for every transaction
including failed status polls.

``behavior_coroutine`` emits each body once as the source of one
generator function, compiled through ``sweep.exec_generated`` (equal
texts are compiled once): behavior variables and block state cells
become locals, a loop a ``for``, a branch an ``if``/``else`` and a call
its block's template spliced inline.  Block parameters, user functions
and loop counts are parameters ``kN``, so the source holds only
integers, ``repr`` strings and names the generator makes up.

The FSM runner is generated the same way, one function per FSM state:
the function tests the state's transitions in order, each guard chain
one ``and`` expression, so a poll runs, and is charged, exactly when the
chain reaches it; the first transition whose guards hold runs its
actions as straight-line code and returns the next state, and None says
no transition fired.  Every name, address, count, block parameter and
state cell from the model is a parameter of the text, so FSM states of
the same shape share one compiled text.  Both executors, and the block
sweep, write a block through ``block_src``, the one definition of it.
"""

from __future__ import annotations

from ..gma.behavior import DELAY_EMIT, DELAY_PUSH, Assign, Call, If, Loop, \
    Recv, Send, TaskBehavior
from ..model.blocks import block_src
from ..swsynth import AAssign, ABusRead, ABusWrite, ACall, AIf, ALoopInit, \
    ALoopStep, ARecv, ASend, GCanRecv, GCanSend, GLoopDone, GLoopNotDone, \
    GStatusReady, GTrue, TaskFsm
from .sweep import exec_generated


class SimError(Exception):
    pass


def _call_src(c: Call, var, cells, name) -> list[str]:
    """The lines of call ``c``: ``var`` writes out a variable, ``cells``
    the state cells of a state key and ``name`` binds a parameter.  A delay
    emit (no input) is the first line of its template, a push the rest."""
    lines = block_src(c.kind, c.params, [var(v) for v in c.ins] or ["0"],
                      [var(v) for v in c.outs] or ["_"],
                      cells(c.state_key) if c.state_key else [], name)
    return {DELAY_EMIT: lines[:1], DELAY_PUSH: lines[1:]}.get(c.name, lines)


class _BodyGen:
    """Emits a behavior body as the source of one generator function.

    Behavior variables become locals ``v0, v1, ...``; block parameters,
    loop counts, block state cells and ``chans`` are parameters; ``chans``
    has a queue ``fN`` only for an output whose channel has one consumer.
    """

    def __init__(self, b: TaskBehavior, chans: dict):
        self.chans = chans
        self.vars: dict[str, str] = {}
        self.args: dict[str, object] = {}  # parameter -> value
        # state key -> its cells, parameters bound to their initial values
        self.cells = {key: [self.arg(v) for v in init]
                      for key, init in b.states.items()}
        self.loops = 0
        self.lines: list[str] = []
        self.ins = {p: i for i, p in enumerate(b.in_ports)}
        self.outs = {p: i for i, p in enumerate(b.out_ports)}

    def var(self, name: str) -> str:
        return self.vars.setdefault(name, f"v{len(self.vars)}")

    def arg(self, value) -> str:
        name = f"k{len(self.args)}"
        self.args[name] = value
        return name

    def body(self, stmts, ind: str) -> None:
        if not stmts:
            self.lines.append(f"{ind}pass")
        for s in stmts:
            self.stmt(s, ind)

    def stmt(self, s, ind: str) -> None:
        emit = self.lines.append
        if isinstance(s, Recv):
            i = self.ins[s.port]
            self.io(f"q{i} or can_pop{i}(key{i})", ind,
                    f"{self.var(s.var)} = q{i}.popleft()", f"i{i}", "popped")
        elif isinstance(s, Send):
            i, v = self.outs[s.port], self.var(s.var)
            if f"f{i}" in self.chans:
                self.io(f"len(f{i}) < d{i} or can_push{i}()", ind,
                        f"f{i}.append({v})", f"o{i}", "pushed")
            else:
                self.io(f"can_push{i}()", ind, f"push{i}({v})")
        elif isinstance(s, Call):
            self.lines += [ind + ln for ln in _call_src(
                s, self.var, self.cells.__getitem__, self.arg)]
        elif isinstance(s, Assign):
            src = repr(s.src) if isinstance(s.src, int) else self.var(s.src)
            emit(f"{ind}{self.var(s.var)} = {src}")
        elif isinstance(s, Loop):
            emit(f"{ind}for i{self.loops} in range({self.arg(s.count)}):")
            self.loops += 1
            self.body(s.body, ind + "    ")
        elif isinstance(s, If):
            emit(f"{ind}if {self.var(s.cond)}:")
            self.body(s.then, ind + "    ")
            emit(f"{ind}else:")
            self.body(s.orelse, ind + "    ")
        else:
            raise SimError(f"unknown statement {s!r}")

    def io(self, ready: str, ind: str, op: str, ch="", count="") -> None:
        """Run ``op`` once ``ready`` holds; given ``ch``, add 1 to ``count``
        of channel ``c<ch>`` and wake the units on its wake list ``w<ch>``.
        While ``ready`` fails, yield whether the unit moved since resumed."""
        tail = [f"c{ch}.{count} += 1", f"if w{ch}:",
                f"    for u in w{ch}: u.awake = True"] if ch else []
        self.lines += [f"{ind}while not ({ready}):", f"{ind}    yield moved",
                       f"{ind}    moved = False"] + \
            [ind + ln for ln in [op, *tail, "moved = True"]]


def behavior_coroutine(b: TaskBehavior, cons: dict, prod: dict):
    """The behavior as a generator bound to the channels of ``cons`` (port
    -> (channel, consumer key)) and ``prod`` (port -> channel).  ``next``
    yields True at the end of a body iteration, or on a blocked port
    whether it moved since resumed."""
    chans = {}
    for i, (ch, key) in enumerate(cons[p] for p in b.in_ports):
        chans |= {f"q{i}": ch.queues[key], f"can_pop{i}": ch.can_pop,
                  f"key{i}": key, f"ci{i}": ch, f"wi{i}": ch.wake}
    for i, ch in enumerate(prod[p] for p in b.out_ports):
        chans |= {f"can_push{i}": ch.can_push} | ({
            f"f{i}": ch.fifos[0], f"d{i}": ch.depth, f"co{i}": ch,
            f"wo{i}": ch.wake} if len(ch.fifos) == 1 else
            {f"push{i}": ch.push})
    gen = _BodyGen(b, chans)
    gen.body(b.body, "        ")
    src = "\n".join([f"def behavior({', '.join([*gen.args, *chans])}):",
                     "    while True:", "        moved = False"] + gen.lines +
                    ["        yield True", ""])
    behavior = exec_generated(src, {})["behavior"]
    return behavior(*gen.args.values(), *chans.values())


class _StateGen:
    """Emits the transitions out of one FSM state as one function.

    Every name, address, count, block parameter and index of a block
    state cell in ``states`` from the model becomes a parameter ``k0, k1,
    ...`` (equal strings share one), and each ``io`` method used a local
    of its own name, bound once; the text thus depends only on the shape
    of the state, and equal shapes share one compiled text.
    """

    # guard and action types -> the io method they call
    IO_OPS = {GCanRecv: "can_recv", GCanSend: "can_send",
              GStatusReady: "poll_status", ARecv: "recv", ASend: "send",
              ABusRead: "read_data", ABusWrite: "write_data"}

    def __init__(self, loops: dict, cells: dict):
        self.loops = loops
        self.cells = cells  # state key -> indices of its cells in states
        self.values: list = []
        self.names: dict[str, str] = {}
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
            elif isinstance(a, ACall):
                self.lines += [ind + ln for ln in _call_src(
                    a.call, self.var, self.state, self.key)]
            else:
                self.lines.append(ind + self.action(a))

    def state(self, key: str) -> list:
        return [f"states[{self.key(i)}]" for i in self.cells[key]]

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
        if isinstance(a, AAssign):
            src = self.key(a.src) if isinstance(a.src, int) \
                else self.var(a.src)
            return f"{self.var(a.var)} = {src}"
        if isinstance(a, ALoopInit):
            return f"{self.loop(a.loop_id)} = {self.key(a.count)}"
        if isinstance(a, ALoopStep):
            return f"{self.loop(a.loop_id)} -= 1"
        raise SimError(f"unknown action {a!r}")

    def build(self, transitions, io, env: dict, states: list):
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
            [f"k{i}" for i in range(len(self.values))]
        src = "\n".join(
            [f"def bind({', '.join(params)}):"] +
            [f"    {method} = io.{method}" for method in self.ops] +
            ["    def state():"] + self.lines +
            ["        return None", "    return state", ""])
        return exec_generated(src, {})["bind"](
            io, env, states, self.loops, *self.values)


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
        cells, states = {}, []  # state key -> indices of its cells in states
        for key, init in fsm.init_states.items():
            cells[key] = range(len(states), len(states) + len(init))
            states += init
        loops: dict[str, int] = {}  # loop id -> iterations left
        out: dict[int, list] = {s: [] for s in fsm.states}
        for t in fsm.transitions:
            out.setdefault(t.state, []).append(t)
        self.run = {s: _StateGen(loops, cells).build(ts, io, env, states)
                    for s, ts in out.items()}

    def step(self) -> bool:
        """Attempt one transition; True if one fired."""
        nxt = self.run[self.state]()
        if nxt is None:
            return False
        self.state = nxt
        return True
