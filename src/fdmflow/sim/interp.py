"""Executors for unit behaviors and task FSMs.

A macro unit runs its behavior body as a coroutine that yields on
blocking channel operations; the micro interpreter steps a lowered FSM
one transition at a time under the round-robin scheduler, charging bus
cycles for every transaction including failed status polls.

``behavior_coroutine`` emits each body once as the source of one
generator function, compiled through ``sweep.exec_generated`` (equal
texts are compiled once): behavior variables and block states become
locals, a loop a ``for`` and a branch an ``if``/``else``, and every call
one call of the step function ``block_fn`` binds for its block, passed
in as an argument.  ``block_fn`` stays the one definition of a block; no
statement or block kind has a code template, and the source holds only
integers, ``repr`` strings and names the generator makes up.  The FSM
runner binds its program once, when it is built: every assignment, guard
and action becomes a closure, every call a generated function, and every
FSM state the list of its own transitions, so a step decodes no guard or
action.  Both executors, and the block sweep, write a block call through
``sweep.call_src``, the one call convention.
"""

from __future__ import annotations

from functools import partial

from ..gma.behavior import DELAY_EMIT, DELAY_PUSH, Assign, Call, If, Loop, \
    Recv, Send, TaskBehavior
from ..model.blocks import FunctionRegistry, block_fn, default_registry
from ..swsynth import AAssign, ABusRead, ABusWrite, ACall, AIf, ALoopInit, \
    ALoopStep, ARecv, ASend, GCanRecv, GCanSend, GLoopDone, GLoopNotDone, \
    GStatusReady, GTrue, TaskFsm
from .sweep import call_src, exec_generated


class SimError(Exception):
    pass


def _call_src(c: Call, var, state, fns: list, registry) -> str:
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
    fns.append(block_fn(c.kind, c.params, registry))
    return call_src(f"fn{len(fns) - 1}", ins, outs, st)


def _bind_call(c: Call, env: dict, states: dict, registry):
    """Bind a call statement to a function of no arguments on ``env`` and
    ``states``.  Variable names and state keys are passed in as ``k0, ...``,
    so the generated text depends only on the shape of the call."""
    keys: dict[str, str] = {}

    def key(name: str) -> str:
        return keys.setdefault(name, f"k{len(keys)}")

    fns: list = []
    line = _call_src(c, lambda v: f"env[{key(v)}]",
                     lambda k: f"states[{key(k)}]", fns, registry)
    params = ["env", "states"] + [f"fn{i}" for i in range(len(fns))] + \
        list(keys.values())
    src = "\n".join([f"def bind({', '.join(params)}):",
                     "    def call():",
                     f"        {line}",
                     "    return call", ""])
    return exec_generated(src, {})["bind"](env, states, *fns, *keys)


def _bind_assign(var: str, src):
    """Bind ``var = src`` (a variable name or an integer literal)."""
    if isinstance(src, int):
        def assign(env, states):
            env[var] = src
    else:
        def assign(env, states):
            env[var] = env[src]
    return assign


def _store(env: dict, var: str, get):
    """Bind ``var = get()``."""
    def store():
        env[var] = get()
    return store


class _BodyGen:
    """Emits a behavior body as the source of one generator function.

    Behavior variables become locals ``v0, v1, ...``, block states locals
    ``s0, ...`` and bound block functions parameters ``fn0, ...``; ports
    appear only as ``repr`` strings.
    """

    def __init__(self, registry):
        self.registry = registry
        self.vars: dict[str, str] = {}
        self.states: dict[str, str] = {}
        self.fns: list = []
        self.loops = 0
        self.lines: list[str] = []

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
            emit(f"{ind}{self.var(s.var)} = yield ('recv', {s.port!r})")
        elif isinstance(s, Send):
            emit(f"{ind}yield ('send', {s.port!r}, {self.var(s.var)})")
        elif isinstance(s, Call):
            emit(ind + _call_src(s, self.var, self.state, self.fns,
                                 self.registry))
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


def behavior_coroutine(b: TaskBehavior, registry: FunctionRegistry | None = None):
    """Generator protocol: yields ("recv", port) and is resumed with the
    value; yields ("send", port, value) and is resumed once delivered;
    yields ("end",) after each body iteration."""
    gen = _BodyGen(registry or default_registry())
    gen.body(b.body, "        ")
    params = [f"fn{i}" for i in range(len(gen.fns))] + list(gen.states.values())
    src = "\n".join([f"def behavior({', '.join(params)}):",
                     "    while True:"] + gen.lines +
                    ["        yield ('end',)", ""])
    behavior = exec_generated(src, {})["behavior"]
    return behavior(*gen.fns, *(b.states.get(k) for k in gen.states))


class FsmRunner:
    """One task FSM plus its mutable execution state.

    io binds the task's ports: can_recv/recv/can_send/send at the macro
    level, plus status/read_data/write_data bus operations (each charging
    bus cycles through io) at the micro level.  ``table`` maps each state
    to its transitions in order, each ``(bound guards, bound actions,
    next state)``; a transition fires when its guards hold, tested in
    order up to the first that fails, so every failed status poll is
    still a bus transaction.
    """

    def __init__(self, fsm: TaskFsm, io,
                 registry: FunctionRegistry | None = None):
        self.fsm = fsm
        self.io = io
        self.registry = registry or default_registry()
        self.state = fsm.initial
        self.env: dict = {}
        self.states = dict(fsm.init_states)
        self.loops: dict[str, list[int]] = {}  # id -> [iterations left]
        self.table: dict[int, list[tuple]] = {s: [] for s in fsm.states}
        for t in fsm.transitions:
            self.table.setdefault(t.state, []).append((
                tuple(self._bind_guard(g) for g in t.guards
                      if not isinstance(g, GTrue)),
                tuple(self._bind_action(a) for a in t.actions), t.next))

    def _left(self, loop_id: str) -> list[int]:
        """The loop's cell holding its iterations left."""
        return self.loops.setdefault(loop_id, [0])

    def _bind_guard(self, g):
        io = self.io
        if isinstance(g, GCanRecv):
            return partial(io.can_recv, g.port)
        if isinstance(g, GCanSend):
            return partial(io.can_send, g.port)
        if isinstance(g, GLoopNotDone):
            left = self._left(g.loop_id)
            return lambda: left[0] > 0
        if isinstance(g, GLoopDone):
            left = self._left(g.loop_id)
            return lambda: left[0] <= 0
        if isinstance(g, GStatusReady):
            poll, bit = partial(io.poll_status, g.port, g.addr), g.bit
            return lambda: poll() & bit != 0
        raise SimError(f"unknown guard {g!r}")

    def _bind_action(self, a):
        io, env = self.io, self.env
        if isinstance(a, ARecv):
            return _store(env, a.var, partial(io.recv, a.port))
        if isinstance(a, ASend):
            send, var = partial(io.send, a.port), a.var
            return lambda: send(env[var])
        if isinstance(a, ABusRead):
            return _store(env, a.var,
                          partial(io.read_data, a.port, a.addr, a.ctrl))
        if isinstance(a, ABusWrite):
            write, var = partial(io.write_data, a.port, a.addr, ctrl=a.ctrl), a.var
            return lambda: write(env[var])
        if isinstance(a, ACall):
            return _bind_call(a.call, env, self.states, self.registry)
        if isinstance(a, AAssign):
            return partial(_bind_assign(a.var, a.src), env, self.states)
        if isinstance(a, ALoopInit):
            return partial(self._left(a.loop_id).__setitem__, 0, a.count)
        if isinstance(a, ALoopStep):
            left = self._left(a.loop_id)

            def loop_step():
                left[0] -= 1
            return loop_step
        if isinstance(a, AIf):
            cond = a.cond
            then = tuple(self._bind_action(x) for x in a.then)
            orelse = tuple(self._bind_action(x) for x in a.orelse)

            def branch():
                for x in (then if env[cond] != 0 else orelse):
                    x()
            return branch
        raise SimError(f"unknown action {a!r}")

    def step(self) -> bool:
        """Attempt one transition; True if one fired."""
        for guards, actions, nxt in self.table[self.state]:
            for g in guards:
                if not g():
                    break
            else:
                for a in actions:
                    a()
                self.state = nxt
                return True
        return False
