"""Executors for unit behaviors and task FSMs.

The macro interpreter runs a behavior body as a coroutine that yields on
blocking channel operations; the micro interpreter steps a lowered FSM
one transition at a time under the round-robin scheduler, charging bus
cycles for every transaction including failed status polls.
"""

from __future__ import annotations

from ..gma.behavior import DELAY_EMIT, DELAY_PUSH, Assign, Call, If, Loop, \
    Recv, Send, TaskBehavior
from ..model.blocks import FunctionRegistry, default_registry, step_block
from ..swsynth import AAssign, ABusRead, ABusWrite, ACall, AIf, ALoopInit, \
    ALoopStep, ARecv, ASend, GCanRecv, GCanSend, GLoopDone, GLoopNotDone, \
    GStatusReady, GTrue, TaskFsm


class SimError(Exception):
    pass


def _run_call(c: Call, env: dict, states: dict, registry) -> None:
    if c.name == DELAY_EMIT:
        env[c.outs[0]] = states[c.state_key][0]
        return
    if c.name == DELAY_PUSH:
        st = states[c.state_key]
        states[c.state_key] = st[1:] + (env[c.ins[0]],)
        return
    ins = tuple(env[v] for v in c.ins)
    st = states.get(c.state_key) if c.state_key else None
    outs, st2 = step_block(c.kind, c.params, ins, st, registry)
    if c.state_key:
        states[c.state_key] = st2
    for var, val in zip(c.outs, outs):
        env[var] = val


def _value(env: dict, src) -> int:
    return src if isinstance(src, int) else env[src]


def behavior_coroutine(b: TaskBehavior, registry: FunctionRegistry | None = None):
    """Generator protocol: yields ("recv", port) and is resumed with the
    value; yields ("send", port, value) and is resumed once delivered;
    yields ("end",) after each body iteration."""
    registry = registry or default_registry()
    env: dict = {}
    states = dict(b.states)

    def run(stmts):
        for s in stmts:
            if isinstance(s, Recv):
                env[s.var] = yield ("recv", s.port)
            elif isinstance(s, Send):
                yield ("send", s.port, env[s.var])
            elif isinstance(s, Call):
                _run_call(s, env, states, registry)
            elif isinstance(s, Assign):
                env[s.var] = _value(env, s.src)
            elif isinstance(s, Loop):
                for _ in range(s.count):
                    yield from run(s.body)
            elif isinstance(s, If):
                yield from run(s.then if env[s.cond] != 0 else s.orelse)
            else:
                raise SimError(f"unknown statement {s!r}")

    while True:
        yield from run(b.body)
        yield ("end",)


class FsmRunner:
    """One task FSM plus its mutable execution state.

    io binds the task's ports: can_recv/recv/can_send/send at the macro
    level, plus status/read_data/write_data bus operations (each charging
    bus cycles through io) at the micro level.
    """

    def __init__(self, fsm: TaskFsm, io,
                 registry: FunctionRegistry | None = None):
        self.fsm = fsm
        self.io = io
        self.registry = registry or default_registry()
        self.state = fsm.initial
        self.env: dict = {}
        self.states = dict(fsm.init_states)
        self.loops: dict[str, tuple[int, int]] = {}  # id -> (i, n)

    def _guard(self, g) -> bool:
        if isinstance(g, GTrue):
            return True
        if isinstance(g, GCanRecv):
            return self.io.can_recv(g.port)
        if isinstance(g, GCanSend):
            return self.io.can_send(g.port)
        if isinstance(g, GLoopNotDone):
            i, n = self.loops[g.loop_id]
            return i < n
        if isinstance(g, GLoopDone):
            i, n = self.loops[g.loop_id]
            return i >= n
        if isinstance(g, GStatusReady):
            return self.io.poll_status(g.port, g.addr) & g.bit != 0
        raise SimError(f"unknown guard {g!r}")

    def _action(self, a) -> None:
        if isinstance(a, ARecv):
            self.env[a.var] = self.io.recv(a.port)
        elif isinstance(a, ASend):
            self.io.send(a.port, self.env[a.var])
        elif isinstance(a, ABusRead):
            self.env[a.var] = self.io.read_data(a.port, a.addr, a.ctrl)
        elif isinstance(a, ABusWrite):
            self.io.write_data(a.port, a.addr, self.env[a.var], a.ctrl)
        elif isinstance(a, ACall):
            _run_call(a.call, self.env, self.states, self.registry)
        elif isinstance(a, AAssign):
            self.env[a.var] = _value(self.env, a.src)
        elif isinstance(a, ALoopInit):
            self.loops[a.loop_id] = (0, a.count)
        elif isinstance(a, ALoopStep):
            i, n = self.loops[a.loop_id]
            self.loops[a.loop_id] = (i + 1, n)
        elif isinstance(a, AIf):
            for x in (a.then if self.env[a.cond] != 0 else a.orelse):
                self._action(x)
        else:
            raise SimError(f"unknown action {a!r}")

    def step(self) -> bool:
        """Attempt one transition; True if one fired."""
        for t in self.fsm.transitions:
            if t.state != self.state:
                continue
            if all(self._guard(g) for g in t.guards):
                for a in t.actions:
                    self._action(a)
                self.state = t.next
                return True
        return False
