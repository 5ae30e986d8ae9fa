"""Executors for unit behaviors and task FSMs.

The macro interpreter runs a behavior body as a coroutine that yields on
blocking channel operations; the micro interpreter steps a lowered FSM
one transition at a time under the round-robin scheduler, charging bus
cycles for every transaction including failed status polls.

Both bind their program once, when they are built: every call becomes
the step function ``block_fn`` binds for its block, every assignment,
guard and action a closure, and every FSM state the list of its own
transitions, so a step decodes no statement, guard or action.
"""

from __future__ import annotations

from functools import partial

from ..gma.behavior import DELAY_EMIT, DELAY_PUSH, Assign, Call, If, Loop, \
    Recv, Send, TaskBehavior
from ..model.blocks import FunctionRegistry, block_fn, default_registry
from ..swsynth import AAssign, ABusRead, ABusWrite, ACall, AIf, ALoopInit, \
    ALoopStep, ARecv, ASend, GCanRecv, GCanSend, GLoopDone, GLoopNotDone, \
    GStatusReady, GTrue, TaskFsm


class SimError(Exception):
    pass


def _bind_call(c: Call, registry):
    """Bind a call statement to ``fn(env, states)``."""
    key, ins, outs = c.state_key, c.ins, c.outs
    if c.name == DELAY_EMIT:
        def emit(env, states):
            env[outs[0]] = states[key][0]
        return emit
    if c.name == DELAY_PUSH:
        def push(env, states):
            states[key] = states[key][1:] + (env[ins[0]],)
        return push
    fn = block_fn(c.kind, c.params, registry)

    def call(env, states):
        res, st = fn([env[v] for v in ins], states.get(key) if key else None)
        if key:
            states[key] = st
        for var, val in zip(outs, res):
            env[var] = val
    return call


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


# tags of a bound behavior statement
_RUN, _RECV, _SEND, _LOOP, _IF = range(5)


def _bind_body(stmts, registry) -> list[tuple]:
    out = []
    for s in stmts:
        if isinstance(s, Recv):
            out.append((_RECV, ("recv", s.port), s.var))
        elif isinstance(s, Send):
            out.append((_SEND, s.port, s.var))
        elif isinstance(s, Call):
            out.append((_RUN, _bind_call(s, registry)))
        elif isinstance(s, Assign):
            out.append((_RUN, _bind_assign(s.var, s.src)))
        elif isinstance(s, Loop):
            out.append((_LOOP, s.count, _bind_body(s.body, registry)))
        elif isinstance(s, If):
            out.append((_IF, s.cond, _bind_body(s.then, registry),
                        _bind_body(s.orelse, registry)))
        else:
            raise SimError(f"unknown statement {s!r}")
    return out


def behavior_coroutine(b: TaskBehavior, registry: FunctionRegistry | None = None):
    """Generator protocol: yields ("recv", port) and is resumed with the
    value; yields ("send", port, value) and is resumed once delivered;
    yields ("end",) after each body iteration."""
    body = _bind_body(b.body, registry or default_registry())
    env: dict = {}
    states = dict(b.states)

    def run(ops):
        for op in ops:
            tag = op[0]
            if tag == _RUN:
                op[1](env, states)
            elif tag == _RECV:
                env[op[2]] = yield op[1]
            elif tag == _SEND:
                yield ("send", op[1], env[op[2]])
            elif tag == _LOOP:
                for _ in range(op[1]):
                    yield from run(op[2])
            else:
                yield from run(op[2] if env[op[1]] != 0 else op[3])

    while True:
        yield from run(body)
        yield ("end",)


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
            return partial(_bind_call(a.call, self.registry), env, self.states)
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
