"""Executors for unit behaviors, task FSMs and hardware node steps.

Every unit touches its ports' queues inline.  A macro unit runs its
behavior body as a generator, which yields only when it blocks or ends a
body iteration; a task FSM steps one transition at a time under the
round-robin scheduler, and counts every bus transaction of a lowered
FSM, failed status polls included; a hardware node's
``hw_step`` moves one sample per port around its cycle model.  All test
and move a port alike (``_port_names``, ``_ready_src``, ``_move_src``):
an input tests ``qN or can_popN(keyN)`` and pops its queue, an output
to one consumer tests ``len(fN) < dN or can_pushN()`` and appends to
its queue, and each counts the transfer and wakes the channel's wake
list; a channel method is called only when a test fails or for a push
to several consumers.

Every executor is generated code built by ``sweep.binder``: a closure
over its port bindings and over the values of the model, each named
``kN`` by ``sweep.Names``, so equal shapes share one compiled text.
``behavior_coroutine`` emits each body once as a generator function:
behavior variables and block state cells become locals, a loop a
``for`` and a call its block's template spliced inline.

A task FSM is one generated closure, bound once: its variables, block
state cells and loop counters are cells of the closure, and each state is
a function in it that tests the state's transitions in order, each guard
chain nested ``if``s with a status poll charged just before its test, so
a poll runs, and is charged, exactly when the chain reaches it; the first
transition whose guards hold runs its actions as straight-line code and
returns the next state's function (threaded code), and None says no
transition fired.  An FSM holds the behavior's own statements, so both
executors emit a call and an assignment through one emitter (``_Gen``);
the FSM adds only its readiness guards and loop counter ops, and
lowering only gives a channel op an address, which makes it a bus
transaction that ``_FsmGen`` counts.
Both executors, and the block sweep, write a block through
``block_src``, the one definition of it.
"""

from __future__ import annotations

from ..gma.behavior import DELAY_EMIT, DELAY_PUSH, Assign, Call, Loop, \
    Recv, Send, TaskBehavior
from ..model.blocks import block_src
from ..swsynth import ALoopInit, ALoopStep, GLoopDone, GLoopNotDone, \
    GReady, TaskFsm
from .sweep import Names, binder

BUS_LATENCY = 2  # cycles per micro-level bus transaction


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


def _port_names(j: int, ch, key=None) -> dict:
    """The names generated code binds for port ``j`` on channel ``ch``: an
    input (given its consumer ``key``) its queue ``qN``; an output, if
    ``ch`` has one consumer, that queue ``fN`` and the depth ``dN``, else
    ``pushN``; a port moved inline also its channel ``cN`` and wake list
    ``wN``."""
    if key is not None:
        return {f"q{j}": ch.queues[key], f"can_pop{j}": ch.can_pop,
                f"key{j}": key, f"c{j}": ch, f"w{j}": ch.wake}
    return {f"can_push{j}": ch.can_push} | ({
        f"f{j}": ch.fifos[0], f"d{j}": ch.depth, f"c{j}": ch,
        f"w{j}": ch.wake} if len(ch.fifos) == 1 else {f"push{j}": ch.push})


def _ready_src(j: int, names: dict) -> str:
    """The test that port ``j`` can move a sample without blocking."""
    if f"q{j}" in names:
        return f"q{j} or can_pop{j}(key{j})"
    if f"f{j}" in names:
        return f"len(f{j}) < d{j} or can_push{j}()"
    return f"can_push{j}()"


def _move_src(j: int, names: dict, v: str) -> list[str]:
    """The lines popping port ``j`` into ``v``, or pushing ``v`` to it,
    once its ``_ready_src`` test held."""
    if f"q{j}" in names:
        op, count = f"{v} = q{j}.popleft()", "popped"
    elif f"f{j}" in names:
        op, count = f"f{j}.append({v})", "pushed"
    else:
        return [f"push{j}({v})"]
    return [op, f"c{j}.{count} += 1", f"if w{j}:",
            f"    for u in w{j}: u.awake = True"]


class _Gen:
    """Emits the statements a behavior body and an FSM transition share
    into ``lines``: a call as its block's template and an assignment.  A
    subclass names variables (``var``) and the state cells of a state key
    (``cells``), and emits every other statement."""

    def body(self, stmts, ind: str) -> None:
        if not stmts:
            self.lines.append(f"{ind}pass")
        for s in stmts:
            self.stmt(s, ind)

    def stmt(self, s, ind: str) -> None:
        if isinstance(s, Call):
            self.lines += [ind + ln for ln in _call_src(
                s, self.var, self.cells, self.names)]
        elif isinstance(s, Assign):
            src = repr(s.src) if isinstance(s.src, int) else self.var(s.src)
            self.lines.append(f"{ind}{self.var(s.var)} = {src}")
        else:
            raise SimError(f"unknown statement {s!r}")


class _BodyGen(_Gen):
    """Emits a behavior body as the source of one generator function.

    Behavior variables become locals ``v0, v1, ...``; ``names`` binds the
    ``_port_names`` of the inputs and then the outputs, and names block
    state cells, block parameters and loop counts.  All of them are
    arguments of the generator, so a state cell is a local that starts at
    its initial value.
    """

    def __init__(self, b: TaskBehavior, names: Names):
        self.names = names
        self.vars: dict[str, str] = {}
        # state key -> its cells, names bound to their initial values
        self.state = {key: [names(v) for v in init]
                      for key, init in b.states.items()}
        self.loops = 0
        self.lines = ["while True:", "    moved = False"]
        self.ins = {p: j for j, p in enumerate(b.in_ports)}
        self.outs = {p: j for j, p in enumerate(b.out_ports, len(self.ins))}

    def var(self, name: str) -> str:
        return self.vars.setdefault(name, f"v{len(self.vars)}")

    def cells(self, key: str) -> list[str]:
        return self.state[key]

    def stmt(self, s, ind: str) -> None:
        if isinstance(s, (Recv, Send)):
            self.io(self.ins[s.port] if isinstance(s, Recv)
                    else self.outs[s.port], self.var(s.var), ind)
        elif isinstance(s, Loop):
            self.lines.append(
                f"{ind}for i{self.loops} in range({self.names(s.count)}):")
            self.loops += 1
            self.body(s.body, ind + "    ")
        else:
            super().stmt(s, ind)

    def io(self, j: int, v: str, ind: str) -> None:
        """Move port ``j`` to or from ``v`` once it is ready; while it is
        not, yield whether the unit moved since resumed."""
        self.lines += [f"{ind}while not ({_ready_src(j, self.names)}):",
                       f"{ind}    yield moved", f"{ind}    moved = False"] + \
            [ind + ln for ln in [*_move_src(j, self.names, v), "moved = True"]]


def behavior_coroutine(b: TaskBehavior, cons: dict, prod: dict):
    """The behavior as a generator bound to the channels of ``cons`` (port
    -> (channel, consumer key)) and ``prod`` (port -> channel).  ``next``
    yields True at the end of a body iteration, or on a blocked port
    whether it moved since resumed."""
    names = Names()
    for j, p in enumerate(b.in_ports):
        names |= _port_names(j, *cons[p])
    for j, p in enumerate(b.out_ports, len(b.in_ports)):
        names |= _port_names(j, prod[p])
    gen = _BodyGen(b, names)
    gen.body(b.body, "    ")
    # the names are arguments of the generator, so its body reads locals
    behavior = binder("behavior", (), gen.lines + ["    yield True"],
                      args=", ".join(names))()
    return behavior(*names.values())


def hw_step(unit, cons: dict, prod: dict):
    """The step of hardware node ``unit``, generated once: it consumes
    one sample per input of ``cons``, returning False if an input is empty
    or an output of ``prod`` full, calls ``unit.advance`` on them in the
    order of ``unit.ins`` and pushes the outputs of a real sample leaving
    ``unit.in_flight`` by index (``unit.out_index``).  Each output has a
    channel of its own, so the room it tested is still there when it
    pushes."""
    names = Names(unit=unit, advance=unit.advance, in_flight=unit.in_flight)
    for j, (ch, key) in enumerate(cons.values()):
        names |= _port_names(j, ch, key)
    for j, ch in enumerate(prod.values(), len(cons)):
        names |= _port_names(j, ch)
    n, xs = len(cons), {p: f"x{j}" for j, p in enumerate(cons)}
    lines = [f"if not ({_ready_src(j, names)}): return False"
             for j in range(n + len(prod))]
    for j in range(n):
        lines += _move_src(j, names, f"x{j}")
    lines += ["unit.consumed += 1", "outs = advance(" + ", ".join(
        xs.get(p, "0") for p in unit.ins) + ")",
              "in_flight.append(True)", "if in_flight.popleft():"]
    lines += ["    " + ln for j, i in enumerate(unit.out_index, n)
              for ln in _move_src(j, names, f"outs[{i}]")] or ["    pass"]
    return names.bind("step", lines + ["return True"])


class _FsmGen(_Gen):
    """Emits a task FSM as one function defining a function per state.

    Its variables (declared, unassigned until written), block state cells
    (names bound to their initial values) and loop counters are cells of
    the closure.  Every name, count and value from the model is named
    ``kN``, and each port the FSM uses binds its ``_port_names`` in the
    order of first use, so the text depends only on the shape of the FSM.
    A channel op with an address is a bus transaction: it first adds 1 to
    ``chg.bus_transactions``.  A send appends inline, since it follows its
    own guard in the same transition.
    """

    def __init__(self, cons: dict, prod: dict, charge):
        self.names = Names(chg=charge)
        self.cons, self.prod = cons, prod
        self.ports: dict[tuple, int] = {}  # (port, is output) -> index
        self.vars: dict[str, str] = {}  # variable -> its cell
        self.loops: dict[str, str] = {}  # loop id -> its cell
        self.state: dict[str, list] = {}  # state key -> its cells
        self.lines: list[str] = []
        self.used: set[str] = set()  # the cells the current state names

    def cell(self, name: str) -> str:
        self.used.add(name)
        return name

    def var(self, name: str) -> str:
        return self.cell(self.vars.setdefault(name, f"v{len(self.vars)}"))

    def cells(self, key: str) -> list[str]:
        return [self.cell(c) for c in self.state[key]]

    def loop(self, loop_id: str) -> str:
        return self.cell(self.loops.setdefault(loop_id,
                                               f"lp{len(self.loops)}"))

    def port(self, port: str, out: bool) -> int:
        if (port, out) not in self.ports:
            j = self.ports[(port, out)] = len(self.ports)
            self.names |= _port_names(j, self.prod[port]) if out \
                else _port_names(j, *self.cons[port])
        return self.ports[(port, out)]

    def charge(self, op, ind: str) -> None:
        if op.addr is not None:
            self.lines.append(f"{ind}chg.bus_transactions += 1")

    def guard(self, g, ind: str) -> str:
        """The test of ``g``, after the line charging a status poll."""
        if isinstance(g, GReady):
            self.charge(g, ind)
            return _ready_src(self.port(g.port, g.out), self.names)
        if isinstance(g, GLoopNotDone):
            return f"{self.loop(g.loop_id)} > 0"
        if isinstance(g, GLoopDone):
            return f"{self.loop(g.loop_id)} <= 0"
        raise SimError(f"unknown guard {g!r}")

    def stmt(self, a, ind: str) -> None:
        if isinstance(a, (Recv, Send)):
            self.charge(a, ind)
            self.lines += [ind + ln for ln in _move_src(
                self.port(a.port, isinstance(a, Send)), self.names,
                self.var(a.var))]
        elif isinstance(a, ALoopInit):
            self.lines.append(
                f"{ind}{self.loop(a.loop_id)} = {self.names(a.count)}")
        elif isinstance(a, ALoopStep):
            self.lines.append(f"{ind}{self.loop(a.loop_id)} -= 1")
        else:
            super().stmt(a, ind)

    def build(self, fsm: TaskFsm) -> dict:
        """Map each state to its bound function, which runs the first
        transition whose guards hold and returns the next state's
        function, or None if none holds."""
        self.state = {key: [self.names(v) for v in init]
                      for key, init in fsm.init_states.items()}
        out: dict[int, list] = {s: [] for s in fsm.states}
        for t in fsm.transitions:
            out.setdefault(t.state, []).append(t)
        fns = {s: f"s{i}" for i, s in enumerate(out)}
        states = []
        for s, ts in out.items():
            self.lines, self.used = [], set()
            for t in ts:
                ind = "    "
                for g in t.guards:
                    self.lines.append(f"{ind}if {self.guard(g, ind)}:")
                    ind += "    "
                self.body(t.actions, ind)
                self.lines.append(f"{ind}return {fns[t.next]}")
            states += [f"def {fns[s]}():"] + [
                f"    nonlocal {', '.join(sorted(self.used))}"] * \
                bool(self.used) + self.lines + ["    return None"]
        # an annotation makes a variable a cell without assigning it
        head = [f"{v}: int" for v in self.vars.values()] + [
            f"{c} = 0" for c in self.loops.values()]
        return dict(zip(out, self.names.bind("fsm", head + states + [
            f"return {', '.join(fns.values())},"])()))


class FsmRunner:
    """One task FSM as a generated closure (``_FsmGen``), bound to ``cons``
    (input port -> (channel, consumer key)) and ``prod`` (output port ->
    channel); ``fn`` is the current state's function, ``numbers`` maps
    each function to its state.  A transition fires when its guards hold,
    tested in order up to the first that fails.  Every guard and channel
    op with an address (a status poll or a bus transfer) adds 1 to
    ``charge.bus_transactions``, so a failed poll is still charged; the
    engine counts ``BUS_LATENCY`` cycles for each.
    """

    def __init__(self, fsm: TaskFsm, cons: dict, prod: dict, charge):
        self.fsm = fsm
        fns = _FsmGen(cons, prod, charge).build(fsm)
        self.numbers = {fn: s for s, fn in fns.items()}
        self.fn = fns[fsm.initial]

    def step(self) -> bool:
        """Attempt one transition; True if one fired."""
        nxt = self.fn()
        if nxt is None:
            return False
        self.fn = nxt
        return True
