"""Unified execution engine for the partitioned levels.

One engine serves the transaction level, the macro level and the micro
level; the difference is per-node assignment, where levels 1 and 2 both
run a node as macro.  Every unit of a macro node (a task, or the hardware
node itself) and every testbench unit runs its generated behavior as a
generator that pushes and pops its channels in zero time; a micro node
runs lowered FSMs under a round-robin scheduler with polled bus
transactions, or a cycle-stepped hardware model.  Mixed assignments need
no special adapter: the shared channel FIFOs are the transaction/bus
boundary.  Every unit tests and moves its channel queues inline: each
behavior, FSM state and hardware step is generated code bound to its
ports' queues (see ``interp``), which calls a channel method only when a
test fails or to push to several readers.

The run loop is generated code too, built once per engine through
``sweep.binder``.  It runs while a probe (with no probe, a source) holds
fewer than ``ticks`` samples, and each pass is one round written out as
straight-line code in a fixed order: each source sends its next sample
if its channel has room; each awake task steps its FSM through
``FsmRunner.step``, and each sleeping one is charged its idle cost; each
awake hardware node calls its generated step; while the pipelines drain,
the nodes are padded; each macro unit resumes its generator; each probe
pops and records every sample its queue holds.  The sample counts, the
drain flag, events and rounds are locals of the loop, task costs and bus
transactions go to a clock object (``_Clock``), and all are written back
to the engine when it stops; the time, a level-3 probe's timestamp and
``Engine.cycle``, is the task costs plus ``BUS_LATENCY`` cycles per
transaction.  Units enter the text as parameters, in chunks of about
``sweep.CHUNK`` lines that are each a function of their own, so a text
depends only on how many units of each kind a design has, and chunks of
one size share one text, generated once.

Every port is bound to its channel before the run: behaviors and FSMs
name only ports on a channel (an input on none is the constant 0, an
output on none is never sent), and hardware nodes, sources and probes
keep only theirs, so nothing in a round tests for a missing channel.

Hardware pipelines are valid-gated: the k priming samples of a
delay-corrected node are discarded, so the value stream seen by the rest
of the system is identical at every level and comparisons across levels
need no per-node shift bookkeeping.

Flushing a pipeline is decided by a sample count.  Every block fires once
per tick, so sample i on every channel belongs to tick i (synchronous
dataflow).  Once the sources have run out and a round makes no progress,
a hardware node that has consumed at least ``ticks`` samples holds every
real sample the run needs; it pads its pipeline with zero inputs to push
them out.  A node that has consumed fewer still waits for real input, so
padding never lands between samples the trace records, and a producer
that blocks on ``send`` for ever, such as a constant feeding a node,
cannot hold the flush back.

A round steps only the micro units that can make progress.  Each channel
lists the micro units (FSM tasks and hardware nodes) that read or write
it, and every push or pop marks them awake; a micro unit whose step
fails goes to sleep, and the round skips a sleeping unit until a channel
of its own changes.  A unit woken by an earlier unit of the same round is
stepped in that round, one woken by a later unit in the next, which is
the order in which stepping every unit would see the change.  A sleeping
hardware node costs nothing.  A sleeping task is charged, every round,
the bus transactions its last failed step charged, and that is exact: a
failed FSM step changes nothing but these charges, and which status
polls it makes and what they read depend only on the FSM state, the
loop counters and the occupancy of the channels it polls, none of which
can change while it sleeps.  The drain path pads a node whatever
its wake state, driven by the drain flag and ``consumed`` alone.  Macro
units have no wake list, since nearly all progress in every round; a
transfer on a channel that no micro unit watches only tests an empty
wake list.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from ..hwsynth import ControllerSim, HwImpl, RtlCycleSim
from ..swsynth import ALoopInit, GReady, TaskFsm
from .channels import ChannelRt
from .interp import BUS_LATENCY, FsmRunner, SimError, _move_src, \
    _port_names, _ready_src, behavior_coroutine, hw_step
from .sweep import CHUNK, Names, binder
from .trace import Stimulus, Trace

# one unit's part of a round, formatted with its index j in its chunk, the
# names it binds per unit and its cells; a task's ib is the bus
# transactions its last failed step charged to the clock clk, charged
# again for every round it sleeps
_TASK = ("""\
if t{j}.awake:
    bus = clk.bus_transactions
    if step{j}():
        clk.cycle += cost{j}
        ev += 1
    else:
        t{j}.awake = False
        ib{j} = clk.bus_transactions - bus
else:
    clk.bus_transactions += ib{j}""", ("t", "step", "cost"), ("ib",))
# the time in cycles: the task costs plus every bus transaction's latency
_NOW = f"clk.cycle + {BUS_LATENCY} * clk.bus_transactions"
_HW = ("""\
if h{j}.awake:
    if step{j}():
        ev += 1
    else:
        h{j}.awake = False""", ("h", "step"), ())
_MACRO = ("""\
if next(m{j}):
    ev += 1""", ("m",), ())


def _listen(unit, channels) -> None:
    """Put ``unit`` on the wake list of each channel, once."""
    for ch in channels:
        if unit not in ch.wake:
            ch.wake.append(unit)


@lru_cache(maxsize=None)  # at most one per kind and chunk size
def _chunk_binder(fn: str, kind: tuple, n: int):
    """``bind(*values)`` of a chunk of ``n`` units of ``kind``, ``values``
    the names of unit 0, then of unit 1, and so on; ``bind`` returns
    ``fn(clk)``, which runs the chunk given the engine's ``_Clock`` and
    returns the events made."""
    entry, stems, cells = kind
    return binder(fn, [f"{s}{j}" for j in range(n) for s in stems],
                   ["ev = 0"] + [ln for j in range(n)
                                 for ln in entry.format(j=j).splitlines()]
                   + ["return ev"],
                   [f"{c}{j}" for j in range(n) for c in cells], args="clk")


def _chunks(fn: str, units: list, kind: tuple, values) -> dict:
    """Functions ``fn0``, ``fn1``, ... over the chunks of ``units``, each
    bound to the names ``values(unit)`` gives for ``kind``.  A chunk holds
    about ``CHUNK`` lines, which bounds the compiler's memory as in
    ``sweep``, and chunks of equal size share one text."""
    size = max(1, CHUNK // len(kind[0].splitlines()))
    fns = {}
    for i in range(0, len(units), size):
        chunk = units[i:i + size]
        bind = _chunk_binder(fn, kind, len(chunk))
        fns[f"{fn}{i // size}"] = bind(*[v for u in chunk for v in values(u)])
    return fns


def _pad(hw_units: list, ticks: int) -> int:
    """Pad each hardware node that has consumed ``ticks`` samples; the
    number of nodes that moved."""
    return sum(1 for hw in hw_units if hw.consumed >= ticks and hw.pad())


class _Clock:
    """What a run has charged: ``cycle`` holds the task costs, which the
    task chunks add, and ``bus_transactions`` the transactions the FSM
    runners count, each ``BUS_LATENCY`` cycles; the run loop copies both
    to the engine when it stops, so no generated function holds it."""

    def __init__(self):
        self.cycle = 0
        self.bus_transactions = 0


class _MicroTask:
    """One FSM task on a processor: its runner, its bus-side port bindings
    and its wake state.

    ``ports`` maps each port to (channel, consumer key), the key None for
    an output.  The runner charges its bus transactions to the engine's
    clock.
    """

    def __init__(self, name: str, fsm: TaskFsm, cost: int, engine):
        self.name = name
        self.cost = cost
        cons, prod = engine.bind(name, fsm)
        self.ports = {**cons, **{p: (ch, None) for p, ch in prod.items()}}
        self.runner = FsmRunner(fsm, cons, prod, engine.clock)
        self.awake = True
        _listen(self, [ch for ch, _ in self.ports.values()])

    def waits(self) -> list[tuple]:
        """(port, channel, consumer key) of each status poll out of the
        current state whose bit is clear, key None on the producer side."""
        out = []
        state = self.runner.numbers[self.runner.fn]
        for t in self.runner.fsm.transitions:
            if t.state != state:
                continue
            for g in t.guards:
                if not isinstance(g, GReady):
                    continue
                ch, key = self.ports[g.port]
                if not (ch.can_push() if g.out else ch.can_pop(key)):
                    out.append((g.port, ch, key))
        return out


class _MicroHwUnit:
    """Cycle-stepped hardware node, one input sample per step.

    A controller is a node with k=0: its outputs belong to the sample it
    just consumed.  ``cons`` maps each input on a channel to (channel,
    consumer key) and ``prod`` each output on a channel to the channel;
    ``advance``, the cycle model, takes its sweep inputs ``ins`` (0 for
    one on no channel) and returns a tuple, ``prod``'s output i at
    ``out_index[i]``; ``step`` (``interp.hw_step``) moves samples inline.
    """

    def __init__(self, name: str, impl: HwImpl, cons: dict, prod: dict):
        self.name = name
        pipelined = impl.kind == "pipelined"
        sim = RtlCycleSim(impl) if pipelined else ControllerSim(impl)
        self.advance = sim.step if pipelined else sim.fire
        self.k = impl.latency if pipelined else 0
        self.ins = list(sim.sweep.inputs)
        self.out_index = [list(sim.sweep.outputs).index(p) for p in prod]
        self.cons, self.prod = cons, prod
        self.consumed = 0
        self.awake = True
        _listen(self, [ch for ch, _ in cons.values()] + list(prod.values()))
        # one flag per in-flight pipeline slot: True = real input sample,
        # False = reset contents or flush padding
        self.in_flight = deque([False] * self.k)
        self.step = hw_step(self, cons, prod)

    def waits(self) -> list[tuple]:
        """(port, channel, consumer key) of each empty input and full
        output, key None for an output."""
        return [(p, ch, key) for p, (ch, key) in self.cons.items()
                if not ch.can_pop(key)] + \
            [(p, ch, None) for p, ch in self.prod.items() if not ch.can_push()]

    def pad(self) -> bool:
        """Advance on zero inputs to flush a pipeline slot that still
        holds a real sample."""
        if not any(self.in_flight) or \
                not all(ch.can_push() for ch in self.prod.values()):
            return False
        outs = self.advance(*[0] * len(self.ins))
        self.in_flight.append(False)
        if self.in_flight.popleft():
            for ch, i in zip(self.prod.values(), self.out_index):
                ch.push(outs[i])
        return True


class Engine:
    """Runs ``cd``, the flow's ``CompiledDesign``, with each node at its
    assigned level; the trace has the highest level assigned (1 if none)."""

    def __init__(self, cd, assignment: dict, stim: Stimulus, ticks: int):
        for node in cd.tlm.nodes:
            if node not in assignment:
                raise SimError(f"assignment missing node {node!r}")
            if assignment[node] not in (1, 2, 3):
                raise SimError(f"node {node!r}: level must be 1, 2 or 3")
        self.stim = stim
        self.ticks = ticks
        self.level = max((assignment[n] for n in cd.tlm.nodes), default=1)
        self.cycle = 0
        self.bus_transactions = 0
        self.clock = _Clock()
        self.rounds = 0
        self.events = 0

        self.channels = [ChannelRt(c) for c in cd.tlm.channels]
        self.prod: dict[tuple, ChannelRt] = {}
        self.cons: dict[tuple, tuple[ChannelRt, tuple]] = {}
        for ch in self.channels:
            for p in ch.spec.producers:
                self.prod[(p.unit, p.port)] = ch
            for c in ch.spec.consumers:
                self.cons[(c.unit, c.port)] = (ch, (c.unit, c.port))

        self.macro_units: list = []  # bound behavior generators
        self.schedulers: list[list[_MicroTask]] = []  # per processor node
        self.hw_units: list[_MicroHwUnit] = []
        macro: list[str] = []
        for info in cd.tlm.nodes.values():
            if assignment[info.name] != 3:
                macro += info.units
            elif info.role == "software":
                self.schedulers.append([
                    _MicroTask(u, cd.micro_fsms[u], cd.unit_costs.get(u, 1),
                               self)
                    for u in info.units])
            else:
                self.hw_units.append(_MicroHwUnit(
                    info.name, cd.hw_impl[info.name],
                    *self.bind(info.name, cd.behaviors[info.name])))
        for name in macro + cd.tlm.testbench:
            b = cd.behaviors[name]
            self.macro_units.append(behavior_coroutine(b, *self.bind(name, b)))

        # model ports on no channel are neither fed nor watched
        self.sources = [(p, self.prod[(None, p)]) for p in cd.tlm.base.inputs
                        if (None, p) in self.prod]
        self.probes = [(p,) + self.cons[(None, p)]
                       for p in cd.tlm.base.outputs if (None, p) in self.cons]
        self.trace = Trace({p: [] for p in cd.tlm.base.outputs},
                           level=self.level, design=cd.tlm.base.name)
        # a round without an event ends the run, so a run that terminates
        # makes at most as many rounds per tick as events: one per FSM
        # transition and loop iteration of each task, and one per other
        # unit, source and probe
        fsms = cd.micro_fsms.values()
        self.limit = (sum(len(f.transitions) for f in fsms) + sum(
            a.count for f in fsms for tr in f.transitions for a in tr.actions
            if isinstance(a, ALoopInit)) + len(cd.tlm.units) - len(fsms)
            + len(self.sources) + len(self.probes)) * ticks + 10000
        self._loop = self._generate()

    def bind(self, name: str, b) -> tuple[dict, dict]:
        """The channels of the ports that ``b``, a behavior or FSM, names."""
        return ({p: self.cons[(name, p)] for p in b.in_ports},
                {p: self.prod[(name, p)] for p in b.out_ports})

    def _generate(self):
        """The run loop, generated once (module docstring).  It returns
        None once every probe holds ``ticks`` samples, "deadlock" or
        "limit", and writes the rounds, events, cycles and bus
        transactions back to the engine."""
        names = Names(ticks=self.ticks, limit=self.limit,
                      pad=_pad, record=self.trace.record, clk=self.clock)
        lines = ["before = ev"]
        for j, (p, ch) in enumerate(self.sources):
            names |= _port_names(j, ch) | {
                f"x{j}": self.stim.column(p, self.ticks)}
            lines += [f"if s{j} < ticks and ({_ready_src(j, names)}):",
                      f"    v = x{j}[s{j}]"] + [
                "    " + ln for ln in _move_src(j, names, "v")] + [
                f"    s{j} += 1", "    ev += 1"]
        units = _chunks(
            "tasks", [t for tasks in self.schedulers for t in tasks], _TASK,
            lambda t: (t, t.runner.step, t.cost))
        units |= _chunks("hw", self.hw_units, _HW, lambda h: (h, h.step))
        lines += [f"ev += {f}(clk)" for f in units]
        lines += ["if drain:", "    ev += pad(e.hw_units, ticks)"]
        macro = _chunks("macro", self.macro_units, _MACRO, lambda m: (m,))
        lines += [f"ev += {f}(clk)" for f in macro]
        sent = [f"s{j}" for j in range(len(self.sources))]
        recorded = []
        for j, (p, ch, key) in enumerate(self.probes, len(sent)):
            names |= _port_names(j, ch, key)
            now = _NOW if self.level >= 3 else f"n{j}"
            lines += [f"while {_ready_src(j, names)}:"] + [
                "    " + ln for ln in _move_src(j, names, "v")] + [
                "    ev += 1", f"    record({names(p)}, {now}, v)",
                f"    n{j} += 1"]
            recorded.append(f"n{j}")
        drained = " and ".join(f"{s} >= ticks" for s in sent) or "True"
        lines += ["rn += 1", "if ev == before:",
                  f"    if not drain and {drained}:",
                  "        drain = True", "        continue",
                  "    return 'deadlock'",
                  "if rn > limit:", "    return 'limit'"]
        running = " or ".join(f"{n} < ticks" for n in recorded or sent)
        # the engine is an argument, not a name the loop closes over, and
        # the FSM states charge the clock, so an engine is in no reference
        # cycle and is freed as soon as it is dropped
        names |= units | macro
        return names.bind("loop", [
            "ev = rn = 0", "drain = False"] + [
            f"{n} = 0" for n in sent + recorded] + [
            "try:", f"    while {running or 'False'}:"] + [
            "        " + ln for ln in lines] + [
            "    return None", "finally:", "    e.events, e.rounds = ev, rn",
            f"    e.cycle = {_NOW}",
            "    e.bus_transactions = clk.bus_transactions"],
            args="e")

    def _waiting(self) -> str:
        """Who waits on what, for the deadlock message: each micro unit
        with the port and channel it waits on and the occupancy of its
        queue (the fullest one for a producer) against the depth."""
        waits = []
        units = [t for tasks in self.schedulers for t in tasks] + self.hw_units
        for u in units:
            for port, ch, key in u.waits():
                n = len(ch.queues[key]) if key \
                    else max(map(len, ch.fifos), default=0)
                waits.append(f"{u.name}.{port} on {ch.spec.id} "
                             f"({n}/{ch.depth})")
        return f"; waiting: {', '.join(waits)}" if waits else ""

    def run(self) -> Trace:
        stop = self._loop(self)
        if stop == "deadlock":
            raise SimError(
                f"deadlock: no progress after {self.rounds} rounds "
                f"({[(p, len(self.trace.ports[p])) for p, *_ in self.probes]})"
                f"{self._waiting()}")
        if stop == "limit":
            raise SimError("round limit exceeded")
        return self.trace
