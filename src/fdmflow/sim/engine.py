"""Unified execution engine for the partitioned levels.

One engine serves the transaction level, the macro level and the micro
level; the difference is per-node assignment.  Every unit of a macro node
(a task, or the hardware node itself) and every testbench unit runs its
generated behavior as a coroutine exchanging zero-time messages; a micro
node runs lowered FSMs under a round-robin scheduler with polled bus
transactions, or a cycle-stepped hardware model.  Mixed assignments need
no special adapter: the shared channel FIFOs are the transaction/bus
boundary.

Hardware pipelines are valid-gated: the k priming samples of a
delay-corrected node are discarded, so the value stream seen by the rest
of the system is identical at every level and comparisons across levels
need no per-node shift bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hwsynth import ControllerSim, RtlCycleSim
from ..model.blocks import FunctionRegistry
from ..tlm import TlmModel, Unit
from .channels import ChannelRt
from .interp import FsmRunner, SimError, behavior_coroutine
from .trace import Stimulus, Trace


@dataclass
class CostModel:
    unit_costs: dict = field(default_factory=dict)  # unit name -> cycles
    bus_latency: int = 2

    def cost(self, unit: str) -> int:
        c = self.unit_costs.get(unit, 0)
        return c if c > 0 else 1


@dataclass
class SimDesign:
    """Everything the engine needs, prebuilt by the flow."""

    tlm: TlmModel
    behaviors: dict  # unit name -> TaskBehavior, for every unit
    micro_fsms: dict  # task unit name -> lowered TaskFsm
    hw_impl: dict  # node -> ("pipelined", RtlGraph, k) | ("controller", Controller)
    costs: CostModel
    registry: FunctionRegistry


class _MacroUnit:
    """Coroutine-driven unit running one generated behavior."""

    def __init__(self, name: str, gen, engine):
        self.name = name
        self.engine = engine
        self.gen = gen
        self.request = next(gen)
        self.iterations = 0

    def pump(self) -> bool:
        progress = False
        while True:
            req = self.request
            if req[0] == "recv":
                ch = self.engine.cons.get((self.name, req[1]))
                if ch is None:
                    val = 0  # unconnected input reads as constant zero
                elif ch[0].can_pop(ch[1]):
                    val = ch[0].pop(ch[1])
                else:
                    return progress
                self.request = self.gen.send(val)
            elif req[0] == "send":
                ch = self.engine.prod.get((self.name, req[1]))
                if ch is None:
                    self.request = self.gen.send(None)  # value dropped
                elif ch.can_push():
                    ch.push(req[2])
                    self.request = self.gen.send(None)
                else:
                    return progress
            elif req[0] == "end":
                self.iterations += 1
                self.engine.local_clock[self.name] = \
                    self.engine.local_clock.get(self.name, 0) \
                    + self.engine.sd.costs.cost(self.name)
                self.request = self.gen.send(None)
                return True
            progress = True


class _MicroTaskIO:
    """Bus-side port bindings for one FSM task."""

    def __init__(self, name: str, engine):
        self.name = name
        self.engine = engine

    def _charge(self):
        self.engine.cycle += self.engine.sd.costs.bus_latency
        self.engine.bus_transactions += 1

    def poll_status(self, port: str, addr: int) -> int:
        self._charge()
        cons = self.engine.cons.get((self.name, port))
        if cons is not None:
            return cons[0].status(cons[1])
        prod = self.engine.prod.get((self.name, port))
        if prod is not None:
            return prod.status(None)
        return 3  # unconnected port: never blocks

    def read_data(self, port: str, addr: int, ctrl: str) -> int:
        self._charge()
        cons = self.engine.cons.get((self.name, port))
        if cons is None:
            return 0
        if ctrl != "pop":
            raise SimError(f"{self.name}.{port}: bus read with ctrl {ctrl!r}")
        return cons[0].pop(cons[1])

    def write_data(self, port: str, addr: int, value: int, ctrl: str) -> None:
        self._charge()
        prod = self.engine.prod.get((self.name, port))
        if prod is not None:
            if ctrl != "push":
                raise SimError(
                    f"{self.name}.{port}: bus write with ctrl {ctrl!r}")
            prod.push(value)


class _MicroHwUnit:
    """Cycle-stepped hardware node, one input sample per step."""

    def __init__(self, unit: Unit, impl, engine):
        self.name = unit.name
        self.unit = unit
        self.engine = engine
        if impl[0] == "pipelined":
            self.sim = RtlCycleSim(impl[1], engine.sd.registry)
            self.k = impl[2]
            self.controller = None
        else:
            self.controller = ControllerSim(impl[1], engine.sd.registry)
            self.k = 0
            self.sim = None
        self.consumed = 0
        self.emitted = 0
        # one flag per in-flight pipeline slot: True = real input sample,
        # False = reset contents or flush padding
        from collections import deque
        self.in_flight = deque([False] * self.k)

    def _io_ready(self) -> bool:
        for p in self.unit.in_ports:
            ch = self.engine.cons.get((self.name, p))
            if ch is not None and not ch[0].can_pop(ch[1]):
                return False
        for p in self.unit.out_ports:
            ch = self.engine.prod.get((self.name, p))
            if ch is not None and not ch.can_push():
                return False
        return True

    def _pop_inputs(self) -> dict:
        vals = {}
        for p in self.unit.in_ports:
            ch = self.engine.cons.get((self.name, p))
            vals[p] = ch[0].pop(ch[1]) if ch else 0
        return vals

    def _push_outputs(self, outs: dict) -> None:
        for p in self.unit.out_ports:
            ch = self.engine.prod.get((self.name, p))
            if ch is not None:
                ch.push(outs[p])
        self.emitted += 1

    def step(self) -> bool:
        if not self._io_ready():
            return False
        if self.controller is not None:
            outs = self.controller.fire(self._pop_inputs())
            self.consumed += 1
            self._push_outputs(outs)
            return True
        outs = self.sim.step(self._pop_inputs())
        self.consumed += 1
        self.in_flight.append(True)
        if self.in_flight.popleft():
            self._push_outputs(outs)
        return True

    def drain(self) -> bool:
        """Flush pending pipeline samples once upstream has gone quiet."""
        if self.sim is None or not any(self.in_flight):
            return False
        for p in self.unit.out_ports:
            ch = self.engine.prod.get((self.name, p))
            if ch is not None and not ch.can_push():
                return False
        outs = self.sim.step({p: 0 for p in self.unit.in_ports})
        self.in_flight.append(False)
        if self.in_flight.popleft():
            self._push_outputs(outs)
        return True


class Engine:
    def __init__(self, sd: SimDesign, assignment: dict, stim: Stimulus,
                 ticks: int, level_tag: int):
        for node in sd.tlm.nodes:
            if node not in assignment:
                raise SimError(f"assignment missing node {node!r}")
            if assignment[node] not in (2, 3):
                raise SimError(f"node {node!r}: level must be 2 or 3")
        self.sd = sd
        self.assignment = assignment
        self.stim = stim
        self.ticks = ticks
        self.level_tag = level_tag
        self.cycle = 0
        self.bus_transactions = 0
        self.rounds = 0
        self.events = 0
        self.local_clock: dict[str, int] = {}

        self.channels = [ChannelRt(c) for c in sd.tlm.channels]
        self.prod: dict[tuple, ChannelRt] = {}
        self.cons: dict[tuple, tuple[ChannelRt, tuple]] = {}
        for ch in self.channels:
            for p in ch.spec.producers:
                self.prod[(p.unit, p.port)] = ch
            for c in ch.spec.consumers:
                self.cons[(c.unit, c.port)] = (ch, (c.unit, c.port))

        self.macro_units: list[_MacroUnit] = []
        self.schedulers: list[list[FsmRunner]] = []
        self.hw_units: list[_MicroHwUnit] = []
        reg = sd.registry
        macro: list[str] = []
        for info in sd.tlm.nodes.values():
            if assignment[info.name] != 3:
                macro += info.units
            elif info.role == "software":
                self.schedulers.append(
                    [FsmRunner(sd.micro_fsms[u], _MicroTaskIO(u, self), reg)
                     for u in info.units])
            else:
                self.hw_units.append(_MicroHwUnit(
                    sd.tlm.units[info.name], sd.hw_impl[info.name], self))
        for name in macro + sd.tlm.testbench:
            gen = behavior_coroutine(sd.behaviors[name], reg)
            self.macro_units.append(_MacroUnit(name, gen, self))

        self.sources = [(p, self.prod.get((None, p)))
                        for p in sd.tlm.base.inputs]
        self.sent: dict[str, int] = {p: 0 for p, _ in self.sources}
        self.probes = [(p, self.cons.get((None, p)))
                       for p in sd.tlm.base.outputs]
        self.trace = Trace({p: [] for p in sd.tlm.base.outputs},
                           level=level_tag, design=sd.tlm.base.name)
        self.drain = False

    def _round(self) -> None:
        for p, ch in self.sources:
            if self.sent[p] < self.ticks and ch is not None and ch.can_push():
                ch.push(self.stim.at(p, self.sent[p]))
                self.sent[p] += 1
                self.events += 1
        for runners in self.schedulers:
            for r in runners:
                if r.step():
                    self.cycle += self.sd.costs.cost(r.fsm.task)
                    self.events += 1
        for hw in self.hw_units:
            if hw.step():
                self.events += 1
        if self.drain:
            pending = self._upstream_pending()
            for hw in self.hw_units:
                if not pending[hw.name] and hw.drain():
                    self.events += 1
        for m in self.macro_units:
            if m.pump():
                self.events += 1
        for p, ch in self.probes:
            if ch is None:
                continue
            while ch[0].can_pop(ch[1]):
                v = ch[0].pop(ch[1])
                self.events += 1
                t = self.cycle if self.level_tag >= 3 \
                    else len(self.trace.ports[p])
                self.trace.record(p, t, v)

    def _may_emit_status(self) -> dict[str, bool]:
        """Which units could still push a real sample, transitively."""
        status: dict[str, bool] = {}
        for m in self.macro_units:
            status[m.name] = m.request[0] == "send"
        for runners in self.schedulers:
            for r in runners:
                status[r.fsm.task] = r.state != r.fsm.initial
        for hw in self.hw_units:
            status[hw.name] = any(hw.in_flight)
        changed = True
        while changed:
            changed = False
            for ch in self.channels:
                feeding = any(len(q) > 0 for q in ch.queues.values()) or any(
                    status.get(p.unit, False)
                    for p in ch.spec.producers if p.unit is not None)
                if not feeding:
                    continue
                for c in ch.spec.consumers:
                    if c.unit is not None and not status.get(c.unit, False):
                        status[c.unit] = True
                        changed = True
        return status

    def _upstream_pending(self) -> dict[str, bool]:
        """Flush padding is only safe once a node can never see real input;
        draining earlier would interleave zeros into stateful pipelines."""
        status = self._may_emit_status()
        pend = {}
        for hw in self.hw_units:
            p = False
            for port in hw.unit.in_ports:
                ch = self.cons.get((hw.name, port))
                if ch is None:
                    continue
                if ch[0].can_pop(ch[1]) or any(
                        status.get(pr.unit, False)
                        for pr in ch[0].spec.producers if pr.unit is not None):
                    p = True
                    break
            pend[hw.name] = p
        return pend

    def _done(self) -> bool:
        if not self.probes or all(ch is None for _, ch in self.probes):
            return all(self.sent[p] >= self.ticks for p, ch in self.sources
                       if ch is not None)
        return all(len(self.trace.ports[p]) >= self.ticks
                   for p, ch in self.probes if ch is not None)

    def run(self) -> Trace:
        limit = 60 * self.ticks + 10000
        while not self._done():
            before = self.events
            self._round()
            self.rounds += 1
            if self.events == before:
                exhausted = all(self.sent[p] >= self.ticks
                                for p, ch in self.sources if ch is not None)
                if exhausted and not self.drain:
                    self.drain = True
                    continue
                raise SimError(
                    f"deadlock: no progress after {self.rounds} rounds "
                    f"({[(p, len(self.trace.ports[p])) for p, _ in self.probes]})")
            if self.rounds > limit:
                raise SimError("round limit exceeded")
        return self.trace


def simulate_partitioned(sd: SimDesign, level: int, stim: Stimulus,
                         ticks: int) -> Trace:
    """Levels 1 and 2 run every node as macro; level 3 as micro."""
    if level not in (1, 2, 3):
        raise SimError(f"unsupported level {level}")
    lvl = 2 if level in (1, 2) else 3
    assignment = {n: lvl for n in sd.tlm.nodes}
    eng = Engine(sd, assignment, stim, ticks, level_tag=level)
    return eng.run()


def cosimulate_mixed(sd: SimDesign, assignment: dict, stim: Stimulus,
                     ticks: int) -> Trace:
    eng = Engine(sd, assignment, stim, ticks, level_tag=3)
    return eng.run()
