"""Spans and counters for the benchmark's traced run, recorded from outside.

`instrument` wraps the public functions and methods of each fdmflow layer
while it is active and restores them afterwards; nothing in the package
changes.  Every wrapped call adds one to its layer's call count and its
self time (its duration minus what wrapped calls inside it took) to the
layer's self seconds.
Coarse calls also leave a span record (id, parent, name, benchmark op,
round, start, end) that the benchmark writes out when it ends; per-tick
calls such as `Level0Sim.tick` are only aggregated, so a long run keeps
its memory flat.  Counts the engine already keeps are read from the
`Engine` and `ChannelRt` objects after `Engine.run` returns.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Per-(op, layer) call counts, self seconds and event counts.

    `scope` names the benchmark operation now running ("setup", "flow",
    "sim0".."sim3", "verdict"); the benchmark sets it, so each metric is
    read from the operation it describes.
    """

    def __init__(self):
        self.scope = ""
        self.round = 0
        self.spans: list[tuple] = []
        self._open: list[list] = []  # [child seconds, span id or None]
        self._open_ids: list[int] = []
        self._origin = time.perf_counter()
        self._stats = _fresh_stats()

    def take(self) -> dict:
        """Return the stats gathered since the last call and start afresh."""
        snap, self._stats = self._stats, _fresh_stats()
        return snap

    def count(self, name: str, n: int = 1) -> None:
        self._stats["count"][(self.scope, name)] += n

    def timed(self, name: str, fn, record: bool = True):
        """Wrap fn so each call adds to `name`'s calls and self time."""
        open_, open_ids, spans = self._open, self._open_ids, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if record:
                frame[1] = len(spans) + len(open_ids)
                open_ids.append(frame[1])
            open_.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                dur = end - start
                key = (self.scope, name)
                st = self._stats
                st["calls"][key] += 1
                st["self"][key] += dur - frame[0]
                if open_:
                    open_[-1][0] += dur
                if record:
                    open_ids.pop()
                    spans.append((frame[1], open_ids[-1] if open_ids else None,
                                  name, self.scope, self.round,
                                  start - self._origin, end - self._origin))
        return wrapper

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "name", "op", "round", "start_s", "end_s")
        with open(path, "w", encoding="utf-8") as f:
            for span in sorted(self.spans):
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def _fresh_stats() -> dict:
    return {"calls": defaultdict(int), "self": defaultdict(float),
            "count": defaultdict(int)}


# layer function -> span name; every module binding of the function is wrapped
_FUNCTIONS = [
    ("fdmflow.model.parser", "parse_model", "model.parse", True),
    ("fdmflow.model.validate", "validate_model", "model.validate", True),
    ("fdmflow.model.graph", "topo_order", "model.topo_order", False),
    ("fdmflow.tlm", "recognize_partition", "tlm.partition", True),
    ("fdmflow.tlm", "validate_partition", "tlm.partition", True),
    ("fdmflow.gma.tree", "build_tree", "gma.tree", True),
    ("fdmflow.gma.netlist", "emit_netlist", "gma.netlist", True),
    ("fdmflow.gma.params", "emit_param_templates", "gma.params", True),
    ("fdmflow.gma.params", "attach_params", "gma.params", True),
    ("fdmflow.gma.behavior", "gen_task_behavior", "gma.behavior", False),
    ("fdmflow.swsynth", "build_task_fsm", "swsynth.fsm", False),
    ("fdmflow.swsynth", "allocate_address_map", "swsynth.address_map", True),
    ("fdmflow.swsynth", "lower_api", "swsynth.lower", False),
    ("fdmflow.hwsynth", "map_rtl_library", "hwsynth.map", False),
    ("fdmflow.hwsynth", "delay_correct", "hwsynth.delay_correct", False),
    ("fdmflow.hwsynth", "fsm_controller", "hwsynth.controller", False),
    ("fdmflow.flow", "compile_design", "flow.compile", True),
    ("fdmflow.flow", "run_flow", "flow.run_flow", True),
    ("fdmflow.flow", "simulate", "flow.simulate", True),
    ("fdmflow.sim.trace", "compare_traces", "trace.compare", True),
]


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer entry point for the duration of the block."""
    from fdmflow.gma.netlist import ColifNetlist
    from fdmflow.hwsynth import ControllerSim, RtlCycleSim
    from fdmflow.sim.channels import ChannelRt
    from fdmflow.sim.engine import Engine
    from fdmflow.sim.interp import FsmRunner
    from fdmflow.sim.level0 import Level0Sim
    from fdmflow.sim.trace import Trace

    undo: list[tuple] = []

    def patch_function(module: str, attr: str, name: str, record: bool):
        orig = getattr(sys.modules[module], attr)
        new = tracer.timed(name, orig, record)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("fdmflow"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, new)

    def patch_method(cls, attr: str, new):
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def count_false(name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            ok = fn(*args)
            if not ok:
                tracer.count(name)
            return ok
        return wrapper

    orig_run = Engine.run

    def run_and_count(self):
        try:
            return orig_run(self)
        finally:
            tracer.count("engine.rounds", self.rounds)
            tracer.count("engine.events", self.events)
            tracer.count("engine.bus_transactions", self.bus_transactions)
            tracer.count("engine.cycles", self.cycle)
            tracer.count("channels.pushes", sum(c.pushed for c in self.channels))
            tracer.count("channels.pops", sum(c.popped for c in self.channels))

    orig_step = FsmRunner.step

    def step_and_count(self):
        fired = orig_step(self)
        if fired:
            tracer.count("interp.fsm_useful")
        return fired

    orig_record = Trace.record

    def record_and_count(self, port, time, value):
        recs = self.ports.get(port)
        if recs and time <= recs[-1][0]:
            tracer.count("trace.time_rewrites")
        orig_record(self, port, time, value)

    try:
        for module, attr, name, record in _FUNCTIONS:
            patch_function(module, attr, name, record)
        patch_method(ColifNetlist, "module_at",
                     tracer.timed("gma.module_at", ColifNetlist.module_at, False))
        patch_method(Level0Sim, "__init__",
                     tracer.timed("level0.build", Level0Sim.__init__))
        patch_method(Level0Sim, "tick",
                     tracer.timed("level0.tick", Level0Sim.tick, False))
        patch_method(Engine, "__init__",
                     tracer.timed("engine.build", Engine.__init__))
        patch_method(Engine, "run", tracer.timed("engine.run", run_and_count))
        patch_method(FsmRunner, "step",
                     tracer.timed("interp.fsm_step", step_and_count, False))
        patch_method(RtlCycleSim, "step",
                     tracer.timed("hwsynth.rtl_step", RtlCycleSim.step, False))
        patch_method(ControllerSim, "fire",
                     tracer.timed("hwsynth.ctrl_fire", ControllerSim.fire, False))
        patch_method(ChannelRt, "can_push",
                     count_false("channels.push_blocked", ChannelRt.can_push))
        patch_method(ChannelRt, "can_pop",
                     count_false("channels.pop_blocked", ChannelRt.can_pop))
        patch_method(Trace, "record", record_and_count)
        patch_method(Trace, "save", tracer.timed("trace.save", Trace.save))
        patch_method(Trace, "load", classmethod(
            tracer.timed("trace.load", Trace.__dict__["load"].__func__)))
        yield tracer
    finally:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)
