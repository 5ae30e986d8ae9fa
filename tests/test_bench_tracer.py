"""The benchmark's traced run still finds every layer it patches.

``bench/tracer.py`` wraps package functions and methods by name, so a
deleted or renamed entry point breaks ``bench/run.py --trace 1`` without
any package test failing.  This runs a short flow under it; nothing under
``bench/`` is changed.
"""

import importlib.resources as ir
import importlib.util
from pathlib import Path

import fdmflow.flow as flow
from fdmflow.model.parser import parse_model
from fdmflow.sim.engine import Engine

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_flow(tmp_path):
    bt = _load_tracer()
    model = parse_model(
        (ir.files("fdmflow") / "models" / "mini_codec.fdm").read_text())
    run = Engine.run
    tracer = bt.Tracer()
    # called through the module, as the benchmark does, so the wrappers run
    with bt.instrument(tracer):
        tracer.scope = "flow"
        assert flow.run_flow(model, tmp_path, ticks=64).ok
        for level in (0, 1, 3):
            tracer.scope = f"sim{level}"
            flow.simulate(level, flow.compile_design(model),
                          flow.default_stimulus(model, 64), 64)
    stats = tracer.take()
    assert stats["calls"][("flow", "flow.run_flow")] == 1
    # the sims call the patched entry points, so their counts are real;
    # level 0 runs its stream driver, never the per-sample tick
    assert (stats["calls"][("sim0", "level0.build")],
            stats["calls"][("sim0", "level0.tick")]) == (1, 0)
    assert stats["count"][("sim3", "engine.rounds")] > 0
    # generated FSM states and hardware steps still go through the patched
    # FsmRunner.step, RtlCycleSim.step and ControllerSim.fire
    assert tuple(stats["calls"][("sim3", name)] for name in (
        "interp.fsm_step", "hwsynth.rtl_step", "hwsynth.ctrl_fire")) == \
        (576, 67, 64)
    # pushes, pops and failed can_push / can_pop tests: a unit that tests
    # a queue inline still calls the method whenever it blocks; a status
    # poll tests only its own side of the channel
    for level, want in ((1, (512, 512, 0, 80)), (3, (512, 512, 300, 561))):
        assert tuple(stats["count"][(f"sim{level}", f"channels.{name}")]
                     for name in ("pushes", "pops", "push_blocked",
                                  "pop_blocked")) == want, level
    assert Engine.run is run  # every patch undone
