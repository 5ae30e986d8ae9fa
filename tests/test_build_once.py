"""Simulator construction does each piece of work once: the gate's flat
model is the one level 0 runs, and each block template is expanded once
and then filled positionally, with every generated text unchanged."""

from __future__ import annotations

import hashlib
import importlib.resources as ir
import random
import sys

import helpers
from fdmflow.flow import compile_design, default_stimulus, simulate, \
    simulator
from fdmflow.model import graph
from fdmflow.model.parser import parse_model
from fdmflow.sim import engine, interp, sweep

# the *_FDM designs that compile without a parameter file
FDM_NAMES = ["ACCLOOP_FDM", "ELEMENTS_FDM", "FANOUT_FDM", "FEEDBACK_FDM",
             "IFELSE_FDM", "LOOSE_FDM", "OUTLINK_FDM", "PIPEDELAY_FDM"]

# SHA-256 over every text that sweep.binder compiles while levels 0-3 are
# built for each design of _designs(), in order; level 0 builds only its
# stream chunks
TEXT_DIGEST = ("effcc68052be4cfed8e0d36fa27a64db3983d837a7487d71cbc9975b"
               "5c368843")


def _designs():
    yield parse_model(
        (ir.files("fdmflow") / "models" / "mini_codec.fdm").read_text())
    for n in FDM_NAMES:
        yield parse_model(getattr(helpers, n))
    for seed in range(10):
        yield helpers.rand_partitioned_model(random.Random(seed))


def test_generated_texts_unchanged(monkeypatch):
    """Every generated text, byte for byte, of the simulators of levels
    0-3, as they are built, over mini_codec, the helper designs and ten
    random partitions."""
    h = hashlib.sha256()
    code = sweep._code

    def record(src: str):
        h.update(src.encode() + b"\0")
        return code(src)

    monkeypatch.setattr(sweep, "_code", record)
    engine._chunk_binder.cache_clear()  # its texts go through _code again
    designs = list(_designs())
    for g in designs:
        cd = compile_design(g)
        stim = default_stimulus(g, 4)
        for level in range(4):
            simulator(level, cd, stim, 4)
    assert len(designs) == 19
    assert h.hexdigest() == TEXT_DIGEST


def test_one_bind_per_task_fsm(monkeypatch):
    """Level 3 of mini_codec binds each task FSM's text once, however many
    states it has: the states are functions of one closure."""
    binder, binds, per_fsm = sweep.binder, [], []

    def counted(*args, **kwargs):
        binds.append(args[0])
        return binder(*args, **kwargs)

    init = interp.FsmRunner.__init__

    def runner(self, *args):
        before = len(binds)
        init(self, *args)
        per_fsm.append((len(self.fsm.states), len(binds) - before))

    monkeypatch.setattr(sweep, "binder", counted)
    monkeypatch.setattr(interp, "binder", counted)
    monkeypatch.setattr(interp.FsmRunner, "__init__", runner)
    g = next(_designs())
    cd = compile_design(g)
    simulator(3, cd, default_stimulus(g, 4), 4)
    assert len(per_fsm) == len(cd.micro_fsms) > 1
    assert all(states > 1 for states, _ in per_fsm)
    assert [n for _, n in per_fsm] == [1] * len(per_fsm)


def test_one_flatten_per_model(monkeypatch):
    """Compiling a design and running level 0 flatten the model once, and
    level 0 run from the gate's flat graph matches a fresh ``flatten``."""
    flatten, calls = graph.flatten, []

    def counted(g):
        calls.append(g)
        return flatten(g)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("fdmflow") and \
                getattr(mod, "flatten", None) is flatten:
            monkeypatch.setattr(mod, "flatten", counted)
    for g in _designs():
        calls.clear()
        stim = default_stimulus(g, 32)
        tr = simulate(0, compile_design(g), stim, 32)
        assert sum(m is g for m in calls) == 1, g.name
        assert tr == helpers.level0(g).run(stim, 32), g.name
