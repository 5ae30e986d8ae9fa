"""Kahn determinism: a process network's output streams do not depend on
how its processes are scheduled or on how deep its FIFOs are (Kahn 1974).

Every run of a design here draws each channel's depth from {1, 2, 5} and
rebuilds the order of the nodes, of each node's units and of the
testbench, all from a seeded generator, and then must produce level 0's
value stream on every output.  The designs are ``mini_codec``, every
fixed model of ``helpers`` that compiles without a parameter file, and
``rand_partitioned_model`` seeds 0-29; each runs at levels 1, 2 and 3 and
in two seeded mixed assignments.
"""

import importlib.resources as ir
import random
from dataclasses import replace

import pytest

import helpers
from fdmflow.flow import FlowError, compile_design, default_stimulus, \
    simulate
from fdmflow.model.parser import parse_model
from fdmflow.sim.engine import Engine
from fdmflow.sim.interp import SimError
from fdmflow.sim.trace import compare_traces

TICKS = 24
DEPTHS = (1, 2, 5)

FIXED = {name: getattr(helpers, name) for name in sorted(dir(helpers))
         if name.endswith("_FDM")}
# their user blocks in a HW_ node have no RTL entry and need cost_cycles
NEEDS_PARAMS = {"MIX2_FDM", "NESTED_HW_FDM"}


def _model(name: str):
    if name == "mini_codec":
        return parse_model(
            (ir.files("fdmflow") / "models" / "mini_codec.fdm").read_text())
    if name in FIXED:
        return parse_model(FIXED[name])
    return helpers.rand_partitioned_model(random.Random(int(name[4:])))


DESIGNS = ["mini_codec"] + sorted(set(FIXED) - NEEDS_PARAMS) + [
    f"rand{seed}" for seed in range(30)]


def _shuffled(rng: random.Random, items) -> list:
    return rng.sample(list(items), len(items))


def _rearrange(cd, rng: random.Random) -> None:
    """New channel depths and a new order of nodes, units and testbench,
    set on the compiled design through its public fields."""
    tlm = cd.tlm
    for ch in tlm.channels:
        ch.fifo_depth = rng.choice(DEPTHS)
    tlm.nodes = {n: replace(tlm.nodes[n],
                            units=_shuffled(rng, tlm.nodes[n].units))
                 for n in _shuffled(rng, tlm.nodes)}
    tlm.testbench = _shuffled(rng, tlm.testbench)


def _assignments(name: str, cd) -> list[dict]:
    """Levels 1, 2 and 3 for every node, then two seeded mixed ones."""
    rng = random.Random(f"mixed {name}")
    return [dict.fromkeys(cd.tlm.nodes, level) for level in (1, 2, 3)] + [
        {n: rng.choice((1, 2, 3)) for n in cd.tlm.nodes} for _ in range(2)]


def _waits_on_feedback(name: str, assignment: dict) -> bool:
    """FEEDBACK_FDM deadlocks with HW_reg at level 3: a level-3 HW_ node
    needs an input before it emits (ROADMAP item 4)."""
    return name == "FEEDBACK_FDM" and assignment.get("HW_reg") == 3


def _run_all(name: str, cd, assignments: list[dict]) -> None:
    """Each assignment on its own stimulus, rearranged, against level 0;
    a deadlock raises SimError."""
    for i, assignment in enumerate(assignments):
        stim = default_stimulus(cd.model, TICKS, seed=i)
        t0 = simulate(0, cd, stim, TICKS)
        _rearrange(cd, random.Random(f"{name} {i}"))
        tr = Engine(cd, assignment, stim, TICKS).run()
        v = compare_traces(t0, tr, mode="values_only")
        assert v.passed, f"{name} {assignment}: {v}"


@pytest.mark.parametrize("name", DESIGNS)
def test_streams_do_not_depend_on_schedule(name):
    cd = compile_design(_model(name))
    _run_all(name, cd, [a for a in _assignments(name, cd)
                        if not _waits_on_feedback(name, a)])


@pytest.mark.xfail(raises=SimError, strict=True,
                   reason="a level-3 HW_ node needs an input before it "
                   "emits, so the loop through HW_reg deadlocks (ROADMAP "
                   "item 4)")
def test_feedback_with_hw_reg_at_level3():
    cd = compile_design(_model("FEEDBACK_FDM"))
    _run_all("FEEDBACK_FDM", cd,
             [{"SW_cpu": level, "HW_reg": 3} for level in (1, 2, 3)])


def test_design_set():
    """The fixed models left out need a parameter file to compile; every
    other one is in the guard."""
    for name in NEEDS_PARAMS:
        with pytest.raises(FlowError, match="cost_cycles"):
            compile_design(_model(name))
    assert NEEDS_PARAMS < set(FIXED)
