"""Level-0 simulation: the functional model compiled into one block sweep.

Blocks fire in topological order each tick; every ``delay`` is a register
of the ``Sweep`` plan, so its output is visible before the sweep and takes
its input once every driver has fired.
"""

from __future__ import annotations

from ..model.blocks import port_names
from ..model.graph import ModelGraph, flatten, topo_order
from .sweep import Sweep
from .trace import Stimulus, Trace


class Level0Sim:
    """The flattened model's sweep; slots are keyed by driving pin."""

    def __init__(self, g: ModelGraph):
        flat = flatten(g)
        if flat.issues:
            raise ValueError(f"model not valid: {flat.issues[0].message}")
        sw = self.sweep = Sweep()

        def src(driver) -> int:
            # ("top", port) -> key (port,); ("block", path, port) -> (path, port)
            return sw.slot(driver[1:])

        for p in g.inputs:
            sw.inputs[p] = sw.slot((p,))
        for path in topo_order(flat):
            blk = flat.blocks[path].block
            ins, outs = port_names(blk.kind, blk.params)
            in_slots = [src(flat.drivers[(path, p)]) for p in ins]
            out_slots = [sw.slot((path, p)) for p in outs]
            if blk.kind == "delay":
                sw.reg(in_slots[0], out_slots[0], blk.params[0])
            else:
                sw.op(blk.kind, blk.params, in_slots, out_slots)
        sw.outputs = {p: src(d) for p, d in flat.top_outputs.items()}
        sw.build()

    def tick(self, in_values: dict[str, int]) -> dict[str, int]:
        """Advance one global tick; returns top-level output port values."""
        return self.sweep.tick(in_values)


def simulate_level0(g: ModelGraph, stim: Stimulus, ticks: int) -> Trace:
    sim = Level0Sim(g)
    trace = Trace({p: [] for p in g.outputs}, level=0, design=g.name)
    for t in range(ticks):
        outs = sim.tick({p: stim.at(p, t) for p in g.inputs})
        for port, v in outs.items():
            trace.ports[port].append((t, v))
    return trace
