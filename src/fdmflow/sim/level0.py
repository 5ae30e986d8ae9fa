"""Level-0 simulation: the functional model compiled into one block sweep.

The model's flat graph is the one the gate made while validating it
(``CompiledDesign.flat``), so building level 0 only orders and plans it.
Blocks fire in topological order each tick; every ``delay`` is a register
of the ``Sweep`` plan, so its output is visible before the sweep and takes
its input once every driver has fired.  A run calls ``tick`` on one row
of the stimulus's columns per tick and puts each output column in the trace.
"""

from __future__ import annotations

from ..model.graph import FlatGraph, topo_order
from .sweep import plan
from .trace import Stimulus, Trace


class Level0Sim:
    """The sweep of a flat model named ``design``; slots are keyed by
    driving pin."""

    def __init__(self, flat: FlatGraph, design: str):
        if flat.issues:
            raise ValueError(f"model not valid: {flat.issues[0].message}")
        self.design = design
        self.sweep = plan(flat, topo_order(flat))

    def tick(self, *xs: int) -> tuple:
        """Advance one tick on ``sweep.inputs``; returns ``sweep.outputs``."""
        return self.sweep.tick(*xs)

    def run(self, stim: Stimulus, ticks: int) -> Trace:
        tick, outs = self.tick, self.sweep.outputs
        cols = [stim.column(p, ticks) for p in self.sweep.inputs]
        rows = [tick(*xs) for xs in (zip(*cols) if cols else [()] * ticks)]
        trace = Trace({p: [] for p in outs}, level=0, design=self.design)
        for port, col in zip(outs, zip(*rows)):
            trace.ports[port] = list(enumerate(col))
        return trace
