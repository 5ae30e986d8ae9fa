"""Level-0 simulation: the functional model compiled into one block sweep.

Blocks fire in topological order each tick; every ``delay`` is a register
of the ``Sweep`` plan, so its output is visible before the sweep and takes
its input once every driver has fired.  A run calls ``tick`` on one row
of the stimulus's columns per tick and puts each output column in the trace.
"""

from __future__ import annotations

from ..model.graph import ModelGraph, flatten, topo_order
from .sweep import plan
from .trace import Stimulus, Trace


class Level0Sim:
    """The flattened model's sweep; slots are keyed by driving pin."""

    def __init__(self, g: ModelGraph):
        self.g = g
        flat = flatten(g)
        if flat.issues:
            raise ValueError(f"model not valid: {flat.issues[0].message}")
        self.sweep = plan(flat, topo_order(flat))

    def tick(self, *xs: int) -> tuple:
        """Advance one tick on ``sweep.inputs``; returns ``sweep.outputs``."""
        return self.sweep.tick(*xs)

    def run(self, stim: Stimulus, ticks: int) -> Trace:
        g, tick = self.g, self.tick
        cols = [stim.column(p, ticks) for p in self.sweep.inputs]
        rows = [tick(*xs) for xs in (zip(*cols) if cols else [()] * ticks)]
        trace = Trace({p: [] for p in g.outputs}, level=0, design=g.name)
        for port, col in zip(self.sweep.outputs, zip(*rows)):
            trace.ports[port] = list(enumerate(col))
        return trace
