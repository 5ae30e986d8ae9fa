"""Level-0 simulation: the functional model compiled into one block sweep.

Blocks fire in topological order each tick; every ``delay`` is a register
of the ``Sweep`` plan, so its output is visible before the sweep and takes
its input once every driver has fired.
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

    def tick(self, in_values: dict[str, int]) -> dict[str, int]:
        """Advance one global tick; returns top-level output port values."""
        return self.sweep.tick(in_values)

    def run(self, stim: Stimulus, ticks: int) -> Trace:
        g = self.g
        trace = Trace({p: [] for p in g.outputs}, level=0, design=g.name)
        for t in range(ticks):
            outs = self.tick({p: stim.at(p, t) for p in g.inputs})
            for port, v in outs.items():
                trace.ports[port].append((t, v))
        return trace

