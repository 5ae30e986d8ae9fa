"""Level-0 simulation: the functional model compiled into one block sweep.

The model's flat graph is the one the gate made while validating it
(``CompiledDesign.flat``), so building level 0 only orders and plans it.
Blocks fire in topological order each tick; every ``delay`` is a register
of the ``Sweep`` plan, so its output is visible before the sweep and takes
its input once every driver has fired.  The whole stimulus is known
before a run, so the run hands its columns to ``Sweep.run``, which fires
each chunk of the sweep as one loop over every tick, and puts each output
column in the trace.
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
        self.sweep.stream()

    def tick(self, *xs: int) -> tuple:
        """Advance one tick on ``sweep.inputs``; returns ``sweep.outputs``.
        The first call builds the per-sample sweep, which ``run`` skips."""
        if not hasattr(self.sweep, "tick"):
            self.sweep.build()
        return self.sweep.tick(*xs)

    def run(self, stim: Stimulus, ticks: int) -> Trace:
        sw = self.sweep
        cols = sw.run([stim.column(p, ticks) for p in sw.inputs], ticks)
        return Trace({p: list(enumerate(col)) for p, col in
                      zip(sw.outputs, cols)}, level=0, design=self.design)
