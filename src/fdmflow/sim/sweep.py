"""The one block-sweep evaluator, compiled once per synchronous block graph.

Level 0, the RTL cycle model and the FSM controller each build a
``Sweep`` plan from their graph and then only call ``tick``.  A plan holds
integer value slots (slot 0 always reads zero), the combinational ops in
evaluation order and the registers.  Registers are FIFOs: per tick every
q slot shows its FIFO's head, the ops fire in order, then every FIFO takes
its d slot.  A ``delay(k)`` block is a register of depth k; at the cycle
level an IP's L-stage output pipeline and an edge's balancing registers are
registers too.  Each op holds the step function ``block_fn`` bound for its
block when the plan was built, so a tick decodes no block kind; ``block_fn``
stays the one definition of what a block does.
"""

from __future__ import annotations

from collections import deque

from ..model.blocks import FunctionRegistry, block_fn, init_state


class Sweep:
    def __init__(self, registry: FunctionRegistry):
        self.registry = registry
        self.slots: dict = {}  # slot key -> slot number
        self.ops: list[tuple] = []  # (step fn, in slots, out slots, state index)
        self.init_states: list = []  # op index -> its block's initial state
        self.regs: list[tuple] = []  # (d slot, q slot, depth)
        self.inputs: dict[str, int] = {}  # port name -> slot
        self.outputs: dict[str, int] = {}  # port name -> slot

    def slot(self, key) -> int:
        return self.slots.setdefault(key, len(self.slots) + 1)

    def op(self, kind: str, params: tuple, ins, outs) -> None:
        self.ops.append((block_fn(kind, params, self.registry), tuple(ins),
                         tuple(outs), len(self.ops)))
        self.init_states.append(init_state(kind, params))

    def reg(self, d: int, q: int, depth: int) -> None:
        self.regs.append((d, q, depth))

    def reset(self) -> None:
        """Zero every slot, block state and register."""
        self.vals = [0] * (len(self.slots) + 1)
        self.states = list(self.init_states)
        self.fifos = [deque([0] * depth) for _, _, depth in self.regs]

    def tick(self, in_values: dict[str, int]) -> dict[str, int]:
        """Advance one tick; unnamed inputs read zero."""
        vals, states = self.vals, self.states
        for port, s in self.inputs.items():
            vals[s] = in_values.get(port, 0)
        for (_, q, _), fifo in zip(self.regs, self.fifos):
            vals[q] = fifo[0]
        for fn, ins, outs, si in self.ops:
            res, states[si] = fn([vals[i] for i in ins], states[si])
            for s, v in zip(outs, res):
                vals[s] = v
        for (d, _, _), fifo in zip(self.regs, self.fifos):
            fifo.popleft()
            fifo.append(vals[d])
        return {port: vals[s] for port, s in self.outputs.items()}
