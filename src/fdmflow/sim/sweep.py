"""The one block-sweep evaluator, generated once per synchronous block graph.

Level 0, the RTL cycle model and the FSM controller each build a
``Sweep`` plan from their graph and then only call ``tick``.  A plan holds
integer value slots (slot 0 always reads zero), the combinational ops in
evaluation order and the registers.  Registers are FIFOs: per tick every
q slot shows its FIFO's head, the ops fire in order, then every FIFO takes
its d slot.  A ``delay(k)`` block is a register of depth k; at the cycle
level an IP's L-stage output pipeline and an edge's balancing registers are
registers too.

``build`` turns the plan into straight-line Python, once, and ``exec``s it
(as ``dataclasses`` and ``namedtuple`` do).  One list ``vals`` holds every
slot, every block state cell and every register stage; the generated
``tick`` reads and writes it by index, fires each op as its block's
template (``model.blocks.block_src``) spliced inline, and then shifts the
registers stage by stage.  A block parameter is a global ``kN`` of the
generated code and a user function a call of one, so the source holds
only integers, quoted port names and names the generator makes up, never
a block name or a parameter value: plans that differ only in parameter
values share one text.  The ops and the shifts go into functions of
``CHUNK`` each, and each is compiled on its own: CPython needs several
KiB of temporary memory per line to compile a function, so one source
for a plan of hundreds of ops would raise the peak memory of a run for
nothing.  Equal source texts are compiled once.
"""

from __future__ import annotations

from functools import lru_cache

from ..model.blocks import block_src, init_state

CHUNK = 48  # ops, or register shifts, per generated function


@lru_cache(maxsize=128)
def _code(src: str):
    return compile(src, "<fdmflow generated>", "exec")


def exec_generated(src: str, namespace: dict) -> dict:
    """Run generated source in ``namespace``, compiling each text once."""
    exec(_code(src), namespace)
    return namespace


def _chunked(lines: list[str], name: str, namespace: dict) -> list[str]:
    """Define functions ``name0(vals)``, ``name1``, ... in ``namespace``,
    each running ``CHUNK`` of the entries (an entry may span lines);
    return the lines that call them in order.  Each function is compiled
    on its own, so the compiler never holds more than one chunk."""
    calls = []
    for i in range(0, len(lines), CHUNK):
        fname = f"{name}{i // CHUNK}"
        exec_generated("\n".join([f"def {fname}(vals):"] + [
            "    " + ln.replace("\n", "\n    ")
            for ln in lines[i:i + CHUNK]] + [""]), namespace)
        calls.append(f"{fname}(vals)")
    return calls


class Sweep:
    def __init__(self):
        self.slots: dict = {}  # slot key -> slot number
        self.ops: list[tuple] = []  # (kind, params, in slots, out slots)
        self.regs: list[tuple] = []  # (d slot, q slot, depth)
        self.inputs: dict[str, int] = {}  # port name -> slot
        self.outputs: dict[str, int] = {}  # port name -> slot

    def slot(self, key) -> int:
        return self.slots.setdefault(key, len(self.slots) + 1)

    def op(self, kind: str, params: tuple, ins, outs) -> None:
        self.ops.append((kind, params, tuple(ins), tuple(outs)))

    def reg(self, d: int, q: int, depth: int) -> None:
        self.regs.append((d, q, depth))

    def build(self) -> None:
        """Generate ``tick`` with every slot, block state and register zero."""
        vals = [0] * (len(self.slots) + 1)
        ns: dict = {"vals": vals}

        def cell(init) -> int:
            vals.append(init)
            return len(vals) - 1

        def ref(s: int) -> str:
            return f"vals[{s}]" if s else "0"

        def name(value) -> str:  # ns holds vals and the names bound so far
            ns[f"k{len(ns)}"] = value
            return f"k{len(ns) - 1}"

        body = ["\n".join(block_src(
            kind, params, [ref(s) for s in ins], [f"vals[{s}]" for s in outs],
            [f"vals[{cell(v)}]" for v in init_state(kind, params) or ()],
            name)) for kind, params, ins, outs in self.ops]

        # a register whose d is some register's head reads a snapshot, so
        # the order of the shifts cannot matter
        heads = {q for _, q, _ in self.regs}
        snaps, shifts = [], []
        for d, q, depth in self.regs:
            stages = [q] + [cell(0) for _ in range(depth - 1)]
            if d in heads:
                t = cell(0)
                snaps.append(f"vals[{t}] = vals[{d}]")
                d = t
            shifts += [f"vals[{a}] = vals[{b}]"
                       for a, b in zip(stages, stages[1:])]
            shifts.append(f"vals[{stages[-1]}] = {ref(d)}")

        op_calls = _chunked(body, "ops", ns)
        reg_calls = _chunked(snaps + shifts, "regs", ns)
        outs = ", ".join(f"{p!r}: {ref(s)}" for p, s in self.outputs.items())
        src = "\n".join([
            "def tick(in_values):",
            "    get = in_values.get"] + [
            f"    vals[{s}] = get({p!r}, 0)" for p, s in self.inputs.items()] + [
            f"    {c}" for c in op_calls] + [
            f"    out = {{{outs}}}"] + [
            f"    {c}" for c in reg_calls] + [
            "    return out", ""])
        self.tick = exec_generated(src, ns)["tick"]
