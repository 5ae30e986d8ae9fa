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
(as ``dataclasses`` and ``namedtuple`` do).  One list holds every slot,
every block state and every register stage; the generated ``tick`` reads
and writes it by index, makes one call per op to the step function
``block_fn`` bound for that op's block, and then shifts the registers
stage by stage.  ``block_fn`` thus stays the one definition of what a
block does: no block kind has a code template, and the source holds only
integers, ``repr`` strings and names the generator makes up, never a
model identifier.  The ops and the shifts go into functions of ``CHUNK``
lines each, and each is compiled on its own: CPython needs several KiB of
temporary memory per line to compile a function, so one source for a
plan of hundreds of ops would raise the peak memory of a run for nothing.
Equal source texts are compiled once.
"""

from __future__ import annotations

from functools import lru_cache

from ..model.blocks import block_fn, init_state

CHUNK = 48  # generated lines per function


@lru_cache(maxsize=128)
def _code(src: str):
    return compile(src, "<fdmflow generated>", "exec")


def exec_generated(src: str, namespace: dict) -> dict:
    """Run generated source in ``namespace``, compiling each text once."""
    exec(_code(src), namespace)
    return namespace


def _chunked(lines: list[str], name: str, namespace: dict) -> list[str]:
    """Define functions ``name0(vals)``, ``name1``, ... in ``namespace``,
    each running ``CHUNK`` of the lines; return the lines that call them
    in order.  Each function is compiled on its own, so the compiler
    never holds more than one chunk."""
    calls = []
    for i in range(0, len(lines), CHUNK):
        fname = f"{name}{i // CHUNK}"
        exec_generated("\n".join([f"def {fname}(vals):"] + [
            f"    {ln}" for ln in lines[i:i + CHUNK]] + [""]), namespace)
        calls.append(f"{fname}(vals)")
    return calls


def call_src(fn: str, args, outs, st: str | None) -> str:
    """The one statement calling step function ``fn``: ``args``, ``outs``
    and ``st`` are the source of the arguments, the output targets and,
    for a stateful block, the state read and written back (else None).
    Both the sweep and the behavior bodies emit their calls through it."""
    call = f"{fn}(({''.join(a + ', ' for a in args)}), {st})"
    if st:
        return f"({''.join(o + ', ' for o in outs)}), {st} = {call}"
    if len(outs) == 1:
        return f"{outs[0]} = {call}[0][0]"
    return f"{', '.join(outs)} = {call}[0]" if outs else call


class Sweep:
    def __init__(self):
        self.slots: dict = {}  # slot key -> slot number
        self.ops: list[tuple] = []  # (step fn, in slots, out slots, init state)
        self.regs: list[tuple] = []  # (d slot, q slot, depth)
        self.inputs: dict[str, int] = {}  # port name -> slot
        self.outputs: dict[str, int] = {}  # port name -> slot

    def slot(self, key) -> int:
        return self.slots.setdefault(key, len(self.slots) + 1)

    def op(self, kind: str, params: tuple, ins, outs) -> None:
        self.ops.append((block_fn(kind, params), tuple(ins),
                         tuple(outs), init_state(kind, params)))

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

        body = []
        for i, (fn, ins, outs, init) in enumerate(self.ops):
            ns[f"fn{i}"] = fn
            st = f"vals[{cell(init)}]" if init is not None else None
            body.append(call_src(f"fn{i}", [ref(s) for s in ins],
                                 [f"vals[{s}]" for s in outs], st))

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
