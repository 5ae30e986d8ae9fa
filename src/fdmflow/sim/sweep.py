"""The one block-sweep evaluator, generated once per synchronous block graph,
and ``binder``, the one way generated code is built.

Level 0, the RTL cycle model and the FSM controller each build a
``Sweep`` plan from their flat graph with ``plan``, the one builder.  A
plan holds integer value slots (slot 0 always reads zero), the
combinational ops in evaluation order and the registers.  Registers are
FIFOs: per tick every q slot shows its FIFO's head, the ops fire in
order, then every FIFO takes its d slot.  A ``delay(k)`` block is a
register of depth k; at the cycle level an IP's L-stage output pipeline
and a wire's balancing registers are registers too.

Every simulator turns its plan, behavior, FSM state, hardware step or run
loop into straight-line Python, once, through ``binder`` (as
``dataclasses`` and ``namedtuple`` do): the text defines ``bind``, which
returns the function bound to the values it is given by name.
A value of the model, such as a block parameter or a unit name, gets a
name ``kN`` from ``Names``, so a text holds only integers, quoted port
names and names the generator makes up, and texts that differ only in
values are one.  Equal texts are compiled once.

A plan has two drivers; both splice each op's block template
(``model.blocks.block_src``, which expands a template once per shape and
then only fills it in) inline.  ``build`` writes ``tick(x0, x1, ...)``,
which the hardware models call once per sample: it takes one value per
entry of ``inputs`` (the graph inputs a block reads), returns the
``outputs`` slots as a tuple and keeps every slot, block state cell and
register stage in one list ``vals``.  ``stream`` writes the chunks of
``run``, which level 0 calls once per run on whole input columns: each
chunk is one loop over all the ticks whose slots, state cells and
register stages are locals.  The code goes into functions of about
``CHUNK`` ops each, compiled on their own: CPython needs several KiB of
temporary memory per line to compile a function, so one source for a
plan of hundreds of ops would raise the peak memory of a run for nothing.
"""

from __future__ import annotations

from functools import lru_cache

from ..model.blocks import block_src, init_state, port_names
from ..model.graph import FlatGraph

CHUNK = 48  # ops, or register shifts, per generated function


# every text of one simulation of the generated 800-task, 800-node design
# (236 over its four levels) stays compiled
@lru_cache(maxsize=256)
def _code(src: str):
    return compile(src, "<fdmflow generated>", "exec")


def binder(fn: str, params, lines: list[str], cells=(), args=""):
    """``bind(*values)``, generated, which returns the function ``fn(args)``
    running ``lines`` as a closure over ``params`` bound to ``values`` and
    over ``cells``, variables that start at 0 and keep their values from
    call to call; equal texts are compiled once."""
    head = [f"def bind({', '.join(params)}):"] + [
        f"    {c} = 0" for c in cells] + [f"    def {fn}({args}):"]
    if cells:
        head.append(f"        nonlocal {', '.join(cells)}")
    body = "\n        ".join(lines)
    src = "\n".join(head) + f"\n        {body}\n    return {fn}\n"
    ns: dict = {}
    exec(_code(src), ns)
    return ns["bind"]


class Names(dict):
    """The values a generated text is bound to, name -> value.  Calling it
    with a value binds it to a new name ``kN`` and returns the name; an
    equal string shares the name it already has, and no other value
    does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.strings: dict[str, str] = {}

    def __call__(self, value) -> str:
        shared = isinstance(value, str)
        if shared and value in self.strings:
            return self.strings[value]
        name = f"k{len(self)}"  # no other name of a text is k<digits>
        self[name] = value
        if shared:
            self.strings[value] = name
        return name

    def bind(self, fn: str, lines: list[str], args=""):
        """``fn(args)`` running ``lines``, bound to these values."""
        return binder(fn, self, lines, args=args)(*self.values())


class Sweep:
    def __init__(self):
        self.slots: dict = {}  # slot key -> slot number
        self.ops: list[tuple] = []  # (kind, params, in slots, out slots)
        self.regs: list[tuple] = []  # (d slot, q slot, depth)
        self.inputs: dict[str, int] = {}  # port -> slot, tick's arguments
        self.outputs: dict[str, int] = {}  # port -> slot, tick's results

    def slot(self, key) -> int:
        return self.slots.setdefault(key, len(self.slots) + 1)

    def op(self, kind: str, params: tuple, ins, outs) -> None:
        self.ops.append((kind, params, tuple(ins), tuple(outs)))

    def reg(self, d: int, q: int, depth: int) -> None:
        self.regs.append((d, q, depth))

    def build(self) -> None:
        """Generate ``tick`` with every slot, block state and register zero."""
        vals = [0] * (len(self.slots) + 1)

        def cell(init) -> int:
            vals.append(init)
            return len(vals) - 1

        def ref(s: int) -> str:
            return f"vals[{s}]" if s else "0"

        names = Names(vals=vals)  # tick's: vals and a function per chunk

        def chunk(fn: str, i: int, lines: list[str], ks: Names) -> str:
            names[f"{fn}{i // CHUNK}"] = ks.bind(fn, lines, args="vals")
            return f"{fn}{i // CHUNK}(vals)"

        op_calls = []
        for i in range(0, len(self.ops), CHUNK):
            ks, lines = Names(), []  # the chunk's block parameters, its lines
            for kind, params, ins, outs in self.ops[i:i + CHUNK]:
                cells = [cell(v) for v in init_state(kind, params) or ()]
                lines += block_src(kind, params, [ref(s) for s in ins],
                                   [f"vals[{s}]" for s in outs],
                                   [f"vals[{c}]" for c in cells], ks)
            op_calls.append(chunk("ops", i, lines, ks))

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
        moves = snaps + shifts
        reg_calls = [chunk("regs", i, moves[i:i + CHUNK], Names())
                     for i in range(0, len(moves), CHUNK)]

        outs = "".join(f"{ref(s)}, " for s in self.outputs.values())
        self.tick = names.bind("tick", [
            f"vals[{s}] = x{i}" for i, s in enumerate(self.inputs.values())] +
            op_calls + [f"out = ({outs})"] + reg_calls + ["return out"],
            args=", ".join(f"x{i}" for i in range(len(self.inputs))))

    def stream(self) -> None:
        """Generate ``chunks`` of ``CHUNK`` ops or more (``_loop``); one ends
        only where no register its ops read waits for a later op down its
        chain, and a register lives in the chunk that makes its chain's
        input, else in the first chunk that reads the chain."""
        made = {s: i for i, op in enumerate(self.ops) for s in op[3]}
        d_of, roots = {q: d for d, q, _ in self.regs}, {}
        for q in d_of:  # the slot its chain starts from; None on a cycle
            s, seen = q, set()
            while s in d_of and s not in seen and s not in roots:
                seen.add(s)
                s = d_of[s]
            roots[q] = roots[s] if s in roots else None if s in seen else s
        cuts, reach, n, home = [0], -1, len(self.ops), {}
        for i, (_, _, ins, outs) in enumerate(self.ops):
            if CHUNK <= i - cuts[-1] and CHUNK <= n - i and reach < i:
                cuts.append(i)
            home.update(dict.fromkeys(outs, len(cuts) - 1))
            for s in ins:
                if s in roots:
                    home.setdefault(roots[s], len(cuts) - 1)
                    reach = max(reach, made.get(roots[s], -1))
        regs_of = [[] for _ in cuts]  # the registers of each chunk
        for r in self.regs:
            regs_of[home.get(roots[r[1]], 0)].append(r)
        parts = []  # per chunk: ops, registers, slots read, slots made
        for (a, b), regs in zip(zip(cuts, cuts[1:] + [n]), regs_of):
            ops = self.ops[a:b]
            mine = {s for op in ops for s in op[3]} | {q for _, q, _ in regs}
            parts.append((ops, regs, sorted(({s for op in ops for s in op[2]}
                          | {d for d, _, _ in regs}) - mine - {0}), mine))
        wanted = set(self.outputs.values()).union(*[p[2] for p in parts])
        self.chunks = [_loop(ops, regs, ins, sorted(mine & wanted))
                       for ops, regs, ins, mine in parts if mine]

    def run(self, cols: list, n: int) -> list:
        """The column of each of ``outputs`` over ``n`` ticks from zero,
        given one column of ``n`` values per entry of ``inputs``."""
        have = dict(zip(self.inputs.values(), cols))
        for fn, ins, outs in self.chunks:
            have.update(zip(outs, fn(n, *[have[s] for s in ins])))
        return [have[s] for s in self.outputs.values()]


def _loop(ops, regs, ins, outs) -> tuple:
    """(``chunk(n, *columns of ins)``, ``ins``, ``outs``): one loop firing
    ``ops`` and shifting ``regs`` per tick, returning the ``outs`` columns."""
    ks, init, body, lhs, rhs = Names(), [], [], [], []

    def v(s: int) -> str:
        return f"v{s}" if s else "0"

    def cell(value=0) -> str:
        init.append(f"c{len(init)} = {value}")
        return f"c{len(init) - 1}"

    for kind, params, i, o in ops:
        cells = [cell(x) for x in init_state(kind, params) or ()]
        body += block_src(kind, params, [*map(v, i)], [*map(v, o)], cells, ks)
    for j, s in enumerate(outs):
        init += [f"o{j} = []", f"a{j} = o{j}.append"]
        body.append(f"a{j}({v(s)})")
    # every register stage moves in one assignment, so a register reading
    # another's head reads it as it was before this tick's shift
    for d, q, depth in regs:
        init.append(f"{v(q)} = 0")
        lhs += [v(q)] + [cell() for _ in range(depth - 1)]
        rhs += lhs[len(lhs) - depth + 1:] + [v(d)]
    if regs:
        body.append(f"{', '.join(lhs)} = {', '.join(rhs)}")
    xs = [f"x{j}" for j in range(len(ins))]
    head = (f"for {', '.join(map(v, ins)) or '_'}, in "
            f"zip({', '.join(xs) or 'range(n)'}):")
    return ks.bind("chunk", init + [head] + ["    " + ln for ln in body] + [
        f"return ({''.join(f'o{j}, ' for j in range(len(outs)))})"],
        args=", ".join(["n"] + xs)), ins, outs


def plan(flat: FlatGraph, order: list[str], pipes=None, regs=None) -> Sweep:
    """The sweep of ``flat`` firing its blocks in ``order``, to be built
    (``build``) or streamed (``stream``) before it runs; slots are keyed
    by driving pin, (port,) for a graph input and (path, port) for a block
    output; ``outputs`` follows ``flat.top_outputs``.

    ``pipes`` maps a block path to the stages of the pipeline behind each
    of its outputs, and ``regs`` a wire, keyed like ``flat.drivers`` with
    (None, port) for a graph output, to its registers; without them the
    graph runs with zero latency.
    """
    pipes, regs = pipes or {}, regs or {}
    sw = Sweep()

    def read(wire: tuple, driver: tuple) -> int:
        # driver ("top", port) or ("block", path, port)
        s = sw.slot(driver[1:])
        if driver[0] == "top":
            sw.inputs[driver[1]] = s
        if regs.get(wire):
            q = sw.slot(wire + ("regs",))
            sw.reg(s, q, regs[wire])
            s = q
        return s

    for path in order:
        blk = flat.blocks[path]
        ins, outs = port_names(blk.kind, blk.params)
        in_slots = [read((path, p), flat.drivers[(path, p)]) for p in ins]
        out_slots = [sw.slot((path, p)) for p in outs]
        if blk.kind == "delay":
            sw.reg(in_slots[0], out_slots[0], blk.params[0])
            continue
        if pipes.get(path):
            pipe = [sw.slot((path, p, "pipe")) for p in outs]
            for d, q in zip(pipe, out_slots):
                sw.reg(d, q, pipes[path])
            out_slots = pipe
        sw.op(blk.kind, blk.params, in_slots, out_slots)
    sw.outputs = {p: read((None, p), d) for p, d in flat.top_outputs.items()}
    return sw
