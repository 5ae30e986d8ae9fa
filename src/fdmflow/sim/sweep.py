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

One emitter, ``_loop``, writes a plan's code, splicing each op's block
template (``model.blocks.block_src``, which expands a template once per
shape and then only fills it in) inline.  ``stream`` cuts the plan into
chunks of about ``CHUNK`` ops, compiled on their own: CPython needs
several KiB of temporary memory per line to compile a function, so one
source for a plan of hundreds of ops would raise the peak memory of a run
for nothing.  Each chunk has two modes.  Level 0 knows its whole
stimulus, so ``run`` calls each chunk once per run on whole input
columns: one loop over all the ticks whose slots, state cells and
register stages are locals.  The hardware models call ``step`` once per
sample: it takes one value per entry of ``inputs`` (the graph inputs a
block reads), calls each chunk once, in order, and returns the
``outputs`` values as a tuple; the chunk's body is the loop's, its
inputs are arguments and its state cells and register stages are cells
of its closure.
"""

from __future__ import annotations

from functools import lru_cache

from ..model.blocks import block_src, init_state, port_names
from ..model.graph import FlatGraph

CHUNK = 48  # ops per generated chunk, or more


# every text of one simulation of the generated 800-task, 800-node design
# (217 over its four levels) stays compiled
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

    def bind(self, fn: str, lines: list[str], args="", cells=()):
        """``fn(args)`` running ``lines``, bound to these values, with
        ``binder``'s ``cells``."""
        return binder(fn, self, lines, cells, args)(*self.values())


class Sweep:
    def __init__(self):
        self.slots: dict = {}  # slot key -> slot number
        self.ops: list[tuple] = []  # (kind, params, in slots, out slots)
        self.regs: list[tuple] = []  # (d slot, q slot, depth)
        self.inputs: dict[str, int] = {}  # port -> slot, step's arguments
        self.outputs: dict[str, int] = {}  # port -> slot, step's results

    def slot(self, key) -> int:
        return self.slots.setdefault(key, len(self.slots) + 1)

    def op(self, kind: str, params: tuple, ins, outs) -> None:
        self.ops.append((kind, params, tuple(ins), tuple(outs)))

    def reg(self, d: int, q: int, depth: int) -> None:
        self.regs.append((d, q, depth))

    def stream(self, sample: bool = False) -> None:
        """Generate ``chunks`` of ``CHUNK`` ops or more (``_loop``); one ends
        only where no register its ops read waits for a later op down its
        chain, and a register lives in the chunk that makes its chain's
        input, else in the first chunk that reads the chain.  So data
        flows only forward between chunks, and calling each once, in
        order, is one tick: with ``sample``, generate instead ``step``,
        which does so on one value per entry of ``inputs`` and returns
        the ``outputs`` values."""
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
        chunks = [_loop(ops, regs, ins, sorted(mine & wanted), sample)
                  for ops, regs, ins, mine in parts if mine]
        if not sample:
            self.chunks = chunks
            return
        ks = Names()
        self.step = ks.bind("step", [
            f"({_vs(outs)}) = {ks(fn)}({_vs(ins)})" for fn, ins, outs in
            chunks] + [f"return ({_vs(self.outputs.values())})"],
            args=_vs(self.inputs.values()))

    def run(self, cols: list, n: int) -> list:
        """The column of each of ``outputs`` over ``n`` ticks from zero,
        given one column of ``n`` values per entry of ``inputs``."""
        have = dict(zip(self.inputs.values(), cols))
        for fn, ins, outs in self.chunks:
            have.update(zip(outs, fn(n, *[have[s] for s in ins])))
        return [have[s] for s in self.outputs.values()]


def _vs(slots) -> str:
    """``v<slot>, `` per slot: the items of a tuple or a call's arguments."""
    return "".join(f"v{s}, " for s in slots)


def _loop(ops, regs, ins, outs, sample=False) -> tuple:
    """(``chunk(n, *columns of ins)``, ``ins``, ``outs``): one loop firing
    ``ops`` and shifting ``regs`` per tick, returning the ``outs`` columns;
    with ``sample``, ``chunk(*ins)`` fires and shifts once and returns the
    ``outs`` values, its block state cells and register stages cells of
    its closure, which start at 0 as every block state does."""
    ks, cells, body, lhs, rhs = Names(), [], [], [], []

    def v(s: int) -> str:
        return f"v{s}" if s else "0"

    def cell() -> str:
        cells.append(f"c{len(cells)}")
        return cells[-1]

    for kind, params, i, o in ops:
        state = [cell() for _ in init_state(kind, params) or ()]
        body += block_src(kind, params, [*map(v, i)], [*map(v, o)], state, ks)
    body += [f"out = ({_vs(outs)})"] if sample else [
        f"a{j}(v{s})" for j, s in enumerate(outs)]
    # every register stage moves in one assignment, so a register reading
    # another's head reads it as it was before this tick's shift
    for d, q, depth in regs:
        cells.append(v(q))
        lhs += [v(q)] + [cell() for _ in range(depth - 1)]
        rhs += lhs[len(lhs) - depth + 1:] + [v(d)]
    if regs:
        body.append(f"{', '.join(lhs)} = {', '.join(rhs)}")
    if sample:
        return ks.bind("chunk", body + ["return out"], _vs(ins), cells), \
            ins, outs
    xs = [f"x{j}" for j in range(len(ins))]
    cols = f"zip({', '.join(xs)})" if len(xs) > 1 else (xs or ["range(n)"])[0]
    head = f"for {', '.join(map(v, ins)) or '_'} in {cols}:"
    return ks.bind("chunk", [f"{c} = 0" for c in cells] + [
        f"o{j} = []; a{j} = o{j}.append" for j in range(len(outs))] + [head] +
        ["    " + ln for ln in body] + [
        f"return ({''.join(f'o{j}, ' for j in range(len(outs)))})"],
        args=", ".join(["n"] + xs)), ins, outs


def plan(flat: FlatGraph, order: list[str], pipes=None, regs=None) -> Sweep:
    """The sweep of ``flat`` firing its blocks in ``order``, to be
    generated per run or per sample (``stream``) before it runs; slots are
    keyed by driving pin, (port,) for a graph input and (path, port) for a
    block output; ``outputs`` follows ``flat.top_outputs``.

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
