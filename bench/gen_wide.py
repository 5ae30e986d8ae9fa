"""Seeded generator for the wide_gen workload: one processor, many tasks.

The design is a single chain: ``src`` feeds ``TASK_t0 .. TASK_t{n-1}`` on
processor ``SW_cpu0``, whose output runs through ``HW_n0 .. HW_n{n-1}`` to
``res``.  Block kinds follow a fixed cyclic pattern and the seed draws every
parameter: gains, quantiser steps, taps, constants, operators and user
functions.  The shape (block, task, node and channel counts, where constants
and delays sit, each node's latency and each task's FSM length) is the same
for every seed of one size, and it sets the cost of compile, level-0 set-up
and the level-3 schedule, so seeds move the benchmark's inputs without
moving what it measures.

The output is ``.fdm`` text, so a benchmark run parses it like a user model.

    python3 bench/gen_wide.py --seed 7 --size 200 > wide.fdm
"""

from __future__ import annotations

import argparse
import random

# Each task gets this many stages and each HW node this many; a stage is
# one block, or two where it needs a constant or a feedback delay.
TASK_STAGES = 3
HW_STAGES = 2
TASK_KINDS = ("gain", "quant", "user", "binconst", "if_else", "fir",
              "for_loop", "delayfb")
HW_KINDS = ("gain", "quant", "fir", "diamond", "mulconst")
UNARY_FNS = ("inc", "dbl", "huff", "clip")
# HW nodes whose index ends in one of these digits hold a user(clip) block,
# which is not pipelineable and makes hwsynth emit a multicycle controller
# instead of a delay-corrected pipeline; level 3 runs ControllerSim for them.
CONTROLLER_DIGITS = (0, 3, 6)


def _task(rng: random.Random, name: str, kinds: list) -> list[str]:
    lines = [f"    subsystem TASK_{name} {{", "      input in; output out;"]
    blocks, links = [], []
    cur = "self.in"
    for i, kind in enumerate(kinds):
        b = f"b{i}"
        if kind == "gain":
            blocks.append(f"block {b} : gain({rng.choice((-3, -2, 2, 3, 5))});")
        elif kind == "quant":
            blocks.append(f"block {b} : quant({rng.choice((2, 3, 5, 7))});")
        elif kind == "user":
            blocks.append(f"block {b} : user({rng.choice(UNARY_FNS)});")
        elif kind == "fir":
            taps = ", ".join(str(rng.randint(-3, 3)) for _ in range(3))
            blocks.append(f"block {b} : fir({taps});")
        elif kind == "for_loop":
            blocks.append(f"block {b} : for_loop(3, {rng.choice(('inc', 'dbl'))});")
        elif kind == "binconst":
            op = rng.choice(("add", "sub", "mul"))
            blocks.append(f"block c{i} : const({rng.randint(-50, 50)});")
            blocks.append(f"block {b} : {op};")
            links.append(f"link {cur} -> {b}.in1;")
            links.append(f"link c{i}.out -> {b}.in2;")
            cur = f"{b}.out"
            continue
        elif kind == "if_else":
            blocks.append(f"block c{i} : const({rng.randint(-5, 5)});")
            blocks.append(f"block {b} : if_else;")
            links.append(f"link {cur} -> {b}.pred;")
            links.append(f"link {cur} -> {b}.a;")
            links.append(f"link c{i}.out -> {b}.b;")
            cur = f"{b}.out"
            continue
        else:  # delayfb: y[n] = x[n] - y[n-1]
            blocks.append(f"block {b} : sub;")
            blocks.append(f"block h{i} : delay(1);")
            links.append(f"link {cur} -> {b}.in1;")
            links.append(f"link h{i}.out -> {b}.in2;")
            links.append(f"link {b}.out -> h{i}.in;")
            cur = f"{b}.out"
            continue
        links.append(f"link {cur} -> {b}.in;")
        cur = f"{b}.out"
    links.append(f"link {cur} -> self.out;")
    lines += [f"      {s}" for s in blocks + links]
    lines.append("    }")
    return lines


def _hw(rng: random.Random, name: str, kinds: list, clip: bool) -> list[str]:
    lines = [f"  subsystem HW_{name} {{", "    input in; output out;"]
    blocks, links = [], []
    cur = "self.in"
    for i, kind in enumerate(kinds):
        u = f"u{i}"
        if kind == "gain":
            blocks.append(f"block {u} : gain({rng.randint(1, 4)});")
            links.append(f"link {cur} -> {u}.in;")
        elif kind == "quant":
            blocks.append(f"block {u} : quant({rng.choice((2, 4))});")
            links.append(f"link {cur} -> {u}.in;")
        elif kind == "fir":
            taps = ", ".join(str(rng.randint(-2, 3)) for _ in range(3))
            blocks.append(f"block {u} : fir({taps});")
            links.append(f"link {cur} -> {u}.in;")
        elif kind == "mulconst":
            blocks.append(f"block k{i} : const({rng.randint(-3, 4)});")
            blocks.append(f"block {u} : mul;")
            links.append(f"link {cur} -> {u}.in1;")
            links.append(f"link k{i}.out -> {u}.in2;")
        else:  # diamond: both operands from the running value
            blocks.append(f"block {u} : {rng.choice(('add', 'sub'))};")
            links.append(f"link {cur} -> {u}.in1;")
            links.append(f"link {cur} -> {u}.in2;")
        cur = f"{u}.out"
    if clip:
        blocks.append("block sat : user(clip);")
        links.append(f"link {cur} -> sat.in;")
        cur = "sat.out"
    links.append(f"link {cur} -> self.out;")
    lines += [f"    {s}" for s in blocks + links]
    lines.append("  }")
    return lines


def generate(seed: int, size: int = 200) -> str:
    """Model text with `size` tasks on one processor and `size` HW nodes."""
    rng = random.Random(seed)
    task_kinds = [TASK_KINDS[i % len(TASK_KINDS)]
                  for i in range(size * TASK_STAGES)]
    hw_kinds = [HW_KINDS[i % len(HW_KINDS)] for i in range(size * HW_STAGES)]

    out = [f"# wide_gen size={size} seed={seed}",
           "model wide_gen {", "  input src;", "  output res;",
           "  subsystem SW_cpu0 {", "    input i0; output o0;"]
    for t in range(size):
        out += _task(rng, f"t{t}",
                     task_kinds[t * TASK_STAGES:(t + 1) * TASK_STAGES])
    out.append("    link self.i0 -> TASK_t0.in;")
    for t in range(1, size):
        out.append(f"    link TASK_t{t - 1}.out -> TASK_t{t}.in;")
    out.append(f"    link TASK_t{size - 1}.out -> self.o0;")
    out.append("  }")
    for n in range(size):
        out += _hw(rng, f"n{n}", hw_kinds[n * HW_STAGES:(n + 1) * HW_STAGES],
                   n % 10 in CONTROLLER_DIGITS)
    out.append("  link self.src -> SW_cpu0.i0;")
    prev = "SW_cpu0.o0"
    for n in range(size):
        out.append(f"  link {prev} -> HW_n{n}.in;")
        prev = f"HW_n{n}.out"
    out.append(f"  link {prev} -> self.res;")
    out.append("}")
    return "\n".join(out) + "\n"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", type=int, default=200)
    args = ap.parse_args()
    print(generate(args.seed, args.size), end="")


if __name__ == "__main__":
    main()
