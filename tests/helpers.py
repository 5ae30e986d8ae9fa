"""Seeded random model generators and fixed models shared by the test suite."""

from __future__ import annotations

import random

from fdmflow.model.graph import Block, Endpoint, Link, ModelGraph, Subsystem

UNARY_FNS = ["inc", "dbl", "huff", "clip"]

# A SW task adds its input to a feedback value that returns through a
# hardware node holding a delay(1): valid at level 0 because the delay
# breaks the loop, so every level must run it.
FEEDBACK_FDM = """
model feedback {
  input x; output y;
  subsystem SW_cpu {
    input a; input b; output out;
    subsystem TASK_sum {
      input a; input b; output out;
      block s : add;
      link self.a -> s.in1; link self.b -> s.in2; link s.out -> self.out;
    }
    link self.a -> TASK_sum.a; link self.b -> TASK_sum.b;
    link TASK_sum.out -> self.out;
  }
  subsystem HW_reg {
    input in; output out;
    block d : delay(1);
    link self.in -> d.in; link d.out -> self.out;
  }
  link self.x -> SW_cpu.a;
  link SW_cpu.out -> HW_reg.in;
  link HW_reg.out -> SW_cpu.b;
  link SW_cpu.out -> self.y;
}
"""


def _link(src_blk, src_port, dst_blk, dst_port):
    return Link(Endpoint(src_blk, src_port), Endpoint(dst_blk, dst_port))


def rand_task_subsystem(rng: random.Random, name: str,
                        allow_stateful: bool = True) -> Subsystem:
    """TASK_ subsystem with input `in`, output `out`, 1..4 chained blocks."""
    sub = Subsystem(f"TASK_{name}", inputs=["in"], outputs=["out"])
    cur = ("self", "in")
    n = rng.randint(1, 4)
    for i in range(n):
        choices = ["gain", "quant", "user", "binconst", "if_else"]
        if allow_stateful:
            choices += ["fir", "for_loop", "delayfb"]
        kind = rng.choice(choices)
        bid = f"b{i}"
        if kind == "gain":
            sub.blocks.append(Block(bid, "gain", (rng.randint(-4, 5) or 3,)))
            sub.links.append(_link(cur[0], cur[1], bid, "in"))
            cur = (bid, "out")
        elif kind == "quant":
            sub.blocks.append(Block(bid, "quant", (rng.choice([2, 3, 5, 7]),)))
            sub.links.append(_link(cur[0], cur[1], bid, "in"))
            cur = (bid, "out")
        elif kind == "user":
            sub.blocks.append(Block(bid, "user", (rng.choice(UNARY_FNS),)))
            sub.links.append(_link(cur[0], cur[1], bid, "in"))
            cur = (bid, "out")
        elif kind == "fir":
            taps = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4)))
            sub.blocks.append(Block(bid, "fir", taps))
            sub.links.append(_link(cur[0], cur[1], bid, "in"))
            cur = (bid, "out")
        elif kind == "for_loop":
            sub.blocks.append(Block(bid, "for_loop",
                                    (rng.randint(1, 5),
                                     rng.choice(["inc", "dbl"]))))
            sub.links.append(_link(cur[0], cur[1], bid, "in"))
            cur = (bid, "out")
        elif kind == "binconst":
            cid = f"c{i}"
            sub.blocks.append(Block(cid, "const", (rng.randint(-50, 50),)))
            op = rng.choice(["add", "sub", "mul"])
            sub.blocks.append(Block(bid, op))
            sub.links.append(_link(cur[0], cur[1], bid, "in1"))
            sub.links.append(_link(cid, "out", bid, "in2"))
            cur = (bid, "out")
        elif kind == "if_else":
            cid = f"c{i}"
            sub.blocks.append(Block(cid, "const", (rng.randint(-5, 5),)))
            sub.blocks.append(Block(bid, "if_else"))
            sub.links.append(_link(cur[0], cur[1], bid, "pred"))
            sub.links.append(_link(cur[0], cur[1], bid, "a"))
            sub.links.append(_link(cid, "out", bid, "b"))
            cur = (bid, "out")
        else:  # delayfb: y[n] = x[n] - y[n-1]
            hid = f"h{i}"
            sub.blocks.append(Block(bid, "sub"))
            sub.blocks.append(Block(hid, "delay", (1,)))
            sub.links.append(_link(cur[0], cur[1], bid, "in1"))
            sub.links.append(_link(hid, "out", bid, "in2"))
            sub.links.append(_link(bid, "out", hid, "in"))
            cur = (bid, "out")
    sub.links.append(_link(cur[0], cur[1], "self", "out"))
    return sub


def rand_hw_subsystem(rng: random.Random, name: str,
                      force_controller: bool = False) -> Subsystem:
    """HW_ subsystem; a user(clip) block forces the controller fallback."""
    sub = Subsystem(f"HW_{name}", inputs=["in"], outputs=["out"])
    cur = ("self", "in")
    n = rng.randint(1, 4)
    ctrl_at = rng.randrange(n) if force_controller else -1
    for i in range(n):
        bid = f"u{i}"
        if i == ctrl_at:
            sub.blocks.append(Block(bid, "user", ("clip",)))
            sub.links.append(_link(cur[0], cur[1], bid, "in"))
            cur = (bid, "out")
            continue
        kind = rng.choice(["gain", "quant", "fir", "binary", "mul"])
        if kind == "gain":
            sub.blocks.append(Block(bid, "gain", (rng.randint(1, 4),)))
            sub.links.append(_link(cur[0], cur[1], bid, "in"))
        elif kind == "quant":
            sub.blocks.append(Block(bid, "quant", (rng.choice([2, 4]),)))
            sub.links.append(_link(cur[0], cur[1], bid, "in"))
        elif kind == "fir":
            taps = tuple(rng.randint(-2, 3) for _ in range(rng.randint(2, 4)))
            sub.blocks.append(Block(bid, "fir", taps))
            sub.links.append(_link(cur[0], cur[1], bid, "in"))
        elif kind == "mul":
            cid = f"k{i}"
            sub.blocks.append(Block(cid, "const", (rng.randint(-3, 4),)))
            sub.blocks.append(Block(bid, "mul"))
            sub.links.append(_link(cur[0], cur[1], bid, "in1"))
            sub.links.append(_link(cid, "out", bid, "in2"))
        else:
            op = rng.choice(["add", "sub"])
            sub.blocks.append(Block(bid, op))
            # diamond: both operands from the running value
            sub.links.append(_link(cur[0], cur[1], bid, "in1"))
            sub.links.append(_link(cur[0], cur[1], bid, "in2"))
        cur = (bid, "out")
    sub.links.append(_link(cur[0], cur[1], "self", "out"))
    return sub


def rand_partitioned_model(rng: random.Random, name: str = "rand",
                           max_tasks: int = 3, max_hw: int = 2) -> ModelGraph:
    """Feedforward partitioned design: source -> SW tasks -> HW chain -> sink."""
    g = ModelGraph(name, inputs=["src"], outputs=["res"])
    sw = Subsystem("SW_cpu0", inputs=["i0"], outputs=["o0"])
    tasks = [rand_task_subsystem(rng, f"t{i}")
             for i in range(rng.randint(1, max_tasks))]
    sw.subsystems = tasks
    sw.links.append(_link("self", "i0", tasks[0].id, "in"))
    for a, b in zip(tasks, tasks[1:]):
        sw.links.append(_link(a.id, "out", b.id, "in"))
    sw.links.append(_link(tasks[-1].id, "out", "self", "o0"))
    g.subsystems.append(sw)

    n_hw = rng.randint(1, max_hw)
    hw = [rand_hw_subsystem(rng, f"n{i}",
                            force_controller=rng.random() < 0.3)
          for i in range(n_hw)]
    g.subsystems.extend(hw)

    use_tb = rng.random() < 0.5
    if use_tb:
        g.blocks.append(Block("feed", "user", (rng.choice(UNARY_FNS),)))
        g.links.append(_link("self", "src", "feed", "in"))
        g.links.append(_link("feed", "out", sw.id, "i0"))
    else:
        g.links.append(_link("self", "src", sw.id, "i0"))

    prev = (sw.id, "o0")
    if rng.random() < 0.4:
        chan = Subsystem("CHAN_c0", inputs=["in"], outputs=["out"],
                         params={"topology": "point_to_point",
                                 "depth": rng.randint(1, 3)})
        g.subsystems.append(chan)
        g.links.append(_link(prev[0], prev[1], "CHAN_c0", "in"))
        prev = ("CHAN_c0", "out")
    for h in hw:
        g.links.append(_link(prev[0], prev[1], h.id, "in"))
        prev = (h.id, "out")
    g.links.append(_link(prev[0], prev[1], "self", "res"))
    return g


def rand_pipeline_node(rng: random.Random, name: str = "HW_p",
                       max_blocks: int = 10):
    """All-pipelined hardware subsystem plus random latency overrides 0..4."""
    sub = Subsystem(name, inputs=["in"], outputs=["out"])
    sources = [("self", "in")]
    n = rng.randint(1, max_blocks)
    costs = {}
    for i in range(n):
        bid = f"n{i}"
        kind = rng.choice(["gain", "quant", "add", "sub", "mul", "const"])
        if kind == "const":
            sub.blocks.append(Block(bid, "const", (rng.randint(-9, 9),)))
        elif kind in ("gain", "quant"):
            p = rng.randint(1, 5)
            sub.blocks.append(Block(bid, kind, (p,)))
            s = rng.choice(sources)
            sub.links.append(_link(s[0], s[1], bid, "in"))
        else:
            sub.blocks.append(Block(bid, kind))
            for port in ("in1", "in2"):
                s = rng.choice(sources)
                sub.links.append(_link(s[0], s[1], bid, port))
        costs[bid] = rng.randint(0, 4)
        sources.append((bid, "out"))
    last = sources[-1] if sources[-1][0] != "self" else sources[0]
    sub.links.append(_link(last[0], last[1], "self", "out"))
    return sub, costs


def rand_loopy_model(rng: random.Random, name: str = "loopy",
                     max_blocks: int = 10) -> ModelGraph:
    """Random graph that may contain combinational cycles."""
    g = ModelGraph(name, inputs=["x"], outputs=["y"])
    n = rng.randint(2, max_blocks)
    kinds = []
    for i in range(n):
        bid = f"g{i}"
        kind = rng.choice(["add", "gain", "delay", "sub"])
        if kind == "gain":
            g.blocks.append(Block(bid, "gain", (2,)))
        elif kind == "delay":
            g.blocks.append(Block(bid, "delay", (rng.randint(1, 2),)))
        else:
            g.blocks.append(Block(bid, kind))
        kinds.append(kind)
    ids = [b.id for b in g.blocks]

    def any_source():
        return rng.choice([("self", "x")] + [(i, "out") for i in ids])

    for bid, kind in zip(ids, kinds):
        ports = ("in1", "in2") if kind in ("add", "sub") else ("in",)
        for p in ports:
            s = any_source()
            g.links.append(_link(s[0], s[1], bid, p))
    s = any_source()
    g.links.append(_link(s[0], s[1], "self", "y"))
    return g
