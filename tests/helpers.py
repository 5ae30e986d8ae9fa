"""Seeded random model generators, fixed models and test oracles and fakes
shared by the test suite."""

from __future__ import annotations

import importlib.util
import json
import random
from pathlib import Path
from types import SimpleNamespace

from fdmflow.gma.netlist import ColifNetlist, Net
from fdmflow.gma.tree import Module, Port
from fdmflow.hwsynth import HwImpl, RtlGraph, map_rtl_library
from fdmflow.model.graph import Block, Endpoint, Link, ModelGraph, \
    Subsystem, flatten
from fdmflow.sim import sweep
from fdmflow.sim.channels import ChannelRt
from fdmflow.sim.interp import FsmRunner, SimError
from fdmflow.sim.level0 import Level0Sim
from fdmflow.sim.trace import Stimulus, Trace
from fdmflow.swsynth import ADDR_BASE, ADDR_STRIDE, AddrEntry, AddressMap, \
    TaskFsm
from fdmflow.tlm import ChannelSpec, PortRef

UNARY_FNS = ["inc", "dbl", "huff", "clip"]

GEN_WIDE = Path(__file__).resolve().parent.parent / "bench" / "gen_wide.py"


def gen_wide():
    """The benchmark's design generator, ``bench/gen_wide.py``, loaded
    as a module."""
    spec = importlib.util.spec_from_file_location("gen_wide", GEN_WIDE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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

# The two-input user function mix2 in a task, in a HW node (where it has
# no RTL library entry, so the flow needs its cost_cycles parameter) and
# as a testbench block.  mix2 is not symmetric, so a swapped port shows.
MIX2_FDM = """
model mix {
  input a; input b; output y;
  subsystem SW_cpu {
    input a; input b; output out;
    subsystem TASK_mix {
      input a; input b; output out;
      block m : user(mix2);
      link self.a -> m.in1; link self.b -> m.in2; link m.out -> self.out;
    }
    link self.a -> TASK_mix.a; link self.b -> TASK_mix.b;
    link TASK_mix.out -> self.out;
  }
  subsystem HW_mix {
    input p; input q; output out;
    block h : user(mix2); block d : delay(1);
    link self.p -> h.in1; link self.q -> d.in; link d.out -> h.in2;
    link h.out -> self.out;
  }
  block tb : user(mix2);
  link self.a -> SW_cpu.a; link self.b -> SW_cpu.b;
  link SW_cpu.out -> HW_mix.p; link self.b -> HW_mix.q;
  link HW_mix.out -> tb.in1; link self.a -> tb.in2;
  link tb.out -> self.y;
}
"""

# Ports on no channel: the task input `spare` and the HW input `bias` are
# on no link, the task output `probe` ends at the SW_ port `probe` that
# nothing outside reads, the testbench block `tb` writes to nobody, and
# the model input `z` feeds nothing.  Every level runs the rest as if
# those ports were not there.
LOOSE_FDM = """
model loose {
  input x; input z; output y;
  subsystem SW_cpu {
    input a; output out; output probe;
    subsystem TASK_t {
      input a; input spare; output out; output probe;
      block g : gain(3); block d : delay(1); block s : add;
      link self.a -> g.in; link g.out -> d.in;
      link g.out -> s.in1; link d.out -> s.in2;
      link s.out -> self.out; link d.out -> self.probe;
    }
    link self.a -> TASK_t.a; link TASK_t.out -> self.out;
    link TASK_t.probe -> self.probe;
  }
  subsystem HW_h {
    input in; input bias; output out;
    block f : fir(1, 2); block q : quant(3);
    link self.in -> f.in; link f.out -> q.in; link q.out -> self.out;
  }
  block tb : gain(2);
  link self.x -> SW_cpu.a; link SW_cpu.out -> HW_h.in;
  link HW_h.out -> self.y; link self.x -> tb.in;
}
"""

# Model outputs used as link sources: y feeds the testbench gain h, and
# z feeds a task whose stream returns through a HW node to w.  Level 0
# reads an output like any other pin, so every level must follow it.
OUTLINK_FDM = """
model outlink {
  input x; output y; output z; output w;
  block g : gain(3); block h : gain(5);
  subsystem SW_cpu {
    input a; output out;
    subsystem TASK_t {
      input a; output out;
      block f : fir(1, 2); block i : user(inc);
      link self.a -> f.in; link f.out -> i.in; link i.out -> self.out;
    }
    link self.a -> TASK_t.a; link TASK_t.out -> self.out;
  }
  subsystem HW_q {
    input in; output out;
    block d : delay(2); block q : quant(-3);
    link self.in -> d.in; link d.out -> q.in; link q.out -> self.out;
  }
  link self.x -> g.in; link g.out -> self.y;
  link self.y -> h.in; link h.out -> self.z;
  link self.z -> SW_cpu.a; link SW_cpu.out -> HW_q.in;
  link HW_q.out -> self.w;
}
"""

# A pipelined IP (quant, latency 1) feeds a delay inside a HW node: the
# delay adds no latency but passes the quantizer's on, so the node's k
# is 1 and level 3 drops one priming sample.
PIPEDELAY_FDM = """
model pipedelay {
  input x; output w;
  subsystem SW_cpu {
    input a; output out;
    subsystem TASK_t {
      input a; output out;
      block g : gain(2);
      link self.a -> g.in; link g.out -> self.out;
    }
    link self.a -> TASK_t.a; link TASK_t.out -> self.out;
  }
  subsystem HW_q {
    input in; output out;
    block q : quant(3); block d : delay(1);
    link self.in -> q.in; link q.out -> d.in; link d.out -> self.out;
  }
  link self.x -> SW_cpu.a; link SW_cpu.out -> HW_q.in;
  link HW_q.out -> self.w;
}
"""

# A pipelined IP (quant, latency 1) on a loop closed by a delay inside a
# HW node: its output pipeline would lengthen the loop's lag, so the node
# runs as the FSM controller, which runs the loop at zero latency.
ACCLOOP_FDM = """
model accloop {
  input x; output y;
  subsystem SW_cpu {
    input a; output out;
    subsystem TASK_t {
      input a; output out;
      block g : gain(2);
      link self.a -> g.in; link g.out -> self.out;
    }
    link self.a -> TASK_t.a; link TASK_t.out -> self.out;
  }
  subsystem HW_acc {
    input in; output out;
    block add : add; block quant : quant(1); block delay : delay(1);
    link self.in -> add.in1; link add.out -> quant.in;
    link quant.out -> delay.in; link delay.out -> add.in2;
    link quant.out -> self.out;
  }
  link self.x -> SW_cpu.a; link SW_cpu.out -> HW_acc.in;
  link HW_acc.out -> self.y;
}
"""

# Micro units sending to several readers: TASK_a feeds HW_p and HW_q, and
# HW_p feeds the output y and TASK_b.
FANOUT_FDM = """
model fanout {
  input x; output y; output z; output w;
  subsystem SW_cpu {
    input a; input b; output o1; output o2;
    subsystem TASK_a {
      input a; output out;
      block g : gain(3);
      link self.a -> g.in; link g.out -> self.out;
    }
    subsystem TASK_b {
      input b; output out;
      block i : user(inc);
      link self.b -> i.in; link i.out -> self.out;
    }
    link self.a -> TASK_a.a; link TASK_a.out -> self.o1;
    link self.b -> TASK_b.b; link TASK_b.out -> self.o2;
  }
  subsystem HW_p {
    input in; output out;
    block f : fir(1, 2);
    link self.in -> f.in; link f.out -> self.out;
  }
  subsystem HW_q {
    input in; output out;
    block q : quant(3);
    link self.in -> q.in; link q.out -> self.out;
  }
  link self.x -> SW_cpu.a;
  link SW_cpu.o1 -> HW_p.in; link SW_cpu.o1 -> HW_q.in;
  link HW_p.out -> self.y; link HW_p.out -> SW_cpu.b;
  link SW_cpu.o2 -> self.z; link HW_q.out -> self.w;
}
"""


# A user block with no RTL entry, nested in a subsystem of a HW_ node: the
# node's IP is named by the block's path in the node's flat graph, inner/u.
NESTED_HW_FDM = """
model nest {
  input x; output y;
  subsystem HW_n {
    input i; output o;
    subsystem inner {
      input a; output b;
      block u : user(inc);
      link self.a -> u.in; link u.out -> self.b;
    }
    link self.i -> inner.a; link inner.b -> self.o;
  }
  link self.x -> HW_n.i; link HW_n.o -> self.y;
}
"""

# One of each element the netlist names: a block task placed directly in
# an SW_ node next to a TASK_ subsystem, IPs nested in a subsystem of a
# HW_ node, an explicit CHAN_, a testbench block and a testbench
# subsystem.
ELEMENTS_FDM = """
model elems {
  input x; output y; output z;
  block pre : gain(2);
  subsystem bench {
    input in; output out;
    block d : delay(1); block i : user(inc);
    link self.in -> d.in; link d.out -> i.in; link i.out -> self.out;
  }
  subsystem SW_cpu {
    input a; output out;
    block g : gain(3);
    subsystem TASK_t {
      input in; output out;
      block q : quant(2);
      link self.in -> q.in; link q.out -> self.out;
    }
    link self.a -> g.in; link g.out -> TASK_t.in; link TASK_t.out -> self.out;
  }
  subsystem CHAN_c {
    param topology = "point_to_point";
    param depth = 3;
    input in; output out;
  }
  subsystem HW_n {
    input i; output o;
    subsystem inner {
      input a; output b;
      block f : fir(1, 2); block s : add;
      link self.a -> f.in; link f.out -> s.in1; link self.a -> s.in2;
      link s.out -> self.b;
    }
    block r : quant(3);
    link self.i -> inner.a; link inner.b -> r.in; link r.out -> self.o;
  }
  link self.x -> pre.in; link pre.out -> SW_cpu.a;
  link SW_cpu.out -> CHAN_c.in; link CHAN_c.out -> HW_n.i;
  link HW_n.o -> bench.in; link bench.out -> self.y;
  link HW_n.o -> self.z;
}
"""

# An if_else in a task and one in a HW_ node, each predicated on
# quant(512) of its input, which is zero on about half of the default
# stimulus (uniform over -1024..1023).  The task sends 3 * x where
# |x| >= 512, else x, so the HW node's predicate is zero exactly where the
# task's is, and y is -3 * x or x.
IFELSE_FDM = """
model ifelse {
  input x; output y;
  subsystem SW_cpu {
    input i; output o;
    subsystem TASK_sel {
      input in; output out;
      block q : quant(512); block g : gain(3); block s : if_else;
      link self.in -> q.in; link self.in -> g.in;
      link q.out -> s.pred; link g.out -> s.a; link self.in -> s.b;
      link s.out -> self.out;
    }
    link self.i -> TASK_sel.in; link TASK_sel.out -> self.o;
  }
  subsystem HW_pick {
    input in; output out;
    block q : quant(512); block n : gain(-1); block s : if_else;
    link self.in -> q.in; link self.in -> n.in;
    link q.out -> s.pred; link n.out -> s.a; link self.in -> s.b;
    link s.out -> self.out;
  }
  link self.x -> SW_cpu.i; link SW_cpu.o -> HW_pick.in;
  link HW_pick.out -> self.y;
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


def add_loose_ports(rng: random.Random, g: ModelGraph) -> None:
    """Give one random task and one random HW node of a
    ``rand_partitioned_model`` design an input on no link and an output
    that nothing outside reads, and maybe add a testbench block that
    writes to nobody.  A task's output goes on to an SW_ port that nothing
    reads, or nowhere.  Each output is driven by one of the unit's blocks,
    or by nothing, which validation must reject."""
    sw = g.subsystems[0]
    hw = [s for s in g.subsystems if s.id.startswith("HW_")]
    for unit in (rng.choice(sw.subsystems), rng.choice(hw)):
        unit.inputs.append("loose_in")
        unit.outputs.append("loose_out")
        if rng.random() < 0.8:
            blk = rng.choice(unit.blocks)
            unit.links.append(_link(blk.id, "out", "self", "loose_out"))
        if unit in sw.subsystems and rng.random() < 0.5:
            sw.outputs.append("loose_out")
            sw.links.append(_link(unit.id, "loose_out", "self", "loose_out"))
    if rng.random() < 0.5:  # a testbench block that writes to nobody
        g.blocks.append(Block("loose_tb", "gain", (2,)))
        g.links.append(_link("self", "src", "loose_tb", "in"))


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


# ---------------------------------------------------------------------------
# oracles and fakes


def walk(module: Module):
    """A netlist module and all its descendants, depth first."""
    yield module
    for c in module.children:
        yield from walk(c)


def port_of(module, name: str):
    for p in module.ports:
        if p.name == name:
            return p
    return None


MODULE_KINDS = ("top", "sw_node", "hw_node", "task", "ip", "channel_adapter")


def validate_netlist(n: ColifNetlist) -> list[str]:
    """Structural checks; returns human-readable problems.

    A net's endpoints run producer first.  The net enters a module by an
    input port and leaves one by an output port: only the producer enters
    the top module, by a model input, and a net leaves a module only once
    it is inside, when the producer lies within or it entered earlier."""
    problems = []
    paths = {}
    for path, m in n.modules():
        if path in paths:
            problems.append(f"duplicate module path {path}")
        paths[path] = m
        if m.kind not in MODULE_KINDS:
            problems.append(f"{path}: unknown module kind {m.kind!r}")
        seen = set()
        for p in m.ports:
            if p.name in seen:
                problems.append(f"{path}: duplicate port {p.name}")
            seen.add(p.name)
            if p.direction not in ("in", "out"):
                problems.append(f"{path}.{p.name}: bad direction {p.direction!r}")
    for net in n.nets:
        if not net.endpoints:
            problems.append(f"net {net.name}: no endpoints")
            continue
        producer = net.endpoints[0].rpartition(".")[0]
        entered = set()
        for i, ep in enumerate(net.endpoints):
            mpath, _, port = ep.rpartition(".")
            m = paths.get(mpath)
            p = port_of(m, port) if m is not None else None
            if m is None:
                problems.append(f"net {net.name}: no module {mpath}")
            elif p is None:
                problems.append(f"net {net.name}: no port {ep}")
            elif p.direction == "in":
                if (m is n.top) == (i > 0):
                    problems.append(f"net {net.name}: enters {mpath} by "
                                    f"input {port} out of turn")
                entered.add(mpath)
            elif not (producer == mpath or producer.startswith(mpath + "/")
                      or mpath in entered):
                problems.append(f"net {net.name}: leaves {mpath} by output "
                                f"{port} without entering it")
    return problems


class NetlistError(Exception):
    pass


def _module_from(doc: dict) -> Module:
    return Module(doc["name"], doc["kind"],
                  [Port(**p) for p in doc["ports"]],
                  dict(doc["params"]),
                  [_module_from(c) for c in doc["children"]])


def parse_netlist_json(text: str) -> ColifNetlist:
    """Read back a netlist that ``netlist_to_json`` wrote."""
    try:
        doc = json.loads(text)
        top = _module_from(doc["top"])
        nets = [Net(x["name"], list(x["endpoints"])) for x in doc["nets"]]
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise NetlistError(f"malformed netlist file: {e}") from None
    return ColifNetlist(top, nets)


def wrap32(x: int) -> int:
    """Reduce an integer to 32-bit two's complement."""
    return ((x + 0x80000000) & 0xFFFFFFFF) - 0x80000000


# The user functions as the README's table states them, written apart
# from their templates in ``USER_FUNCTIONS``: name -> fn(*inputs) ->
# outputs, each wrapped by ``reference_step``.
REFERENCE_FUNCTIONS = {
    "inc": lambda x: (x + 1,),
    "dbl": lambda x: (2 * x,),
    "huff": lambda x: ((x << 3) ^ (x >> 2) ^ 0x2B,),
    "clip": lambda x: (min(max(x, -2**20), 2**20 - 1),),
    "frame_reader": lambda x: (x ^ 0x55,),
    "pcm_writer": lambda x: (x,),
    "mix2": lambda a, b: (a + b - (b >> 1),),
}


def _quant(v: int, step: int) -> int:
    q = abs(v) // abs(step)
    if (v < 0) != (step < 0):
        q = -q
    return wrap32(q * step)


def reference_step(kind, params, inputs, state):
    """Fire one block for one tick: pure (inputs, state) -> (outputs,
    state').  An oracle written apart from the block templates, which
    every simulator splices."""
    x = inputs[0] if inputs else 0
    if kind == "const":
        return (wrap32(params[0]),), state
    if kind in ("add", "sub", "mul"):
        a, b = inputs
        return (wrap32(a + b if kind == "add" else a - b if kind == "sub"
                       else a * b),), state
    if kind == "gain":
        return (wrap32(params[0] * x),), state
    if kind == "delay":
        return (state[0],), state[1:] + (x,)
    if kind == "fir":
        acc = params[0] * x + sum(c * h for c, h in zip(params[1:], state))
        return (wrap32(acc),), ((x,) + state[:-1] if state else state)
    if kind == "quant":
        return (_quant(x, params[0]),), state
    if kind == "if_else":
        return (inputs[1] if inputs[0] != 0 else inputs[2],), state
    if kind == "for_loop":
        n, fname = params
        for _ in range(n):
            x = wrap32(REFERENCE_FUNCTIONS[fname](x)[0])
        return (x,), state
    if kind == "mux":
        return (inputs[1 + inputs[0] % params[0]],), state
    if kind == "demux":
        sel = inputs[0] % params[0]
        return tuple(inputs[1] if i == sel else 0
                     for i in range(params[0])), state
    if kind == "user":
        return tuple(wrap32(v) for v in
                     REFERENCE_FUNCTIONS[params[0]](*inputs)), state
    if kind == "sink":
        return (), state
    raise ValueError(f"unknown block kind {kind!r}")


def as_model(sub: Subsystem) -> ModelGraph:
    """A hardware node's subsystem on its own, as a model."""
    return ModelGraph(sub.id, blocks=sub.blocks, subsystems=sub.subsystems,
                      links=sub.links, inputs=sub.inputs, outputs=sub.outputs)


def level0(g: ModelGraph) -> Level0Sim:
    """``g``'s level-0 simulator, from a fresh ``flatten`` of ``g``; the
    flow builds it from the flat graph its gate made."""
    return Level0Sim(flatten(g), g.name)


def map_node(sub: Subsystem, costs: dict | None = None) -> RtlGraph:
    """``map_rtl_library`` of a hardware node's subsystem on its own."""
    return map_rtl_library(sub.id, flatten(as_model(sub)), costs)


def total_registers(impl: HwImpl) -> int:
    """Balancing registers of a pipelined node."""
    return sum(impl.graph.regs.values())


def counted_chunks(monkeypatch) -> list:
    """A list that gets the ops of each chunk a sweep generates."""
    made, loop = [], sweep._loop

    def counted(ops, *args):
        made.append(ops)
        return loop(ops, *args)

    monkeypatch.setattr(sweep, "_loop", counted)
    return made


def hw_stream(step, stim: Stimulus, n: int) -> Trace:
    """Outputs of n calls of an RtlCycleSim's step or a ControllerSim's
    fire on the stimulus's columns, call i recorded at time i."""
    sw = step.__self__.sweep
    cols = [stim.column(p, n) for p in sw.inputs]
    tr = Trace({})
    for i, xs in enumerate(zip(*cols) if cols else [()] * n):
        for p, v in zip(sw.outputs, step(*xs)):
            tr.record(p, i, v)
    return tr


def channel(port: str, reader: str, values=(), depth: int = 1 << 20):
    """A channel from ``w.port`` to ``reader.port`` already holding
    ``values``; the default depth never fills in a test."""
    ch = ChannelRt(ChannelSpec(port, "point_to_point", [PortRef("w", port)],
                               [PortRef(reader, port)], depth))
    for v in values:
        ch.push(v)
    return ch


def bind_queues(unit, inputs: dict) -> tuple[dict, dict]:
    """Channel bindings (cons, prod) of the ports of ``unit``, a behavior
    or FSM: each input holds its values in ``inputs`` (none if absent),
    and each output is read by ``r`` (see ``sent``)."""
    return ({p: (channel(p, "t", inputs.get(p, ())), ("t", p))
             for p in unit.in_ports},
            {p: channel(p, "r") for p in unit.out_ports})


def sent(prod: dict) -> dict:
    """The values sent on each output bound by ``bind_queues``."""
    return {p: list(ch.queues[("r", p)]) for p, ch in prod.items()}


def bus_counter() -> SimpleNamespace:
    """A charge target for a micro FSM run alone."""
    return SimpleNamespace(bus_transactions=0)


def standalone_address_map(fsm: TaskFsm, unit_path: str) -> AddressMap:
    """An address map for one task lowered on its own."""
    entries = []
    base = ADDR_BASE
    for p in fsm.in_ports + fsm.out_ports:
        entries.append(AddrEntry("standalone", f"{unit_path}.{p}", base))
        base += ADDR_STRIDE
    return AddressMap(entries)


def run_task(fsm: TaskFsm, inputs: dict, max_steps: int = 1_000_000) -> dict:
    """Step one task FSM, at either API level, until it blocks on exhausted
    inputs; returns its outputs."""
    cons, prod = bind_queues(fsm, inputs)
    runner = FsmRunner(fsm, cons, prod, bus_counter())
    steps = 0
    while runner.step():
        steps += 1
        if steps > max_steps:
            raise SimError("task did not quiesce; body without channel reads?")
    return sent(prod)
