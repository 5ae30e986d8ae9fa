import gc
import hashlib
import importlib.resources as ir
import random
import weakref

import pytest

import fdmflow.flow
from fdmflow.flow import FlowError, compile_design, default_stimulus, \
    run_flow, simulate
from fdmflow.gma import emit_netlist, emit_param_templates
from fdmflow.gma.behavior import DELAY_EMIT, DELAY_PUSH, Assign, Call, Loop, \
    Recv, Send, TaskBehavior
from fdmflow.hwsynth import emit_rtl_text
from fdmflow.model.parser import parse_model
from fdmflow.model.validate import validate_model
from fdmflow.sim import sweep
from fdmflow.sim.channels import ChannelRt
from fdmflow.sim.engine import Engine
from fdmflow.sim.interp import FsmRunner, SimError, behavior_coroutine
from fdmflow.sim.level0 import Level0Sim
from fdmflow.sim.trace import PortSetMismatch, Stimulus, Trace, compare_traces
from fdmflow.swsynth import GReady, TaskFsm, Transition, build_task_fsm, \
    lower_api
from fdmflow.tlm import ChannelSpec, PortRef, recognize_partition, \
    validate_partition

import helpers
from helpers import ACCLOOP_FDM, FANOUT_FDM, FEEDBACK_FDM, IFELSE_FDM, \
    LOOSE_FDM, MIX2_FDM, OUTLINK_FDM, PIPEDELAY_FDM, add_loose_ports, bind_queues, bus_counter, \
    rand_loopy_model, rand_partitioned_model, sent, standalone_address_map, \
    wrap32


def mini_model():
    text = (ir.files("fdmflow") / "models" / "mini_codec.fdm").read_text()
    return parse_model(text)


def mini_compiled():
    return compile_design(mini_model())


# a multi-output block inside a HW node: each consumer reads its own port
DEMUX_FDM = """
model split {
  input x; output y;
  subsystem HW_split {
    input in; output out;
    block dm : demux(2);
    block g3 : gain(3);
    block g5 : gain(5);
    block sum : add;
    link self.in -> dm.sel; link self.in -> dm.in;
    link dm.out0 -> g3.in; link dm.out1 -> g5.in;
    link g3.out -> sum.in1; link g5.out -> sum.in2;
    link sum.out -> self.out;
  }
  link self.x -> HW_split.in;
  link HW_split.out -> self.y;
}
"""


# a HW node reads a top-level constant, whose testbench unit blocks on
# send for ever once the node stops consuming
CONSTFED_FDM = """
model constfed {
  input x; output y;
  block c : const(7);
  subsystem HW_m {
    input a; input b; output out;
    block m : mul;
    link self.a -> m.in1; link self.b -> m.in2; link m.out -> self.out;
  }
  link self.x -> HW_m.a; link c.out -> HW_m.b; link HW_m.out -> self.y;
}
"""


class TestChannelRt:
    def _spec(self, depth=1, consumers=("c1",)):
        return ChannelSpec("ch", "multipoint", [PortRef("p", "out")],
                           [PortRef(c, "in") for c in consumers],
                           fifo_depth=depth)

    def test_depth_bound(self):
        ch = ChannelRt(self._spec(depth=2))
        assert ch.can_push()
        ch.push(1)
        ch.push(2)
        assert not ch.can_push()
        assert ch.queues[("c1", "in")].popleft() == 1
        assert ch.can_push()

    def test_broadcast(self):
        ch = ChannelRt(self._spec(consumers=("c1", "c2")))
        ch.push(7)
        assert not ch.can_push()  # both queues must drain
        assert ch.queues[("c1", "in")].popleft() == 7
        assert not ch.can_push()
        assert ch.queues[("c2", "in")].popleft() == 7
        assert ch.can_push()

    def test_status_bits(self):
        """A status poll reads its not-empty bit as ``can_pop`` of the
        consumer's queue and its not-full bit as ``can_push``."""
        ch = ChannelRt(self._spec(depth=1))
        key = ("c1", "in")
        assert (ch.can_pop(key), ch.can_push()) == (False, True)
        ch.push(5)
        assert (ch.can_pop(key), ch.can_push()) == (True, False)

    def test_push_into_full_channel_raises(self):
        ch = ChannelRt(self._spec(depth=1))
        ch.push(5)
        with pytest.raises(SimError, match="full"):
            ch.push(6)


class TestInterpreters:
    # shapes no generated mini_codec behavior holds: a loop whose body
    # receives, an if_else, a delay emit/push pair and a two-output call
    SHAPES = TaskBehavior("t", "merged", ("a", "b"), ("o1", "o2"), [
        Recv("a", "x"),
        Call(DELAY_EMIT, "delay", (2,), (), ("d",), "dl"),
        Assign("acc", 0),
        Loop(3, [Recv("b", "y"),
                 Call("add", "add", (), ("acc", "y"), ("acc",))], "L0"),
        Call("demux", "demux", (2,), ("x", "acc"), ("p", "q")),
        Assign("c7", 7),
        Call("if_else", "if_else", (), ("x", "acc", "c7"), ("r",)),
        Call("add", "add", (), ("r", "d"), ("s",)),
        Call(DELAY_PUSH, "delay", (2,), ("s",), (), "dl"),
        Send("o1", "s"),
        Send("o2", "q"),
    ], {"dl": (0, 0)})
    INPUTS = {"a": [3, 0, -7, 6, 1], "b": list(range(-7, 8))}
    EXPECTED = {"o1": [-18, 7, -18, 16, 0], "o2": [-18, 0, 0, 0, 18]}

    def _coroutine_outputs(self):
        """Run the behavior bound to channels that hold all its input and
        have room for all its output, until a step moves nothing."""
        cons, prod = bind_queues(self.SHAPES, self.INPUTS)
        gen = behavior_coroutine(self.SHAPES, cons, prod)
        while next(gen):
            pass
        return sent(prod)

    def _fsm_outputs(self, fsm, inputs=INPUTS):
        """The outputs and the status polls: the bus transactions that
        moved no sample (a macro FSM makes none)."""
        cons, prod = bind_queues(fsm, inputs)
        bus = bus_counter()
        runner = FsmRunner(fsm, cons, prod, bus)
        while runner.step():
            pass
        moved = sum(ch.popped for ch, _ in cons.values()) + \
            sum(ch.pushed for ch in prod.values())
        micro = fsm.api_level == "micro"
        return sent(prod), bus.bus_transactions - micro * moved

    def test_three_interpreters_agree(self):
        assert self._coroutine_outputs() == self.EXPECTED
        macro = build_task_fsm(self.SHAPES)
        assert self._fsm_outputs(macro) == (self.EXPECTED, 0)
        micro = lower_api(macro, standalone_address_map(macro, "u"), "u")
        # five iterations of one poll per recv and per send, plus the
        # failed poll on the exhausted input
        assert self._fsm_outputs(micro) == (self.EXPECTED, 31)

    # ports, variables, state keys and a loop id named like the locals and
    # parameters of the generated code, or as a Python keyword; "st0" is
    # both a variable and a state key, and "w" is the templates' own local
    HOSTILE = TaskBehavior("t", "merged", ("env", "states"),
                           ("poll", "yield"), [
        Recv("env", "k0"),
        Call(DELAY_EMIT, "delay", (1,), (), ("fn0",), "st0"),
        Assign("env", 0),
        Loop(2, [Recv("states", "states"),
                 Call("add", "add", (), ("env", "states"), ("env",))],
             "yield"),
        Assign("w", 5),
        Call("if_else", "if_else", (), ("k0", "env", "w"), ("poll",)),
        Call("add", "add", (), ("poll", "fn0"), ("st0",)),
        Call(DELAY_PUSH, "delay", (1,), ("st0",), (), "st0"),
        Send("poll", "st0"),
        Send("yield", "k0"),
    ], {"st0": (0,)})

    def test_hostile_names(self):
        inputs = {"env": [3, 0], "states": [1, 2, 3, 4]}
        want = {"poll": [3, 8], "yield": [3, 0]}
        macro = build_task_fsm(self.HOSTILE)
        assert self._fsm_outputs(macro, inputs) == (want, 0)
        micro = lower_api(macro, standalone_address_map(macro, "u"), "u")
        # two iterations of five polls, plus the failed one on "env"
        assert self._fsm_outputs(micro, inputs) == (want, 11)

    def test_unwritten_variable_raises(self):
        """A variable is a cell that no transition has written yet, so the
        first transition reading it raises: it neither computes with 0 nor
        sends the 1 that would give."""
        fsm = TaskFsm("t", [0, 1], [
            Transition(0, (), (Call("inc", "user", ("inc",), ("x",),
                                    ("y",)),), 1),
            Transition(1, (GReady("out", True),), (Send("out", "y"),), 0)],
            0, (), ("out",), {})
        cons, prod = bind_queues(fsm, {})
        runner = FsmRunner(fsm, cons, prod, bus_counter())
        with pytest.raises(NameError):
            runner.step()
        assert runner.numbers[runner.fn] == 0 and sent(prod) == {"out": []}


class TestCompareTraces:
    def _t(self, vals, times=None, level=0):
        times = times or list(range(len(vals)))
        return Trace({"y": list(zip(times, vals))}, level=level, design="d")

    def test_exact(self):
        assert compare_traces(self._t([1, 2]), self._t([1, 2])).passed
        v = compare_traces(self._t([1, 2]), self._t([1, 3]))
        assert not v.passed
        assert v.message == "port y record 1: (1, 2) != (1, 3)"

    def test_last_record_differs(self):
        """Each mode names the one difference of two equal-length traces,
        in their last record, and the first record past the shorter
        trace's end."""
        a, b = self._t([1, 2, 3]), self._t([1, 2, 4])
        v = compare_traces(a, b)
        assert not v.passed
        assert v.message == "port y record 2: (2, 3) != (2, 4)"
        v = compare_traces(a, b, mode="values_only")
        assert not v.passed
        assert v.message == "port y value 2: 3 != 4"
        v = compare_traces(self._t([1, 2]), self._t([1, 2], times=[0, 2]))
        assert v.message == "port y record 1: (1, 2) != (2, 2)"
        v = compare_traces(self._t([1, 2]), self._t([1, 2, 3]),
                           mode="values_only")
        assert v.message == "port y value 2: None != 3"

    def test_exact_times_matter(self):
        v = compare_traces(self._t([1, 2]), self._t([1, 2], times=[0, 5]))
        assert not v.passed

    def test_values_only_ignores_times(self):
        v = compare_traces(self._t([1, 2]), self._t([1, 2], times=[4, 9]),
                           mode="values_only")
        assert v.passed

    def test_values_only_length_strict(self):
        v = compare_traces(self._t([1, 2]), self._t([1, 2, 3]),
                           mode="values_only")
        assert not v.passed

    def test_modulo_latency_finds_smallest_k(self):
        a = self._t([5, 6, 7, 8])
        b = self._t([0, 0, 5, 6, 7, 8])
        v = compare_traces(a, b, mode="modulo_latency")
        assert v.passed and v.k == 2

    def test_modulo_latency_expected_k(self):
        a = self._t([5, 6, 7])
        b = self._t([0, 5, 6, 7])
        assert compare_traces(a, b, mode="modulo_latency", expected_k=1).passed
        assert not compare_traces(a, b, mode="modulo_latency",
                                  expected_k=2).passed

    def test_modulo_latency_shared_shift(self):
        # the shift must be one constant across ports
        a = Trace({"y": [(0, 1), (1, 2)], "z": [(0, 3), (1, 4)]}, 0, "d")
        b = Trace({"y": [(0, 0), (1, 1), (2, 2)],
                   "z": [(0, 3), (1, 4), (2, 0)]}, 0, "d")
        v = compare_traces(a, b, mode="modulo_latency")
        assert not v.passed

    def test_modulo_latency_long_slack(self):
        # over 10k feasible shifts; port y alone also aligns at k=40, so
        # only a shift that port z allows too may pass
        rng = random.Random(7)
        k = 10_300
        ya = [rng.randrange(2) for _ in range(1500)]
        za = [rng.randrange(100) for _ in range(300)]
        yb = [rng.randrange(2) for _ in range(k)] + ya + [0] * 100
        yb[40:1540] = ya
        zb = [rng.randrange(100, 200) for _ in range(k)] + za + [5] * 1400

        def tr(y, z):
            return Trace({"y": list(enumerate(y)), "z": list(enumerate(z))})
        v = compare_traces(tr(ya, za), tr(yb, zb), mode="modulo_latency")
        assert v.passed and v.k == k
        zb[k + 299] += 1
        assert not compare_traces(tr(ya, za), tr(yb, zb),
                                  mode="modulo_latency").passed

    def test_modulo_latency_partial_overlap_fails(self):
        # the shifted trace must hold the whole reference, not a tail of it
        v = compare_traces(self._t([5, 6, 7, 8]), self._t([9, 9, 9, 5]),
                           mode="modulo_latency")
        assert not v.passed
        # an empty reference has nothing to align
        assert not compare_traces(self._t([]), self._t([1]),
                                  mode="modulo_latency").passed

    def test_port_set_mismatch(self):
        with pytest.raises(PortSetMismatch):
            compare_traces(self._t([1]), Trace({"z": [(0, 1)]}, 0, "d"))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            compare_traces(self._t([1]), self._t([1]), mode="fuzzy")


class TestLevels:
    def test_mini_codec_levels_agree(self):
        cd = mini_compiled()
        ticks = 200
        stim = default_stimulus(cd.model, ticks, seed=3)
        t0 = simulate(0, cd, stim, ticks)
        t1 = simulate(1, cd, stim, ticks)
        t2 = simulate(2, cd, stim, ticks)
        t3 = simulate(3, cd, stim, ticks)
        assert compare_traces(t0, t1).passed
        assert compare_traces(t1, t2).passed
        v = compare_traces(t2, t3, mode="modulo_latency")
        assert v.passed and v.k == 0
        assert compare_traces(t2, t3, mode="values_only").passed

    def test_level2_timestamps_advance_with_cost(self):
        cd = mini_compiled()
        stim = default_stimulus(cd.model, 16, seed=0)
        t2 = simulate(2, cd, stim, 16)
        # sample-indexed times at the macro level
        assert [t for t, _ in t2.ports["audio"]] == list(range(16))

    def test_level3_times_are_cycles(self):
        cd = mini_compiled()
        stim = default_stimulus(cd.model, 16, seed=0)
        t3 = simulate(3, cd, stim, 16)
        times = [t for t, _ in t3.ports["audio"]]
        assert times == sorted(times)
        assert times[-1] > 16  # bus polling costs cycles

    def test_determinism(self):
        cd = mini_compiled()
        stim = default_stimulus(cd.model, 64, seed=1)
        a = simulate(3, cd, stim, 64)
        b = simulate(3, cd, stim, 64)
        assert a.ports == b.ports

    # SHA-256 of the saved trace files, sample times included, so an
    # engine change cannot move a value or a level-3 cycle unnoticed.
    PINNED = {
        1: "e13943e1fd2e91a554bc76f088182380d2bed1d3ddc11dffc4440a82091ae58e",
        2: "a4a9adc48919f6d86cd188c553934806a173697716b4e6a6da8a412b10bc102a",
        3: "3c4f7c0266da744ed9abeb4f95b942ece6f6273997787badb86cc41c88c47415",
    }

    def test_pinned_trace_digests(self, tmp_path):
        cd = mini_compiled()
        ticks = 2000
        stim = default_stimulus(cd.model, ticks, seed=7)
        for level, digest in self.PINNED.items():
            path = tmp_path / f"level{level}.trace"
            simulate(level, cd, stim, ticks).save(path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, \
                f"level {level}"

    # the same over the level-3 trace files of 30 random partitioned
    # designs, so a cycle that moves on any task, pipeline or controller
    # mix the generator makes shows, not only on mini_codec's
    RANDOM_LEVEL3 = \
        "06f3c203fa6ea0e8d65181092df044e4a18a64f677ee05a96a60a0a983fc3114"

    def test_pinned_random_level3_digest(self, tmp_path):
        h = hashlib.sha256()
        ticks = 60
        for seed in range(30):
            g = rand_partitioned_model(random.Random(seed))
            cd = compile_design(g)
            stim = default_stimulus(g, ticks, seed=seed)
            path = tmp_path / f"rand{seed}.trace"
            simulate(3, cd, stim, ticks).save(path)
            h.update(path.read_bytes())
        assert h.hexdigest() == self.RANDOM_LEVEL3

    # (rounds, events, cycles, bus transactions) of level-3 runs: the trace
    # digests pin the sample times but not how many rounds and events the
    # engine took to produce them
    MINI_COUNTS = (6011, 28001, 70066, 28033)
    MIXED_COUNTS = {
        (2, 3, 2): (2006, 18003, 0, 0),
        (3, 2, 3): (6003, 27998, 70018, 28009),
    }
    RANDOM_COUNTS = {
        "partitioned": (
            30, (8700, 20131, 53966, 20773),
            "f742b929dab1c9c194ba47c5efe944901bef2d92a8469fd9df4132999e3f252e"),
        "loopy": (
            4, (324, 1447, 0, 0),
            "49e099aa67a6b5b3568225c3228780abc2e43f96d158b6b23d5eb903e53c887f"),
    }

    # (rounds, events) of all-macro runs, which level 2 shares with level
    # 1: mini_codec, then one digest over the compiled designs of 30
    # partitioned and 30 loopy seeds, so a change in when a behavior
    # yields or reports progress shows
    MACRO_COUNTS = (2002, 18000)
    RANDOM_MACRO = (
        34, (2136, 11947),
        "17dcc88983fbf87e55869a712aa9096c06b37bb55e205cdea6eef3265d534009")

    def test_pinned_macro_counts(self):
        cd = mini_compiled()
        ticks = 2000
        stim = default_stimulus(cd.model, ticks, seed=7)
        assert self._counts(cd, dict.fromkeys(cd.tlm.nodes, 1), stim,
                            ticks)[:2] == self.MACRO_COUNTS
        rows = [(kind,) + r[:3] for kind in ("partitioned", "loopy")
                for r in self._random_rows(kind, 1)]
        totals = tuple(sum(r[i] for r in rows) for i in (2, 3))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert (len(rows), totals, digest) == self.RANDOM_MACRO

    @staticmethod
    def _counts(cd, assignment, stim, ticks) -> tuple:
        e = Engine(cd, assignment, stim, ticks)
        e.run()
        return e.rounds, e.events, e.cycle, e.bus_transactions

    def _random_rows(self, kind: str, level: int) -> list[tuple]:
        """(seed, rounds, events, cycles, bus transactions) of each of the
        30 random designs of ``kind`` that compiles, all at ``level``."""
        gen, ticks = {"partitioned": (rand_partitioned_model, 60),
                      "loopy": (rand_loopy_model, 50)}[kind]
        rows = []
        for seed in range(30):
            g = gen(random.Random(seed))
            try:
                cd = compile_design(g)
            except FlowError:
                continue  # combinational cycle without a delay
            stim = default_stimulus(g, ticks, seed=seed)
            rows.append((seed,) + self._counts(
                cd, dict.fromkeys(cd.tlm.nodes, level), stim, ticks))
        return rows

    def test_pinned_level3_counts(self):
        cd = mini_compiled()
        ticks = 2000
        stim = default_stimulus(cd.model, ticks, seed=7)
        nodes = cd.tlm.nodes
        assert self._counts(cd, dict.fromkeys(nodes, 3), stim, ticks) == \
            self.MINI_COUNTS
        for levels, want in self.MIXED_COUNTS.items():
            assignment = dict(zip(("SW_cpu", "HW_filter", "HW_post"), levels))
            assert self._counts(cd, assignment, stim, ticks) == want, levels

    def test_fanout_from_micro_units(self):
        """A level-3 task and HW node each push to a channel with several
        readers; (rounds, events, cycles, bus transactions) are pinned."""
        cd = compile_design(parse_model(FANOUT_FDM))
        fanout = {str(ch.producers[0]) for ch in cd.tlm.channels
                  if len(ch.consumers) > 1}
        assert fanout == {"SW_cpu/TASK_a.out", "HW_p.out"}
        ticks = 50
        stim = default_stimulus(cd.model, ticks, seed=9)
        t0 = _agree_with_level0(cd, stim, ticks,
                                {"SW_cpu": 3, "HW_p": 3, "HW_q": 2})
        y = t0.values("y")
        assert t0.values("z") == [wrap32(v + 1) for v in y] and any(y)
        assert self._counts(cd, dict.fromkeys(cd.tlm.nodes, 3), stim,
                            ticks) == (108, 503, 1032, 416)

    @pytest.mark.parametrize("kind", ["partitioned", "loopy"])
    def test_pinned_random_level3_counts(self, kind):
        rows = self._random_rows(kind, 3)
        totals = tuple(sum(r[i] for r in rows) for i in range(1, 5))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert (len(rows), totals, digest) == self.RANDOM_COUNTS[kind]

    def test_const_fed_hw_node(self, tmp_path):
        res = run_flow(parse_model(CONSTFED_FDM), tmp_path, ticks=64)
        assert sorted(res.traces) == [0, 1, 2, 3]
        assert res.ok, [(label, str(v)) for label, v in res.verdicts]

    def test_if_else_both_outcomes(self, tmp_path):
        """An if_else in a task and in a HW_ node takes both outcomes at
        level 0, every level agrees, and the task's behavior and macro FSM
        hold the block as one call of its template."""
        res = run_flow(parse_model(IFELSE_FDM), tmp_path, ticks=128)
        assert res.ok, [(label, str(v)) for label, v in res.verdicts]
        xs = default_stimulus(parse_model(IFELSE_FDM), 128).values["x"]
        ys = res.traces[0].values("y")
        taken = [y == -3 * x for x, y in zip(xs, ys)]
        assert all(t or y == x for t, x, y in zip(taken, xs, ys))
        assert 32 < sum(taken) < 96
        for name in ("SW_cpu.TASK_sel.behavior.txt", "SW_cpu.TASK_sel.fsm.txt"):
            text = (tmp_path / "fsm" / name).read_text()
            assert "s_out = if_else(" in text, text

    def test_multi_output_block_in_hw_node(self):
        cd = compile_design(parse_model(DEMUX_FDM))
        ticks = 64
        stim = default_stimulus(cd.model, ticks, seed=4)
        t0 = simulate(0, cd, stim, ticks)
        for level in (1, 2):
            assert compare_traces(t0, simulate(level, cd, stim, ticks)).passed
        v = compare_traces(t0, simulate(3, cd, stim, ticks),
                           mode="modulo_latency", expected_k=0)
        assert v.passed, str(v)
        assert "wire dm.out1 -> g5.in" in emit_rtl_text(cd.hw_impl["HW_split"])

    # under valid gating every level sees the same stream: a level that
    # emits only zeros, or its stream three samples late, must not pass on
    # whatever shift leaves some overlap
    @pytest.mark.parametrize("mangle", [
        lambda vals: [0] * len(vals),
        lambda vals: [0] * 3 + vals[:-3],
    ], ids=["zeros", "late"])
    def test_flow_rejects_wrong_level3(self, mangle, tmp_path, monkeypatch):
        real = fdmflow.flow.simulator

        def mangled(level, cd, stim, ticks):
            run = real(level, cd, stim, ticks)

            def run_mangled():
                tr = run()
                if level == 3:
                    for p, recs in tr.ports.items():
                        vals = mangle([v for _, v in recs])
                        tr.ports[p] = [(t, v) for (t, _), v in zip(recs, vals)]
                return tr
            return run_mangled

        monkeypatch.setattr(fdmflow.flow, "simulator", mangled)
        res = run_flow(mini_model(), tmp_path)
        v = dict(res.verdicts)["level2-vs-level3"]
        assert not v.passed, str(v)

    # Ids and ports are Python keywords and look like the names the code
    # generators make up.  The HW node chains delay(3) into delay(2), so a
    # register reads another register's head, fans a two-output demux out,
    # and declares an input nothing drives, which reads 0.
    NAMES_FDM = """
    model names {
      input yield; input lambda; output states; output vals;
      subsystem SW_cpu {
        input in_values; output fn0;
        subsystem TASK_fn0 {
          input v1; output x0;
          block in_values : gain(3);
          block yield : for_loop(2, inc); block lambda : delay(1);
          link self.v1 -> in_values.in; link in_values.out -> yield.in;
          link yield.out -> lambda.in; link lambda.out -> self.x0;
        }
        link self.in_values -> TASK_fn0.v1; link TASK_fn0.x0 -> self.fn0;
      }
      subsystem HW_yield {
        input yield; input x0; input lambda; output states; output vals;
        block fn0 : delay(3); block v1 : delay(2);
        block lambda : add; block states : demux(2);
        link self.yield -> fn0.in; link fn0.out -> v1.in;
        link v1.out -> lambda.in1; link fn0.out -> lambda.in2;
        link self.x0 -> states.sel; link lambda.out -> states.in;
        link states.out0 -> self.states; link states.out1 -> self.vals;
      }
      link self.yield -> SW_cpu.in_values; link SW_cpu.fn0 -> HW_yield.yield;
      link self.lambda -> HW_yield.x0;
      link HW_yield.states -> self.states; link HW_yield.vals -> self.vals;
    }
    """

    def test_generated_code_names(self):
        cd = compile_design(parse_model(self.NAMES_FDM))
        ticks = 40
        stim = default_stimulus(cd.model, ticks, seed=1)
        t0 = simulate(0, cd, stim, ticks)
        g = [0] + [3 * y + 2 for y in stim.values["yield"]]  # the task
        c = [(g[t - 5] if t >= 5 else 0) + (g[t - 3] if t >= 3 else 0)
             for t in range(ticks)]
        sel = [x % 2 for x in stim.values["lambda"]]
        assert t0.values("states") == [v * (s == 0) for v, s in zip(c, sel)]
        assert t0.values("vals") == [v * (s == 1) for v, s in zip(c, sel)]
        assert any(t0.values("states")) and any(t0.values("vals"))
        runs = [simulate(lv, cd, stim, ticks) for lv in (1, 2, 3)]
        runs.append(Engine(cd, {"SW_cpu": 2, "HW_yield": 3},
                           stim, ticks).run())
        for tr in runs:
            v = compare_traces(t0, tr, mode="modulo_latency", expected_k=0)
            assert v.passed, f"level {tr.level}: {v}"


    # every port and block named like a local or parameter of the
    # generated FSM code; a task's delay "k0" and loop "st0" become a
    # state key and a loop id
    HOSTILE_FDM = """
    model hostile {
      input env; input yield; output states; output poll;
      subsystem SW_cpu {
        input env; input yield; input k0; output fn0; output states;
        subsystem TASK_env {
          input env; input yield; output fn0;
          block fn0 : gain(2); block k0 : delay(1);
          block st0 : for_loop(2, inc); block states : add;
          link self.env -> fn0.in; link fn0.out -> k0.in;
          link k0.out -> st0.in; link st0.out -> states.in1;
          link self.yield -> states.in2; link states.out -> self.fn0;
        }
        subsystem TASK_poll {
          input k0; output states;
          block st0 : delay(2); block yield : gain(3);
          link self.k0 -> st0.in; link st0.out -> yield.in;
          link yield.out -> self.states;
        }
        link self.env -> TASK_env.env; link self.yield -> TASK_env.yield;
        link TASK_env.fn0 -> self.fn0; link self.k0 -> TASK_poll.k0;
        link TASK_poll.states -> self.states;
      }
      subsystem HW_k0 {
        input env; output poll; output states;
        block st0 : delay(1); block fn0 : gain(5);
        link self.env -> st0.in; link st0.out -> fn0.in;
        link fn0.out -> self.poll; link st0.out -> self.states;
      }
      link self.env -> SW_cpu.env; link self.yield -> SW_cpu.yield;
      link SW_cpu.fn0 -> HW_k0.env; link HW_k0.states -> SW_cpu.k0;
      link SW_cpu.states -> self.states; link HW_k0.poll -> self.poll;
    }
    """

    def test_generated_fsm_names(self):
        cd = compile_design(parse_model(self.HOSTILE_FDM))
        ticks = 40
        stim = default_stimulus(cd.model, ticks, seed=3)
        t0 = simulate(0, cd, stim, ticks)
        assert any(t0.values("states")) and any(t0.values("poll"))
        runs = [simulate(lv, cd, stim, ticks) for lv in (1, 2, 3)]
        runs.append(Engine(cd, {"SW_cpu": 3, "HW_k0": 2},
                           stim, ticks).run())
        for tr in runs:
            v = compare_traces(t0, tr, mode="modulo_latency", expected_k=0)
            assert v.passed, f"level {tr.level}: {v}"


    def test_two_input_user_function(self):
        g = parse_model(MIX2_FDM)
        with pytest.raises(FlowError, match="cost_cycles"):
            compile_design(g)
        ps = emit_param_templates(emit_netlist(recognize_partition(g)))
        ps.entries["mix/HW_mix/h"].module["cost_cycles"] = 3
        cd = compile_design(g, ps)
        assert cd.hw_impl["HW_mix"].kind == "controller"
        ticks = 50
        stim = default_stimulus(g, ticks, seed=4)
        a, b = stim.values["a"], stim.values["b"]

        def mix2(x, y):
            return wrap32(x + y - (y >> 1))
        want = [mix2(mix2(mix2(a[t], b[t]), b[t - 1] if t else 0), a[t])
                for t in range(ticks)]
        t0 = simulate(0, cd, stim, ticks)
        assert t0.values("y") == want
        runs = [simulate(lv, cd, stim, ticks) for lv in (1, 2, 3)]
        runs.append(Engine(cd, {"SW_cpu": 2, "HW_mix": 3},
                           stim, ticks).run())
        for tr in runs:
            v = compare_traces(t0, tr, mode="modulo_latency", expected_k=0)
            assert v.passed, f"level {tr.level}: {v}"


class TestLoops:
    """Delays on loops that cross unit boundaries emit before they receive
    at every macro level, whichever kind of unit holds them."""

    def test_feedback_through_hw_delay(self):
        g = parse_model(FEEDBACK_FDM)
        cd = compile_design(g)
        ticks = 60
        stim = default_stimulus(g, ticks, seed=2)
        t0 = simulate(0, cd, stim, ticks)
        assert len(t0.ports["y"]) == ticks
        for level in (1, 2):
            v = compare_traces(t0, simulate(level, cd, stim, ticks))
            assert v.passed, f"level {level}: {v}"

    def test_random_loopy_testbenches(self):
        compiled = []
        for seed in range(40):
            g = rand_loopy_model(random.Random(seed))
            try:
                cd = compile_design(g)
            except FlowError:
                continue  # combinational cycle without a delay
            compiled.append(seed)
            ticks = 50
            stim = default_stimulus(g, ticks, seed=seed)
            t0 = simulate(0, cd, stim, ticks)
            for level in (1, 2):
                v = compare_traces(t0, simulate(level, cd, stim, ticks))
                assert v.passed, f"seed {seed} level {level}: {v}"
            t3 = simulate(3, cd, stim, ticks)
            v = compare_traces(t0, t3, mode="modulo_latency")
            assert v.passed and v.k == 0, f"seed {seed} level 3: {v}"
            assert compare_traces(t0, t3, mode="values_only").passed
        # the seeds whose testbench delays sit on a loop are among these
        assert compiled == [7, 14, 18, 20, 32, 33, 35, 36]


def _agree_with_level0(cd, stim, ticks, assignment):
    """Levels 1 to 3 and one mixed run against level 0."""
    t0 = simulate(0, cd, stim, ticks)
    runs = [simulate(lv, cd, stim, ticks) for lv in (1, 2, 3)]
    runs.append(Engine(cd, assignment, stim, ticks).run())
    for tr in runs:
        v = compare_traces(t0, tr, mode="modulo_latency", expected_k=0)
        assert v.passed, f"level {tr.level} {assignment}: {v}"
    return t0


class TestUnboundPorts:
    """A port on no channel reads 0 and drops what it writes; the
    behaviors decide that once, so no executor meets such a port."""

    def test_loose_model(self):
        cd = compile_design(parse_model(LOOSE_FDM))
        task = "SW_cpu/TASK_t"
        assert (cd.behaviors[task].in_ports, cd.behaviors[task].out_ports) \
            == (("a",), ("out",))
        assert (cd.behaviors["HW_h"].in_ports, cd.behaviors["tb"].out_ports) \
            == (("in",), ())
        for f in (cd.macro_fsms[task], cd.micro_fsms[task]):
            assert (f.in_ports, f.out_ports) == (("a",), ("out",))
        ticks = 50
        stim = default_stimulus(cd.model, ticks, seed=6)
        t0 = _agree_with_level0(cd, stim, ticks, {"SW_cpu": 3, "HW_h": 2})
        g = [3 * x for x in stim.values["x"]]
        s = [g[t] + (g[t - 1] if t else 0) for t in range(ticks)]
        fir = [s[t] + 2 * (s[t - 1] if t else 0) for t in range(ticks)]
        assert t0.values("y") == [int(v / 3) * 3 for v in fir]

    def test_random_loose_ports(self):
        """`check` accepting a design means every level agrees; rejecting
        it means the flow stops at the partition with the same error."""
        accepted = []
        for seed in range(30):
            rng = random.Random(90000 + seed)
            g = rand_partitioned_model(rng, f"loose{seed}")
            add_loose_ports(rng, g)
            assert validate_model(g).ok
            errors = validate_partition(recognize_partition(g)).errors()
            if errors:
                d = errors[0]
                assert d.message == "output 'loose_out' is not driven by " \
                    "any link"
                with pytest.raises(FlowError) as e:
                    compile_design(g)
                assert str(e.value) == f"[partition] {d.location}: {d.message}"
                continue
            accepted.append(seed)
            cd = compile_design(g)
            ticks = 40
            stim = default_stimulus(g, ticks, seed=seed)
            assignment = {n: rng.choice((1, 2, 3)) for n in cd.tlm.nodes}
            _agree_with_level0(cd, stim, ticks, assignment)
        assert 10 < len(accepted) < 30, accepted


class TestOutputLinks:
    def test_model_output_as_link_source(self):
        """A model output read by a link feeds its readers at every level,
        as at level 0: y feeds h, and z a task."""
        cd = compile_design(parse_model(OUTLINK_FDM))
        readers = {str(r) for ch in cd.tlm.channels for r in ch.consumers}
        assert {"h.in", "SW_cpu/TASK_t.a"} <= readers
        ticks = 50
        stim = default_stimulus(cd.model, ticks, seed=3)
        t0 = _agree_with_level0(cd, stim, ticks, {"SW_cpu": 3, "HW_q": 2})
        y = [wrap32(3 * x) for x in stim.values["x"]]
        assert t0.values("y") == y
        assert t0.values("z") == [wrap32(5 * v) for v in y]
        assert any(t0.values("w"))


# The sweep of HW_s reads only `in` (`extra` is on a channel but no block
# reads it, `bias` is on none) and returns spare, hi, lo, of which only
# hi and lo are on a channel, linked lo first; the sub is not symmetric.
PORTORDER_FDM = """
model portorder {
  input x; output y; output z;
  subsystem SW_cpu {
    input a; output out;
    subsystem TASK_t {
      input a; output out;
      block g : gain(3);
      link self.a -> g.in; link g.out -> self.out;
    }
    link self.a -> TASK_t.a; link TASK_t.out -> self.out;
  }
  subsystem HW_s {
    input bias; input extra; input in; output spare; output hi; output lo;
    block c : const(7); block d : sub; block q : quant(4); block k : gain(5);
    link c.out -> d.in1; link self.in -> d.in2; link d.out -> q.in;
    link q.out -> self.hi; link d.out -> k.in; link k.out -> self.lo;
    link self.in -> self.spare;
  }
  link self.x -> SW_cpu.a; link SW_cpu.out -> HW_s.in;
  link self.x -> HW_s.extra;
  link HW_s.lo -> self.y; link HW_s.hi -> self.z;
}
"""


class TestPortOrder:
    def test_hw_node_ports_by_position(self):
        """A level-3 HW_ node passes its sweep only the inputs it reads and
        pushes each output from its place in the sweep's result."""
        cd = compile_design(parse_model(PORTORDER_FDM))
        ticks = 40
        stim = default_stimulus(cd.model, ticks, seed=8)
        hw = Engine(cd, {"SW_cpu": 1, "HW_s": 3}, stim, ticks).hw_units[0]
        assert (list(hw.cons), hw.ins, list(hw.prod), hw.out_index) == \
            (["extra", "in"], ["in"], ["hi", "lo"], [1, 2])
        t0 = _agree_with_level0(cd, stim, ticks, {"SW_cpu": 1, "HW_s": 3})
        d = [7 - 3 * x for x in stim.values["x"]]
        assert t0.values("y") == [5 * v for v in d]
        assert t0.values("z") == [int(v / 4) * 4 for v in d]


class TestHwDelay:
    def test_delay_after_pipelined_ip(self):
        """A delay passes on the latency of the IP feeding it, so the node's
        k counts the quantizer's stage and every level agrees."""
        cd = compile_design(parse_model(PIPEDELAY_FDM))
        assert cd.hw_impl["HW_q"].latency == 1
        ticks = 50
        stim = default_stimulus(cd.model, ticks, seed=4)
        t0 = _agree_with_level0(cd, stim, ticks, {"SW_cpu": 2, "HW_q": 3})
        q = [abs(v) // 3 * (3 if v >= 0 else -3)
             for v in (wrap32(2 * x) for x in stim.values["x"])]
        assert t0.values("w") == [0] + q[:-1]

    def test_pipelined_ip_on_delay_loop(self):
        """An IP with latency on a loop closed by a delay sends the node to
        the FSM controller, so the accumulator keeps its one-sample lag."""
        cd = compile_design(parse_model(ACCLOOP_FDM))
        assert cd.hw_impl["HW_acc"].kind == "controller"
        ticks = 50
        stim = default_stimulus(cd.model, ticks, seed=5)
        t0 = _agree_with_level0(cd, stim, ticks, {"SW_cpu": 2, "HW_acc": 3})
        acc = [0]
        for x in stim.values["x"]:
            acc.append(wrap32(wrap32(2 * x) + acc[-1]))
        assert t0.values("y") == acc[1:]


class TestMixed:
    def test_one_mixed_assignment(self):
        cd = mini_compiled()
        ticks = 100
        stim = default_stimulus(cd.model, ticks, seed=5)
        pure = simulate(3, cd, stim, ticks)
        mixed = Engine(cd, {"SW_cpu": 2, "HW_filter": 3, "HW_post": 2},
                       stim, ticks).run()
        assert compare_traces(pure, mixed, mode="values_only").passed

    def test_bad_assignment_rejected(self):
        cd = mini_compiled()
        stim = default_stimulus(cd.model, 8, seed=0)
        with pytest.raises((SimError, KeyError, ValueError)):
            Engine(cd, {"SW_cpu": 7}, stim, 8).run()

    @pytest.mark.parametrize("assignment, match", [
        ({"SW_cpu": 2, "HW_filter": 3}, "missing node 'HW_post'"),
        ({"SW_cpu": 2, "HW_filter": 3, "HW_post": 0}, "'HW_post': level"),
        ({"SW_cpu": 4, "HW_filter": 3, "HW_post": 2}, "'SW_cpu': level"),
    ], ids=["missing-node", "level-0", "level-4"])
    def test_engine_rejects_assignment(self, assignment, match):
        cd = mini_compiled()
        stim = default_stimulus(cd.model, 8, seed=0)
        with pytest.raises(SimError, match=match):
            Engine(cd, assignment, stim, 8)

    def test_random_design_levels(self):
        for seed in range(8):
            rng = random.Random(seed)
            g = rand_partitioned_model(rng)
            cd = compile_design(g)
            ticks = 40
            stim = default_stimulus(g, ticks, seed=seed)
            t0 = simulate(0, cd, stim, ticks)
            t2 = simulate(2, cd, stim, ticks)
            t3 = simulate(3, cd, stim, ticks)
            assert compare_traces(t0, t2).passed, f"seed {seed}"
            assert compare_traces(t2, t3, mode="values_only").passed, \
                f"seed {seed}"


class TestRunLoop:
    """How the generated run loop stops when the probes never fill: the
    feedback model waits for ever at level 3 (its HW_ node needs an input
    before it emits)."""

    def _engine(self, text: str, ticks: int) -> Engine:
        cd = compile_design(parse_model(text))
        return Engine(cd, dict.fromkeys(cd.tlm.nodes, 3),
                      default_stimulus(cd.model, ticks, seed=0), ticks)

    def test_deadlock(self):
        e = self._engine(FEEDBACK_FDM, 8)
        with pytest.raises(SimError) as err:
            e.run()
        assert str(err.value) == (
            "deadlock: no progress after 3 rounds ([('y', 0)]); waiting: "
            "SW_cpu/TASK_sum.b on ch_HW_reg_out (0/1), HW_reg.in on "
            "ch_SW_cpu_TASK_sum_out (0/1)")
        assert (e.rounds, e.events, e.cycle, e.bus_transactions) == \
            (3, 3, 9, 4)

    def test_round_limit(self):
        """A testbench const feeding a sink moves in every round, so the
        run makes progress and stops at the round limit instead."""
        spin = "  block c : const(1); block s : sink; link c.out -> s.in;\n"
        ticks = 8
        e = self._engine(FEEDBACK_FDM.replace(
            "  link self.x -> SW_cpu.a;", spin + "  link self.x -> SW_cpu.a;"),
            ticks)
        with pytest.raises(SimError) as err:
            e.run()
        assert str(err.value) == "round limit exceeded"
        # per tick: TASK_sum's 3 FSM transitions, the units HW_reg, c and s,
        # the source x and the probe y
        assert e.rounds == (3 + 3 + 1 + 1) * ticks + 10000 + 1
        assert e.trace.ports == {"y": []}

    def test_round_limit_follows_the_design(self):
        """A task whose FSM makes 82 transitions per tick (a mux(80) fed by
        81 inputs) runs 82 rounds per tick, past any fixed rounds-per-tick
        bound of fewer; the limit grows with the transitions."""
        n = 80
        ins = [f"x{i}" for i in range(n + 1)]
        decl = " ".join(f"input {p};" for p in ins)
        text = "\n".join([
            f"model wide_mux {{ {decl} output y;",
            f"subsystem SW_cpu {{ {decl} output out;",
            f"subsystem TASK_t {{ {decl} output out; block m : mux({n});",
            "link self.x0 -> m.sel;"] + [
            f"link self.x{i + 1} -> m.in{i};" for i in range(n)] + [
            "link m.out -> self.out; }"] + [
            f"link self.{p} -> TASK_t.{p};" for p in ins] + [
            "link TASK_t.out -> self.out; }"] + [
            f"link self.{p} -> SW_cpu.{p};" for p in ins] + [
            "link SW_cpu.out -> self.y; }"])
        ticks = 500
        cd = compile_design(parse_model(text))
        stim = default_stimulus(cd.model, ticks, seed=0)
        e = Engine(cd, {"SW_cpu": 3}, stim, ticks)
        got = e.run()
        assert e.rounds > 60 * ticks + 10000
        assert got.values("y") == simulate(0, cd, stim, ticks).values("y")

    @pytest.mark.parametrize("level", [1, 3])
    def test_engine_freed_without_gc(self, level):
        """No generated function holds its engine, so a dropped engine is
        freed at once, without the cyclic garbage collector."""
        cd = mini_compiled()
        e = Engine(cd, dict.fromkeys(cd.tlm.nodes, level),
                   default_stimulus(cd.model, 20), 20)
        e.run()
        ref = weakref.ref(e)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del e
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


# a loop of 120 gains closed through a delay(3): 121 ops, one chunk
LOOP120_FDM = "model loop120 {\n  input x; output y;\n" + "".join(
    f"  block g{i} : gain({(3, -1)[i % 2]});\n" for i in range(120)) + \
    "  block a : add; block d : delay(3);\n" + \
    "  link self.x -> a.in1; link d.out -> a.in2; link a.out -> g0.in;\n" + \
    "".join(f"  link g{i}.out -> g{i + 1}.in;\n" for i in range(119)) + \
    "  link g119.out -> d.in; link g119.out -> self.y;\n}\n"

# a chain of registers from the input to the output, with no op
DELAYS_FDM = """
model delays {
  input x; output y;
  block d2 : delay(2); block d1 : delay(1);
  link self.x -> d2.in; link d2.out -> d1.in; link d1.out -> self.y;
}
"""

# two cycles of registers with no op: two delays in a ring, and a delay
# that feeds itself
RING_FDM = """
model ring {
  input x; output y; output z;
  block a : delay(1); block b : delay(2); block r : delay(2);
  block s : add; block m : add;
  link a.out -> b.in; link b.out -> a.in; link r.out -> r.in;
  link self.x -> s.in1; link a.out -> s.in2;
  link s.out -> m.in1; link r.out -> m.in2;
  link m.out -> self.y; link b.out -> self.z;
}
"""

NOINPUT_FDM = """
model noin {
  output y;
  block c : const(3); block g : gain(2);
  link c.out -> g.in; link g.out -> self.y;
}
"""


def _stream_designs():
    """Every model whose level 0 the stream test runs, by name."""
    yield "mini_codec", mini_model()
    for name in sorted(n for n in dir(helpers) if n.endswith("_FDM")):
        yield name, parse_model(getattr(helpers, name))
    for seed in range(60):
        yield f"partitioned {seed}", rand_partitioned_model(
            random.Random(seed))
        yield f"loopy {seed}", rand_loopy_model(random.Random(seed))
    yield "gen_wide 200", parse_model(helpers.gen_wide().generate(1, 200))
    for text in (RING_FDM, LOOP120_FDM, DELAYS_FDM, NOINPUT_FDM):
        g = parse_model(text)
        yield g.name, g


def _stepped(flat, name, stim, ticks) -> dict:
    """The output records of stepping the per-sample ``Sweep.tick``."""
    sw = Level0Sim(flat, name).sweep
    sw.build()
    cols = [stim.column(p, ticks) for p in sw.inputs]
    rows = [sw.tick(*xs) for xs in (zip(*cols) if cols else [()] * ticks)]
    return {p: list(enumerate(col)) for p, col in zip(sw.outputs, zip(*rows))}


class TestStream:
    """Level 0 runs each chunk of its sweep as one loop over the whole
    stimulus, and gives what stepping the sweep tick by tick gives."""

    def test_stream_equals_ticks(self, monkeypatch):
        sizes, seen = [], {}
        loop = sweep._loop

        def counted(ops, *args):
            sizes.append(len(ops))
            return loop(ops, *args)

        monkeypatch.setattr(sweep, "_loop", counted)
        for name, g in _stream_designs():
            report = validate_model(g)
            if not report.ok:
                continue  # a combinational cycle: level 0 never runs it
            sizes.clear()
            sim = Level0Sim(report.flat, g.name)
            seen[name] = list(sizes)
            for ticks in (1, 7, 300):
                stim = default_stimulus(g, ticks, seed=ticks)
                assert sim.run(stim, ticks).ports == _stepped(
                    report.flat, g.name, stim, ticks), (name, ticks)
        assert len(seen) == 87
        wide = seen["gen_wide 200"]
        assert len(wide) > 20 and min(wide) >= sweep.CHUNK
        # the loop stays whole, a register chain with no op is a chunk of
        # its own, and a chunk with no input loops over the tick count
        assert (seen["ring"], seen["loop120"], seen["delays"],
                seen["noin"]) == ([2], [121], [0], [2])
