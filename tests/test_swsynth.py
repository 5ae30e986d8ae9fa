import hashlib
import random

import pytest

from fdmflow.flow import FlowError, compile_design
from fdmflow.gma import emit_netlist, gen_task_behavior
from fdmflow.gma.behavior import Assign, Call, Loop, Recv, Send, \
    TaskBehavior
from fdmflow.model.parser import parse_model
from fdmflow.sim.interp import FsmRunner
from fdmflow.swsynth import GReady, SwSynthError, TaskFsm, Transition, \
    allocate_address_map, build_task_fsm, check_fsm, format_fsm, lower_api
from fdmflow.tlm import recognize_partition

from helpers import bind_queues, bus_counter, channel, rand_loopy_model, \
    rand_partitioned_model, rand_task_subsystem, run_task, sent, \
    standalone_address_map

import importlib.resources as ir

from fdmflow.model.graph import Endpoint, Link, ModelGraph, Subsystem


def _behavior(body, in_ports=("in",), out_ports=("out",), states=None):
    return TaskBehavior("t", "merged", tuple(in_ports), tuple(out_ports),
                        body, states or {})


def mini_model():
    text = (ir.files("fdmflow") / "models" / "mini_codec.fdm").read_text()
    return parse_model(text)


class TestBuildTaskFsm:
    def test_recv_compute_send_two_states(self):
        b = _behavior([Recv("in", "x"),
                       Call("inc", "user", ("inc",), ("x",), ("y",)),
                       Send("out", "y")])
        f = build_task_fsm(b)
        assert len(f.states) == 2
        guards = {t.state: t.guards for t in f.transitions}
        assert guards[0] == (GReady("in", False),)
        assert guards[1] == (GReady("out", True),)
        # blocking action last in each transition
        assert check_fsm(f) == []

    def test_pure_loop_two_states(self):
        b = _behavior([Loop(8, [Call("inc", "user", ("inc",),
                                     ("x",), ("x",))], "i0")],
                      in_ports=(), out_ports=())
        f = build_task_fsm(b)
        assert len(f.states) == 2

    def test_loop_one_iteration_per_slot(self):
        # DLS: each visit to the loop head runs at most one iteration
        b = _behavior([Recv("in", "x"),
                       Loop(4, [Call("inc", "user", ("inc",),
                                     ("x",), ("x",))], "i0"),
                       Send("out", "x")])
        f = build_task_fsm(b)
        cons, prod = bind_queues(f, {"in": [10]})
        r = FsmRunner(f, cons, prod, bus_counter())
        steps = 0
        while r.step():
            steps += 1
        assert sent(prod)["out"] == [14]
        # recv + 4 iterations + exit + send(+wrap) bounds below
        assert steps >= 6

    def test_compute_stays_in_transition(self):
        b = _behavior([Recv("in", "x"),
                       Call("inc", "user", ("inc",), ("x",), ("y",)),
                       Call("dbl", "user", ("dbl",), ("y",), ("z",)),
                       Send("out", "z")])
        f = build_task_fsm(b)
        assert len(f.states) == 2

    def test_random_behaviors_well_formed(self):
        for seed in range(40):
            rng = random.Random(seed)
            sub = rand_task_subsystem(rng, "x")
            sw = Subsystem("SW_n", inputs=["i"], outputs=["o"],
                           subsystems=[sub],
                           links=[Link(Endpoint("self", "i"),
                                       Endpoint(sub.id, "in")),
                                  Link(Endpoint(sub.id, "out"),
                                       Endpoint("self", "o"))])
            g = ModelGraph("m", inputs=["x"], outputs=["y"], subsystems=[sw],
                           links=[Link(Endpoint("self", "x"),
                                       Endpoint("SW_n", "i")),
                                  Link(Endpoint("SW_n", "o"),
                                       Endpoint("self", "y"))])
            t = recognize_partition(g)
            f = build_task_fsm(gen_task_behavior(t, f"SW_n/{sub.id}"))
            assert check_fsm(f) == [], f"seed {seed}"


class TestMergeSchedule:
    """Round-robin over task FSMs, as the engine schedules a processor."""

    def _selfloop_fsm(self, name):
        return TaskFsm(name, [0], [Transition(0, (), (Assign("x", 0),), 0)],
                       0, (), (), {})

    def test_round_robin_order(self):
        runners = [FsmRunner(self._selfloop_fsm(n), {}, {}, bus_counter())
                   for n in ("A", "B")]
        order = []
        for _ in range(3):
            for r in runners:
                if r.step():
                    order.append(r.fsm.task)
        assert order == ["A", "B"] * 3

    def test_blocked_task_is_skipped(self):
        blocked = TaskFsm("A", [0],
                          [Transition(0, (GReady("in", False),),
                                      (Recv("in", "x"),), 0)],
                          0, ("in",), (), {})
        runners = [FsmRunner(blocked, *bind_queues(blocked, {}),
                             bus_counter()),
                   FsmRunner(self._selfloop_fsm("B"), {}, {}, bus_counter())]
        fired = [0, 0]
        for _ in range(5):
            for i, r in enumerate(runners):
                if r.step():
                    fired[i] += 1
        assert fired == [0, 5]


class TestProducerConsumer:
    def test_depth_one_alternation(self):
        prod = build_task_fsm(_behavior(
            [Recv("src", "x"), Send("ch", "x")],
            in_ports=("src",), out_ports=("ch",)))
        cons = build_task_fsm(_behavior(
            [Recv("ch", "x"), Send("res", "x")],
            in_ports=("ch",), out_ports=("res",)))
        # two tasks over one depth-1 FIFO; the producer reads a source
        fifo, res = channel("ch", "c", depth=1), channel("res", "r")
        rp = FsmRunner(prod, {"src": (channel("src", "p", [1, 2, 3, 4, 5]),
                                      ("p", "src"))}, {"ch": fifo},
                       bus_counter())
        rc = FsmRunner(cons, {"ch": (fifo, ("c", "ch"))}, {"res": res},
                       bus_counter())
        kinds = []

        def step(runner, kind, count):
            before = count()
            fired = runner.step()
            kinds.extend([kind] * (count() - before))
            return fired
        while step(rp, "push", lambda: fifo.pushed) | \
                step(rc, "pop", lambda: fifo.popped):
            pass
        assert sent({"res": res})["res"] == [1, 2, 3, 4, 5]
        # strict push/pop alternation on a depth-1 queue
        assert kinds == ["push", "pop"] * 5

    def test_dls_fairness(self):
        # A holds a huge loop, B still runs once per scheduler round
        a = build_task_fsm(_behavior(
            [Assign("x", 0),
             Loop(10**6, [Call("inc", "user", ("inc",), ("x",), ("x",))],
                  "i0")], in_ports=(), out_ports=()))
        b = build_task_fsm(_behavior(
            [Recv("in", "x"), Send("out", "x")]))
        ra = FsmRunner(a, {}, {}, bus_counter())
        cons, prod = bind_queues(b, {"in": list(range(10))})
        rb = FsmRunner(b, cons, prod, bus_counter())
        for _ in range(40):
            ra.step()
            rb.step()
        assert sent(prod)["out"] == list(range(10))


class TestAddressMap:
    def test_two_endpoint_bases(self):
        nl = emit_netlist(recognize_partition(mini_model()))
        m = allocate_address_map(nl)
        assert m.entries[0].base == 0x1000
        assert m.entries[1].base == 0x1010
        assert m.entries[0].data_addr == 0x1000
        assert m.entries[0].status_addr == 0x1004

    def test_empty_map(self):
        g = ModelGraph("m", inputs=[], outputs=[])
        nl = emit_netlist(recognize_partition(g))
        assert allocate_address_map(nl).entries == []

    def test_mini_codec_golden(self):
        nl = emit_netlist(recognize_partition(mini_model()))
        m = allocate_address_map(nl)
        assert len(m.entries) == 16
        assert [e.base for e in m.entries] == \
            [0x1000 + 0x10 * i for i in range(16)]
        assert m.entries[-1].base == 0x10F0
        # deterministic: rerunning gives an identical map
        assert allocate_address_map(nl) == m

    def test_disjoint_ranges(self):
        nl = emit_netlist(recognize_partition(mini_model()))
        m = allocate_address_map(nl)
        spans = sorted((e.base, e.base + 0x10) for e in m.entries)
        for (a0, a1), (b0, _b1) in zip(spans, spans[1:]):
            assert a1 <= b0


class TestLowerApi:
    def _mapped_fsm(self):
        f = build_task_fsm(_behavior(
            [Recv("in", "x"), Send("out", "x")]))
        return f, standalone_address_map(f, "u")

    def test_send_recv_lowering(self):
        f, m = self._mapped_fsm()
        lo = lower_api(f, m, "u")
        assert lo.api_level == "micro"
        t0 = [t for t in lo.transitions if t.state == 0][0]
        assert t0.guards == (GReady("in", False, 0x1004),)
        assert t0.actions[-1] == Recv("in", "x", 0x1000)
        t1 = [t for t in lo.transitions if t.state == 1][0]
        assert t1.guards == (GReady("out", True, 0x1014),)
        assert t1.actions[-1] == Send("out", "x", 0x1010)
        # the status bit each poll tests follows from its direction
        txt = format_fsm(lo)
        assert "status(0x1004) & 1" in txt and "x = Read(0x1000, pop)" in txt
        assert "status(0x1014) & 2" in txt and "Write(0x1010, x, push)" in txt

    def test_no_channel_ops_identity(self):
        f = build_task_fsm(_behavior(
            [Loop(3, [Call("inc", "user", ("inc",), ("x",), ("x",))], "i0")],
            in_ports=(), out_ports=()))
        lo = lower_api(f, standalone_address_map(f, "u"), "u")
        assert lo.api_level == "micro"
        assert lo.transitions == f.transitions

    def test_double_lowering_rejected(self):
        f, m = self._mapped_fsm()
        lo = lower_api(f, m, "u")
        with pytest.raises(SwSynthError):
            lower_api(lo, m, "u")

    def test_missing_entry(self):
        f, _ = self._mapped_fsm()
        from fdmflow.swsynth import AddressMap
        with pytest.raises(SwSynthError):
            lower_api(f, AddressMap([]), "u")

    def test_lowering_soundness_random(self):
        # values-only equality of macro and lowered FSM runs
        for seed in range(25):
            rng = random.Random(seed)
            sub = rand_task_subsystem(rng, "x")
            sw = Subsystem("SW_n", inputs=["i"], outputs=["o"],
                           subsystems=[sub],
                           links=[Link(Endpoint("self", "i"),
                                       Endpoint(sub.id, "in")),
                                  Link(Endpoint(sub.id, "out"),
                                       Endpoint("self", "o"))])
            g = ModelGraph("m", inputs=["x"], outputs=["y"], subsystems=[sw],
                           links=[Link(Endpoint("self", "x"),
                                       Endpoint("SW_n", "i")),
                                  Link(Endpoint("SW_n", "o"),
                                       Endpoint("self", "y"))])
            t = recognize_partition(g)
            f = build_task_fsm(gen_task_behavior(t, f"SW_n/{sub.id}"))
            lo = lower_api(f, standalone_address_map(f, "u"), "u")
            xs = [rng.randint(-300, 300) for _ in range(25)]
            assert run_task(lo, {"in": xs}) == run_task(f, {"in": xs}), \
                f"seed {seed}"


class TestFormatting:
    def test_format_stable(self):
        f = build_task_fsm(_behavior([Recv("in", "x"), Send("out", "x")]))
        assert format_fsm(f) == format_fsm(f)
        txt = format_fsm(f)
        assert "can_recv(in)" in txt and "can_send(out)" in txt

    def test_mini_codec_fsms_check_clean(self):
        cd = compile_design(mini_model())
        for f in cd.micro_fsms.values():
            assert f.api_level == "micro"
            assert check_fsm(f) == []

    # SHA-256 over the macro and micro FSM texts of every task of
    # mini_codec and of the compiling random designs of seeds 0-29; an
    # if_else block prints as its call, ``out = if_else(pred, a, b)``
    FSM_TEXTS = \
        "7085d9e2f4f7fef1ea9b58f50279ca35d2d82d755b2df559ad8e6a19bbb82ccc"

    def test_pinned_fsm_texts(self):
        models = [mini_model()] + [gen(random.Random(seed))
                                   for gen in (rand_partitioned_model,
                                               rand_loopy_model)
                                   for seed in range(30)]
        h = hashlib.sha256()
        for g in models:
            try:
                cd = compile_design(g)
            except FlowError:
                continue  # combinational cycle without a delay
            for t in sorted(cd.macro_fsms):
                h.update(format_fsm(cd.macro_fsms[t]).encode())
                h.update(format_fsm(cd.micro_fsms[t]).encode())
        assert h.hexdigest() == self.FSM_TEXTS
