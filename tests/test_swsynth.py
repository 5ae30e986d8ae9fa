import random
from collections import deque

import pytest

from fdmflow.flow import compile_design
from fdmflow.gma import build_tree, emit_netlist, gen_task_behavior
from fdmflow.gma.behavior import Call, Loop, Recv, Send, TaskBehavior
from fdmflow.model.parser import parse_model
from fdmflow.sim.harness import QueueIO, run_task, standalone_address_map
from fdmflow.sim.interp import FsmRunner
from fdmflow.swsynth import ABusRead, ABusWrite, ARecv, ASend, GCanRecv, \
    GCanSend, GStatusReady, SwSynthError, TaskFsm, Transition, \
    allocate_address_map, build_task_fsm, check_fsm, format_fsm, lower_api
from fdmflow.tlm import recognize_partition

from helpers import rand_task_subsystem

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
        assert guards[0] == (GCanRecv("in"),)
        assert guards[1] == (GCanSend("out"),)
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
        io = QueueIO({"in": [10]}, ("out",))
        r = FsmRunner(f, io)
        steps = 0
        while r.step():
            steps += 1
        assert io.outq["out"] == [14]
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
            d = build_tree(recognize_partition(g))
            f = build_task_fsm(gen_task_behavior(d, f"SW_n/{sub.id}"))
            assert check_fsm(f) == [], f"seed {seed}"


class TestMergeSchedule:
    """Round-robin over task FSMs, as the engine schedules a processor."""

    def _selfloop_fsm(self, name):
        from fdmflow.swsynth import AAssign, GTrue
        return TaskFsm(name, [0],
                       [Transition(0, (GTrue(),), (AAssign("x", 0),), 0)],
                       0, (), (), {})

    def test_round_robin_order(self):
        runners = [FsmRunner(self._selfloop_fsm(n), QueueIO({}, ()))
                   for n in ("A", "B")]
        order = []
        for _ in range(3):
            for r in runners:
                if r.step():
                    order.append(r.fsm.task)
        assert order == ["A", "B"] * 3

    def test_blocked_task_is_skipped(self):
        blocked = TaskFsm("A", [0],
                          [Transition(0, (GCanRecv("in"),),
                                      (ARecv("in", "x"),), 0)],
                          0, ("in",), (), {})
        runners = [FsmRunner(blocked, QueueIO({"in": []}, ())),
                   FsmRunner(self._selfloop_fsm("B"), QueueIO({}, ()))]
        fired = [0, 0]
        for _ in range(5):
            for i, r in enumerate(runners):
                if r.step():
                    fired[i] += 1
        assert fired == [0, 5]


class _DepthOneIO:
    """Two tasks over one depth-1 FIFO; producer side also has a source."""

    def __init__(self, source):
        self.source = deque(source)
        self.fifo = deque()
        self.got = []
        self.log = []

    def can_recv(self, port):
        return bool(self.source) if port == "src" else bool(self.fifo)

    def recv(self, port):
        if port == "src":
            return self.source.popleft()
        v = self.fifo.popleft()
        self.got.append(v)
        self.log.append(("pop", v))
        return v

    def can_send(self, port):
        return True if port == "res" else len(self.fifo) < 1

    def send(self, port, value):
        if port == "res":
            return
        self.fifo.append(value)
        self.log.append(("push", value))


class TestProducerConsumer:
    def test_depth_one_alternation(self):
        prod = build_task_fsm(_behavior(
            [Recv("src", "x"), Send("ch", "x")],
            in_ports=("src",), out_ports=("ch",)))
        cons = build_task_fsm(_behavior(
            [Recv("ch", "x"), Send("res", "x")],
            in_ports=("ch",), out_ports=("res",)))
        io = _DepthOneIO([1, 2, 3, 4, 5])
        rp, rc = FsmRunner(prod, io), FsmRunner(cons, io)
        while rp.step() | rc.step():
            pass
        assert io.got == [1, 2, 3, 4, 5]
        # strict push/pop alternation on a depth-1 queue
        kinds = [k for k, _ in io.log]
        assert kinds == ["push", "pop"] * 5

    def test_dls_fairness(self):
        # A holds a huge loop, B still runs once per scheduler round
        from fdmflow.gma.behavior import Assign
        a = build_task_fsm(_behavior(
            [Assign("x", 0),
             Loop(10**6, [Call("inc", "user", ("inc",), ("x",), ("x",))],
                  "i0")], in_ports=(), out_ports=()))
        b = build_task_fsm(_behavior(
            [Recv("in", "x"), Send("out", "x")]))
        ra = FsmRunner(a, QueueIO({}, ()))
        iob = QueueIO({"in": list(range(10))}, ("out",))
        rb = FsmRunner(b, iob)
        for _ in range(40):
            ra.step()
            rb.step()
        assert iob.outq["out"] == list(range(10))


class TestAddressMap:
    def test_two_endpoint_bases(self):
        nl = emit_netlist(build_tree(recognize_partition(mini_model())))
        m = allocate_address_map(nl)
        assert m.entries[0].base == 0x1000
        assert m.entries[1].base == 0x1010
        assert m.entries[0].data_addr == 0x1000
        assert m.entries[0].status_addr == 0x1004

    def test_empty_map(self):
        g = ModelGraph("m", inputs=[], outputs=[])
        nl = emit_netlist(build_tree(recognize_partition(g)))
        assert allocate_address_map(nl).entries == []

    def test_mini_codec_golden(self):
        nl = emit_netlist(build_tree(recognize_partition(mini_model())))
        m = allocate_address_map(nl)
        assert len(m.entries) == 16
        assert [e.base for e in m.entries] == \
            [0x1000 + 0x10 * i for i in range(16)]
        assert m.entries[-1].base == 0x10F0
        # deterministic: rerunning gives an identical map
        assert allocate_address_map(nl) == m

    def test_disjoint_ranges(self):
        nl = emit_netlist(build_tree(recognize_partition(mini_model())))
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
        assert t0.guards == (GStatusReady(0x1004, 1, "in"),)
        assert isinstance(t0.actions[-1], ABusRead)
        assert t0.actions[-1].addr == 0x1000 and t0.actions[-1].ctrl == "pop"
        t1 = [t for t in lo.transitions if t.state == 1][0]
        assert t1.guards == (GStatusReady(0x1014, 2, "out"),)
        assert isinstance(t1.actions[-1], ABusWrite)
        assert t1.actions[-1].addr == 0x1010 and t1.actions[-1].ctrl == "push"

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
            d = build_tree(recognize_partition(g))
            f = build_task_fsm(gen_task_behavior(d, f"SW_n/{sub.id}"))
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
