import random

import pytest

from fdmflow.hwsynth import Controller, ControllerSim, HwSynthError, \
    RtlCycleSim, delay_correct, emit_rtl_text, fsm_controller, library_entry, \
    map_rtl_library, pipelineable
from fdmflow.model.graph import Block, Endpoint, Link, ModelGraph, Subsystem
from fdmflow.sim.level0 import simulate_level0
from fdmflow.sim.trace import Stimulus

from helpers import hw_stream, rand_hw_subsystem, rand_pipeline_node, \
    total_registers


def _link(a, ap, b, bp):
    return Link(Endpoint(a, ap), Endpoint(b, bp))


def _as_model(sub):
    """The HW subsystem on its own, as a model for the level-0 reference."""
    return ModelGraph(sub.id, blocks=sub.blocks, subsystems=sub.subsystems,
                      links=sub.links, inputs=sub.inputs, outputs=sub.outputs)


def _chain(name, specs):
    """specs: list of (id, kind, params); single in/out chain."""
    sub = Subsystem(name, inputs=["in"], outputs=["out"])
    cur = ("self", "in")
    for bid, kind, params in specs:
        sub.blocks.append(Block(bid, kind, params))
        sub.links.append(_link(cur[0], cur[1], bid, "in"))
        cur = (bid, "out")
    sub.links.append(_link(cur[0], cur[1], "self", "out"))
    return sub


class TestLibrary:
    def test_default_latencies(self):
        assert library_entry("add", ()).latency == 0
        assert library_entry("gain", (2,)).latency == 0
        assert library_entry("mul", ()).latency == 1
        assert library_entry("quant", (2,)).latency == 1

    def test_fir_latency_log2(self):
        assert library_entry("fir", (1,)).latency == 1
        assert library_entry("fir", (1, 1)).latency == 2
        assert library_entry("fir", (1, 1, 1, 1)).latency == 3
        assert library_entry("fir", tuple([1] * 5)).latency == 4

    def test_user_entries(self):
        e = library_entry("user", ("clip",))
        assert e.latency == 2 and e.eligibility == "multicycle"
        assert library_entry("user", ("inc",), cost_override=7).latency == 7

    def test_cost_override(self):
        assert library_entry("gain", (2,), cost_override=3).latency == 3


class TestMapRtlLibrary:
    def test_fir_quant_chain(self):
        sub = _chain("HW_x", [("f", "fir", (1, 2, 3, 4)), ("q", "quant", (2,))])
        g = map_rtl_library(sub)
        assert g.nodes["f"].latency == 3
        assert g.nodes["q"].latency == 1
        real = [n for n, nd in g.nodes.items()
                if nd.kind not in ("input", "output")]
        assert real == ["f", "q"]

    def test_empty_node(self):
        sub = Subsystem("HW_e", inputs=["in"], outputs=["out"],
                        links=[_link("self", "in", "self", "out")])
        g = map_rtl_library(sub)
        assert all(nd.kind in ("input", "output") for nd in g.nodes.values())

    def test_unregistered_user_without_cost(self):
        sub = _chain("HW_u", [("mystery", "user", ("huff",))])
        with pytest.raises(HwSynthError, match="mystery"):
            map_rtl_library(sub)

    def test_delay_cost_rejected(self):
        # a delay's lag is its functional k; a cycle cost would skew it
        sub = _chain("HW_d", [("g", "gain", (3,)), ("d", "delay", (1,))])
        with pytest.raises(HwSynthError, match="HW_d/d"):
            map_rtl_library(sub, {"d": 2})

    def test_cost_param_rescues_user_block(self):
        sub = _chain("HW_u", [("mystery", "user", ("huff",))])
        g = map_rtl_library(sub, costs={"mystery": 5})
        assert g.nodes["mystery"].latency == 5
        assert not pipelineable(g)


def _diamond():
    sub = Subsystem("HW_d", inputs=["in"], outputs=["out"],
                    blocks=[Block("a", "gain", (1,)), Block("b", "gain", (1,)),
                            Block("j", "add")],
                    links=[_link("self", "in", "a", "in"),
                           _link("self", "in", "b", "in"),
                           _link("a", "out", "j", "in1"),
                           _link("b", "out", "j", "in2"),
                           _link("j", "out", "self", "out")])
    return map_rtl_library(sub, costs={"a": 3, "b": 1, "j": 0})


class TestDelayCorrect:
    def test_diamond(self):
        g, k = delay_correct(_diamond())
        assert k == 3
        assert total_registers(g) == 2
        slack = {(e.src, e.dst): e.regs for e in g.edges}
        assert slack[("b", "j")] == 2
        assert slack[("a", "j")] == 0

    def test_single_chain_no_regs(self):
        sub = _chain("HW_c", [("a", "gain", (1,)), ("b", "gain", (1,))])
        g, k = delay_correct(map_rtl_library(sub, costs={"a": 1, "b": 2}))
        assert (k, total_registers(g)) == (3, 0)

    def test_all_zero_identity(self):
        sub = _chain("HW_z", [("a", "gain", (1,)), ("b", "gain", (2,))])
        g, k = delay_correct(map_rtl_library(sub))
        assert (k, total_registers(g)) == (0, 0)

    def test_multicycle_rejected(self):
        sub = _chain("HW_u", [("c", "user", ("clip",))])
        with pytest.raises(HwSynthError, match="multicycle"):
            delay_correct(map_rtl_library(sub))

    def test_path_balance_invariant(self):
        # every input-to-node path carries equal registered latency
        for seed in range(30):
            rng = random.Random(seed)
            sub, costs = rand_pipeline_node(rng)
            g, k = delay_correct(map_rtl_library(sub, costs))
            for e in g.edges:
                need = g.levels[e.dst] - g.nodes[e.dst].latency
                assert g.levels[e.src] + e.regs == need, f"seed {seed}"


class TestController:
    def test_ii_sum(self):
        sub = _chain("HW_s", [("a", "gain", (1,)), ("b", "gain", (1,)),
                              ("c", "gain", (1,))])
        ctrl = fsm_controller(map_rtl_library(sub, {"a": 2, "b": 1, "c": 3}))
        assert ctrl.ii == 6
        assert ctrl.order == ["a", "b", "c"]

    def test_ii_floor_one(self):
        sub = _chain("HW_s", [("a", "gain", (1,))])
        assert fsm_controller(map_rtl_library(sub, {"a": 0})).ii == 1

    def test_stream_matches_functional_per_ii(self):
        for seed in range(20):
            rng = random.Random(200 + seed)
            sub = rand_hw_subsystem(rng, "c", force_controller=True)
            g = map_rtl_library(sub)
            ctrl = fsm_controller(g)
            xs = [rng.randint(-100, 100) for _ in range(20)]
            stim = Stimulus({"in": xs}, 20)
            got = hw_stream(ControllerSim(ctrl).fire, stim, 20)
            ref = simulate_level0(_as_model(sub), stim, 20)
            assert got.values("out") == ref.values("out"), f"seed {seed}"


class TestCycleAccuracy:
    def test_shifted_by_k(self):
        # raw cycle stream equals the functional stream delayed by k
        for seed in range(40):
            rng = random.Random(seed)
            sub, costs = rand_pipeline_node(rng)
            g0 = map_rtl_library(sub, costs)
            g, k = delay_correct(g0)
            n = 30
            xs = [rng.randint(-100, 100) for _ in range(n)]
            stim = Stimulus({"in": xs}, n)
            cyc = hw_stream(RtlCycleSim(g).step, stim, n + k)
            ref = simulate_level0(_as_model(sub), stim, n)
            assert cyc.values("out")[k:] == ref.values("out"), f"seed {seed}"

    def test_multi_output_pipeline(self):
        # every output port of a pipelined multi-output IP has its own
        # pipeline, and each consumer reads the port it is wired to
        sub = Subsystem("HW_m", inputs=["in"], outputs=["out"],
                        blocks=[Block("dm", "demux", (2,)),
                                Block("g", "gain", (5,)), Block("s", "sub")],
                        links=[_link("self", "in", "dm", "sel"),
                               _link("self", "in", "dm", "in"),
                               _link("dm", "out0", "s", "in1"),
                               _link("dm", "out1", "g", "in"),
                               _link("g", "out", "s", "in2"),
                               _link("s", "out", "self", "out")])
        g, k = delay_correct(map_rtl_library(sub, {"dm": 2, "g": 1}))
        assert k == 3 and total_registers(g) == 1
        xs = list(range(-6, 6))
        stim = Stimulus({"in": xs}, len(xs))
        cyc = hw_stream(RtlCycleSim(g).step, stim, len(xs) + k)
        ref = simulate_level0(_as_model(sub), stim, len(xs))
        assert cyc.values("out")[k:] == ref.values("out")

    def test_declared_delay_is_functional(self):
        # feedback accumulator through a declared delay block
        sub = Subsystem("HW_acc", inputs=["in"], outputs=["out"],
                        blocks=[Block("a", "add"), Block("d", "delay", (1,))],
                        links=[_link("self", "in", "a", "in1"),
                               _link("d", "out", "a", "in2"),
                               _link("a", "out", "d", "in"),
                               _link("a", "out", "self", "out")])
        g, k = delay_correct(map_rtl_library(sub))
        assert k == 0
        stim = Stimulus({"in": [1, 1, 1, 1]}, 4)
        tr = hw_stream(RtlCycleSim(g).step, stim, 4)
        assert tr.values("out") == [1, 2, 3, 4]

    def test_delay_passes_latency_on(self):
        # a delay after a pipelined IP: the path through it carries the
        # IP's stage, so the bypass is balanced and k counts the stage
        sub = Subsystem("HW_d", inputs=["in"], outputs=["out"],
                        blocks=[Block("q", "quant", (3,)),
                                Block("d", "delay", (1,)), Block("s", "add")],
                        links=[_link("self", "in", "q", "in"),
                               _link("q", "out", "d", "in"),
                               _link("d", "out", "s", "in1"),
                               _link("self", "in", "s", "in2"),
                               _link("s", "out", "self", "out")])
        g, k = delay_correct(map_rtl_library(sub))
        assert (k, total_registers(g)) == (1, 1)
        assert {(e.src, e.dst): e.regs for e in g.edges}[("in:in", "s")] == 1
        xs = list(range(-7, 9))
        stim = Stimulus({"in": xs}, len(xs))
        cyc = hw_stream(RtlCycleSim(g).step, stim, len(xs) + k)
        ref = simulate_level0(_as_model(sub), stim, len(xs))
        assert cyc.values("out")[k:] == ref.values("out")


class TestEmission:
    def test_pipelined_text(self):
        g, k = delay_correct(_diamond())
        txt = emit_rtl_text(g)
        assert "latency k=3" in txt
        assert txt.count("reg ") == 2
        assert "inst a : scaler latency=3" in txt
        assert emit_rtl_text(g) == txt  # stable

    def test_controller_text(self):
        sub = _chain("HW_s", [("c", "user", ("clip",))])
        ctrl = fsm_controller(map_rtl_library(sub))
        txt = emit_rtl_text(ctrl)
        assert "controller II=2" in txt
        assert "inst c : u_clip latency=2" in txt
