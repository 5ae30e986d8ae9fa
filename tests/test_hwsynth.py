import hashlib
import importlib.resources as ir
import random
import sys

import pytest

from fdmflow.flow import FlowError, compile_design, default_stimulus
from fdmflow.hwsynth import ControllerSim, HwSynthError, RtlCycleSim, \
    delay_correct, emit_rtl_text, fsm_controller, library_entry, \
    map_rtl_library, pipelineable
from fdmflow.model.blocks import init_state, port_names
from fdmflow.model.graph import Block, Endpoint, Link, Subsystem, flatten
from fdmflow.model.parser import parse_model
from fdmflow.model.validate import validate_model
from fdmflow.sim.engine import Engine
from fdmflow.sim.trace import Stimulus

from helpers import ACCLOOP_FDM, ELEMENTS_FDM, FANOUT_FDM, FEEDBACK_FDM, \
    LOOSE_FDM, MIX2_FDM, NESTED_HW_FDM, OUTLINK_FDM, PIPEDELAY_FDM, \
    add_loose_ports, as_model, hw_stream, level0, map_node, \
    rand_hw_subsystem, rand_loopy_model, rand_partitioned_model, \
    rand_pipeline_node, total_registers


def _link(a, ap, b, bp):
    return Link(Endpoint(a, ap), Endpoint(b, bp))


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


# kind, params, cost override -> its ports, zero state and RTL IP
KIND_FACTS = [pytest.param(*case, id=f"{case[0]}{case[1]}" + (
    f"-cost{case[2]}" if case[2] else "")) for case in [
    ("const", (5,), None, ((), ("out",)), None, ("const_reg", 0, "pipelined")),
    ("add", (), None, (("in1", "in2"), ("out",)), None,
     ("adder", 0, "pipelined")),
    ("sub", (), None, (("in1", "in2"), ("out",)), None,
     ("subtractor", 0, "pipelined")),
    ("mul", (), None, (("in1", "in2"), ("out",)), None,
     ("multiplier", 1, "pipelined")),
    ("gain", (3,), None, (("in",), ("out",)), None,
     ("scaler", 0, "pipelined")),
    ("gain", (3,), 2, (("in",), ("out",)), None, ("scaler", 2, "pipelined")),
    ("gain", (2,), None, (("in",), ("out",)), None,
     ("scaler", 0, "pipelined")),
    ("gain", (2,), 3, (("in",), ("out",)), None, ("scaler", 3, "pipelined")),
    ("quant", (-7,), None, (("in",), ("out",)), None,
     ("quantizer", 1, "pipelined")),
    ("quant", (2,), None, (("in",), ("out",)), None,
     ("quantizer", 1, "pipelined")),
    ("if_else", (), None, (("pred", "a", "b"), ("out",)), None,
     ("selector", 0, "pipelined")),
    ("delay", (2,), None, (("in",), ("out",)), (0, 0),
     ("delay_line", 0, "pipelined")),
    ("fir", (4,), None, (("in",), ("out",)), (), ("fir_core", 1, "pipelined")),
    ("fir", (1,), None, (("in",), ("out",)), (), ("fir_core", 1, "pipelined")),
    ("fir", (1, 1), None, (("in",), ("out",)), (0,),
     ("fir_core", 2, "pipelined")),
    ("fir", (1, -2), None, (("in",), ("out",)), (0,),
     ("fir_core", 2, "pipelined")),
    ("fir", (1, 2, 3), None, (("in",), ("out",)), (0, 0),
     ("fir_core", 3, "pipelined")),
    ("fir", (1, 1, 1, 1), None, (("in",), ("out",)), (0, 0, 0),
     ("fir_core", 3, "pipelined")),
    ("fir", (1, 2, 3, 4, 5), None, (("in",), ("out",)), (0, 0, 0, 0),
     ("fir_core", 4, "pipelined")),
    ("fir", (1, 1, 1, 1, 1), None, (("in",), ("out",)), (0, 0, 0, 0),
     ("fir_core", 4, "pipelined")),
    ("fir", (1, 2, 3), 5, (("in",), ("out",)), (0, 0),
     ("fir_core", 5, "pipelined")),
    ("for_loop", (3, "inc"), None, (("in",), ("out",)), None,
     ("loop_engine", 3, "multicycle")),
    ("mux", (2,), None, (("sel", "in0", "in1"), ("out",)), None,
     ("mux", 0, "pipelined")),
    ("demux", (3,), None, (("sel", "in"), ("out0", "out1", "out2")), None,
     ("demux", 0, "pipelined")),
    ("user", ("clip",), None, (("in",), ("out",)), None,
     ("u_clip", 2, "multicycle")),
    ("user", ("inc",), 7, (("in",), ("out",)), None,
     ("u_inc", 7, "multicycle")),
    ("user", ("mix2",), None, (("in1", "in2"), ("out",)), None,
     ("u_mix2", 1, "multicycle")),
    # an unknown function gets one in and one out; validation reports it
    ("user", ("nope",), None, (("in",), ("out",)), None,
     ("u_nope", 1, "multicycle")),
    ("sink", (), None, (("in",), ()), None, ("probe", 0, "pipelined")),
]]


class TestLibrary:
    @pytest.mark.parametrize("kind,params,cost,ports,state,ip", KIND_FACTS)
    def test_kind_facts(self, kind, params, cost, ports, state, ip):
        """Each kind's ports, zero state and RTL IP for one parameter set."""
        assert port_names(kind, params) == ports
        assert init_state(kind, params) == state
        e = library_entry(kind, params, cost)
        assert (e.rtl_name, e.latency, e.eligibility) == ip


class TestMapRtlLibrary:
    def test_fir_quant_chain(self):
        sub = _chain("HW_x", [("f", "fir", (1, 2, 3, 4)), ("q", "quant", (2,))])
        g = map_rtl_library(sub.id, flatten(as_model(sub)))
        assert g.flat.blocks.keys() == g.ips.keys()
        assert g.ips["f"].latency == 3
        assert g.ips["q"].latency == 1
        assert list(g.ips) == ["f", "q"]

    def test_empty_node(self):
        sub = Subsystem("HW_e", inputs=["in"], outputs=["out"],
                        links=[_link("self", "in", "self", "out")])
        g = map_node(sub)
        assert g.ips == {}
        assert g.flat.top_outputs == {"out": ("top", "in")}

    def test_unregistered_user_without_cost(self):
        sub = _chain("HW_u", [("mystery", "user", ("huff",))])
        with pytest.raises(HwSynthError, match="mystery"):
            map_node(sub)

    def test_delay_cost_rejected(self):
        # a delay's lag is its functional k; a cycle cost would skew it
        sub = _chain("HW_d", [("g", "gain", (3,)), ("d", "delay", (1,))])
        with pytest.raises(HwSynthError, match="HW_d/d"):
            map_node(sub, {"d": 2})

    def test_flat_graph_issue(self):
        sub = _chain("HW_i", [("g", "gain", (2,))])
        sub.links.pop(0)  # g.in undriven
        with pytest.raises(HwSynthError, match=r"^HW_i: input g\.in is not "
                           r"driven by any link \(g\)$"):
            map_node(sub)

    def test_cycle_without_delay(self):
        sub = Subsystem("HW_c", inputs=["in"], outputs=["out"],
                        blocks=[Block("a", "add"), Block("b", "gain", (2,))],
                        links=[_link("self", "in", "a", "in1"),
                               _link("b", "out", "a", "in2"),
                               _link("a", "out", "b", "in"),
                               _link("a", "out", "self", "out")])
        with pytest.raises(HwSynthError, match=r"cycle without a declared "
                           r"delay involving \['a', 'b'\]"):
            map_node(sub)

    def test_cost_param_rescues_user_block(self):
        sub = _chain("HW_u", [("mystery", "user", ("huff",))])
        g = map_node(sub, costs={"mystery": 5})
        assert g.ips["mystery"].latency == 5
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
    return map_node(sub, costs={"a": 3, "b": 1, "j": 0})


class TestDelayCorrect:
    def test_diamond(self):
        impl = delay_correct(_diamond())
        assert (impl.kind, impl.latency) == ("pipelined", 3)
        assert total_registers(impl) == 2
        assert impl.graph.regs == {("a", "in"): 0, ("b", "in"): 0,
                                   ("j", "in1"): 0, ("j", "in2"): 2,
                                   (None, "out"): 0}

    def test_single_chain_no_regs(self):
        sub = _chain("HW_c", [("a", "gain", (1,)), ("b", "gain", (1,))])
        impl = delay_correct(map_node(sub, costs={"a": 1, "b": 2}))
        assert (impl.latency, total_registers(impl)) == (3, 0)

    def test_all_zero_identity(self):
        sub = _chain("HW_z", [("a", "gain", (1,)), ("b", "gain", (2,))])
        impl = delay_correct(map_node(sub))
        assert (impl.latency, total_registers(impl)) == (0, 0)

    def test_multicycle_rejected(self):
        sub = _chain("HW_u", [("c", "user", ("clip",))])
        with pytest.raises(HwSynthError, match="multicycle"):
            delay_correct(map_node(sub))

    def test_path_balance_invariant(self):
        # every input-to-node path carries equal registered latency
        for seed in range(30):
            rng = random.Random(seed)
            sub, costs = rand_pipeline_node(rng)
            impl = delay_correct(map_node(sub, costs))
            g, k = impl.graph, impl.latency
            wires = dict(g.flat.drivers)
            wires |= {(None, p): s for p, s in g.flat.top_outputs.items()}
            assert g.regs.keys() == wires.keys()
            # a block's level: its latency after its latest input
            levels = {}
            for n in g.order:
                levels[n] = g.ips[n].latency + max(
                    (levels[s[1]] for (d, _), s in g.flat.drivers.items()
                     if d == n and s[0] == "block"), default=0)
            for (dst, port), src in wires.items():
                need = levels[dst] - g.ips[dst].latency if dst else k
                have = levels[src[1]] if src[0] == "block" else 0
                assert have + g.regs[(dst, port)] == need, f"seed {seed}"


class TestController:
    def test_ii_sum(self):
        sub = _chain("HW_s", [("a", "gain", (1,)), ("b", "gain", (1,)),
                              ("c", "gain", (1,))])
        ctrl = fsm_controller(map_node(sub, {"a": 2, "b": 1, "c": 3}))
        assert (ctrl.kind, ctrl.latency) == ("controller", 6)
        assert ctrl.graph.order == ["a", "b", "c"]

    def test_ii_floor_one(self):
        sub = _chain("HW_s", [("a", "gain", (1,))])
        assert fsm_controller(map_node(sub, {"a": 0})).latency == 1

    def test_stream_matches_functional_per_ii(self):
        for seed in range(20):
            rng = random.Random(200 + seed)
            sub = rand_hw_subsystem(rng, "c", force_controller=True)
            ctrl = fsm_controller(map_node(sub))
            xs = [rng.randint(-100, 100) for _ in range(20)]
            stim = Stimulus({"in": xs}, 20)
            got = hw_stream(ControllerSim(ctrl).fire, stim, 20)
            ref = level0(as_model(sub)).run(stim, 20)
            assert got.values("out") == ref.values("out"), f"seed {seed}"


class TestCycleAccuracy:
    def test_shifted_by_k(self):
        # raw cycle stream equals the functional stream delayed by k
        for seed in range(40):
            rng = random.Random(seed)
            sub, costs = rand_pipeline_node(rng)
            impl = delay_correct(map_node(sub, costs))
            k = impl.latency
            n = 30
            xs = [rng.randint(-100, 100) for _ in range(n)]
            stim = Stimulus({"in": xs}, n)
            cyc = hw_stream(RtlCycleSim(impl).step, stim, n + k)
            ref = level0(as_model(sub)).run(stim, n)
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
        impl = delay_correct(map_node(sub, {"dm": 2, "g": 1}))
        k = impl.latency
        assert k == 3 and total_registers(impl) == 1
        xs = list(range(-6, 6))
        stim = Stimulus({"in": xs}, len(xs))
        cyc = hw_stream(RtlCycleSim(impl).step, stim, len(xs) + k)
        ref = level0(as_model(sub)).run(stim, len(xs))
        assert cyc.values("out")[k:] == ref.values("out")

    def test_declared_delay_is_functional(self):
        # feedback accumulator through a declared delay block
        sub = Subsystem("HW_acc", inputs=["in"], outputs=["out"],
                        blocks=[Block("a", "add"), Block("d", "delay", (1,))],
                        links=[_link("self", "in", "a", "in1"),
                               _link("d", "out", "a", "in2"),
                               _link("a", "out", "d", "in"),
                               _link("a", "out", "self", "out")])
        impl = delay_correct(map_node(sub))
        assert impl.latency == 0
        stim = Stimulus({"in": [1, 1, 1, 1]}, 4)
        tr = hw_stream(RtlCycleSim(impl).step, stim, 4)
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
        impl = delay_correct(map_node(sub))
        k = impl.latency
        assert (k, total_registers(impl)) == (1, 1)
        assert impl.graph.regs[("s", "in2")] == 1
        xs = list(range(-7, 9))
        stim = Stimulus({"in": xs}, len(xs))
        cyc = hw_stream(RtlCycleSim(impl).step, stim, len(xs) + k)
        ref = level0(as_model(sub)).run(stim, len(xs))
        assert cyc.values("out")[k:] == ref.values("out")


class TestLoopSearch:
    def test_loops_match_path_oracle(self):
        """A wire out of a delay closes a loop when its consumer reaches
        the delay, a block is on a loop when it lies on a path from such a
        wire's consumer to its delay, and a graph of pipelined IPs is
        pipelineable when no block on a loop has latency: checked with
        networkx path searches on every valid ``rand_loopy_model`` graph
        of seeds 0-2999 under random latencies."""
        import networkx as nx
        checked = 0
        for seed in range(3000):
            rng = random.Random(seed)
            g = rand_loopy_model(rng)
            if not validate_model(g).ok:
                continue
            flat = flatten(g)
            costs = {p: rng.randint(0, 2) for p, b in flat.blocks.items()
                     if b.kind != "delay"}
            rg = map_rtl_library(g.name, flat, costs)
            G = nx.DiGraph()
            G.add_nodes_from(flat.blocks)
            G.add_edges_from((src[1], w[0]) for w, src in flat.drivers.items()
                             if src[0] == "block")
            loops = {w for w, src in flat.drivers.items() if src[0] == "block"
                     and flat.blocks[src[1]].kind == "delay"
                     and nx.has_path(G, w[0], src[1])}
            on_loop = {n for w in loops for n in flat.blocks
                       if nx.has_path(G, w[0], n)
                       and nx.has_path(G, n, flat.drivers[w][1])}
            assert rg.loops == loops, f"seed {seed}"
            assert rg.on_loop == on_loop, f"seed {seed}"
            assert pipelineable(rg) == \
                (not any(costs.get(n) for n in on_loop)), f"seed {seed}"
            checked += 1
        assert checked == 576

    def test_one_search_per_node(self, monkeypatch):
        """Compiling searches the model once to validate it and each
        hardware node's graph once; building a level-3 engine searches
        and orders no graph."""
        calls = []

        def counted(fn):
            def search(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return search

        for name, mod in list(sys.modules.items()):
            if name.startswith("fdmflow"):
                for fn in ("sccs", "stable_topo", "topo_order"):
                    if hasattr(mod, fn):
                        monkeypatch.setattr(mod, fn, counted(getattr(mod, fn)))
        mini = (ir.files("fdmflow") / "models" / "mini_codec.fdm").read_text()
        for text in (mini, ACCLOOP_FDM, PIPEDELAY_FDM, FANOUT_FDM):
            calls.clear()
            cd = compile_design(parse_model(text))
            nodes = sum(n.role == "hardware" for n in cd.tlm.nodes.values())
            assert calls.count("sccs") == 1 + nodes
            calls.clear()
            Engine(cd, dict.fromkeys(cd.tlm.nodes, 3),
                   default_stimulus(cd.model, 8), 8)
            assert calls == []


class TestEmission:
    def test_pipelined_text(self):
        impl = delay_correct(_diamond())
        txt = emit_rtl_text(impl)
        assert "latency k=3" in txt
        assert txt.count("reg ") == 2
        assert "inst a : scaler latency=3" in txt
        assert emit_rtl_text(impl) == txt  # stable

    def test_wires_by_block_then_port_name(self):
        # the mux's ports are sel, in0, in1; its wires are listed by name
        sub = Subsystem("HW_s", inputs=["in"], outputs=["out"],
                        blocks=[Block("g", "gain", (2,)),
                                Block("s", "mux", (2,))],
                        links=[_link("self", "in", "g", "in"),
                               _link("g", "out", "s", "sel"),
                               _link("self", "in", "s", "in0"),
                               _link("self", "in", "s", "in1"),
                               _link("s", "out", "self", "out")])
        impl = delay_correct(map_node(sub, {"g": 1}))
        assert emit_rtl_text(impl) == (
            "design HW_s\nlatency k=1\ninst g : scaler latency=1\n"
            "inst s : mux latency=0\nreg bal_in:in_s_in0_0\n"
            "reg bal_in:in_s_in1_0\nwire in:in -> g.in\n"
            "wire in:in -> s.in0 regs=1\nwire in:in -> s.in1 regs=1\n"
            "wire g -> s.sel\nwire s -> out:out.in\n")

    def test_controller_text(self):
        sub = _chain("HW_s", [("c", "user", ("clip",))])
        ctrl = fsm_controller(map_node(sub))
        txt = emit_rtl_text(ctrl)
        assert "controller II=2" in txt
        assert "inst c : u_clip latency=2" in txt


class TestPinnedTexts:
    RTL_TEXTS = \
        "6e146020d58844c7ec72c7cb339622e57f8d4581956811e1913be2eb72e56fbb"

    def test_pinned_rtl_texts(self):
        """One SHA-256 over (node, kind, latency, ``emit_rtl_text``) of every
        hardware node the flow compiles, for the designs of
        ``test_pinned_gma_texts`` plus ``rand_loopy_model`` seeds 0-29; a
        design that does not compile adds nothing."""
        mini = (ir.files("fdmflow") / "models" / "mini_codec.fdm").read_text()
        models = [parse_model(text) for text in (
            mini, FEEDBACK_FDM, MIX2_FDM, LOOSE_FDM, OUTLINK_FDM,
            PIPEDELAY_FDM, ACCLOOP_FDM, FANOUT_FDM, NESTED_HW_FDM,
            ELEMENTS_FDM)]
        for loose in (False, True):
            for seed in range(30):
                rng = random.Random(seed)
                g = rand_partitioned_model(rng)
                if loose:
                    add_loose_ports(rng, g)
                models.append(g)
        models += [rand_loopy_model(random.Random(seed)) for seed in range(30)]
        h = hashlib.sha256()
        for g in models:
            try:
                cd = compile_design(g)
            except FlowError:
                continue
            for node, impl in cd.hw_impl.items():
                h.update(f"{node}\0{impl.kind}\0{impl.latency}\0"
                         f"{emit_rtl_text(impl)}\0".encode())
        assert h.hexdigest() == self.RTL_TEXTS
