import hashlib
import importlib.resources as ir
import random

import pytest

from fdmflow.gma import attach_params, build_tree, emit_netlist, \
    emit_param_templates, gen_task_behavior, load_param_files, \
    netlist_to_json, param_files
from fdmflow.flow import FlowError, generate_macro
from fdmflow.gma.behavior import Call, Recv, Send, format_behavior
from fdmflow.gma.params import ParamError
from fdmflow.model.graph import Block, Endpoint, Link, ModelGraph, Subsystem
from fdmflow.model.parser import parse_model
from fdmflow.sim.trace import Stimulus
from fdmflow.swsynth import build_task_fsm
from fdmflow.tlm import recognize_partition

from helpers import ACCLOOP_FDM, ELEMENTS_FDM, FANOUT_FDM, FEEDBACK_FDM, \
    LOOSE_FDM, MIX2_FDM, NESTED_HW_FDM, OUTLINK_FDM, PIPEDELAY_FDM, \
    add_loose_ports, level0, parse_netlist_json, port_of, \
    rand_partitioned_model, rand_task_subsystem, run_task, validate_netlist, \
    walk


def mini_tlm():
    text = (ir.files("fdmflow") / "models" / "mini_codec.fdm").read_text()
    return recognize_partition(parse_model(text))


def _two_task_model():
    sw = Subsystem("SW_c", inputs=["i"], outputs=["o"])
    for name in ("TASK_a", "TASK_b"):
        sw.subsystems.append(Subsystem(
            name, inputs=["in"], outputs=["out"],
            blocks=[Block("k", "gain", (2,))],
            links=[Link(Endpoint("self", "in"), Endpoint("k", "in")),
                   Link(Endpoint("k", "out"), Endpoint("self", "out"))]))
    sw.links = [Link(Endpoint("self", "i"), Endpoint("TASK_a", "in")),
                Link(Endpoint("TASK_a", "out"), Endpoint("TASK_b", "in")),
                Link(Endpoint("TASK_b", "out"), Endpoint("self", "o"))]
    hw = Subsystem("HW_fir", inputs=["in"], outputs=["out"],
                   blocks=[Block("f", "fir", (1, 1))],
                   links=[Link(Endpoint("self", "in"), Endpoint("f", "in")),
                          Link(Endpoint("f", "out"), Endpoint("self", "out"))])
    g = ModelGraph("m", inputs=["x"], outputs=["y"], subsystems=[sw, hw],
                   links=[Link(Endpoint("self", "x"), Endpoint("SW_c", "i")),
                          Link(Endpoint("SW_c", "o"), Endpoint("HW_fir", "in")),
                          Link(Endpoint("HW_fir", "out"), Endpoint("self", "y"))])
    return g


class TestTree:
    """The netlist's module tree, built straight from the partition."""

    def test_small_construction(self):
        top = build_tree(recognize_partition(_two_task_model()))
        kinds = {}
        for m in walk(top):
            kinds.setdefault(m.kind, []).append(m.name)
        assert kinds == {"top": ["m"], "sw_node": ["SW_c"],
                         "task": ["TASK_a", "TASK_b"],
                         "hw_node": ["HW_fir"], "ip": ["f"]}

    def test_testbench_only(self):
        g = ModelGraph("m", inputs=["x"], outputs=["y"],
                       blocks=[Block("p", "gain", (1,)), Block("q", "gain", (1,))],
                       links=[Link(Endpoint("self", "x"), Endpoint("p", "in")),
                              Link(Endpoint("p", "out"), Endpoint("q", "in")),
                              Link(Endpoint("q", "out"), Endpoint("self", "y"))])
        top = build_tree(recognize_partition(g))
        assert [(m.name, m.kind, m.params) for m in top.children] == \
            [("p", "ip", {"kind": "gain"}), ("q", "ip", {"kind": "gain"})]

    def test_mini_codec_pinned_counts(self):
        kinds = {}
        for m in walk(build_tree(mini_tlm())):
            kinds.setdefault(m.kind, []).append(m.name)
        assert kinds == {
            "top": ["mini_codec"], "sw_node": ["SW_cpu"],
            "task": ["TASK_unpack", "TASK_dequant", "TASK_mix"],
            "hw_node": ["HW_filter", "HW_post"],
            "ip": ["bank", "tap", "mixr", "sat", "rnd", "reader", "writer"],
            "channel_adapter": ["CHAN_feed"]}


class TestNetlist:
    def test_module_mapping(self):
        nl = emit_netlist(recognize_partition(_two_task_model()))
        kinds = {p: m.kind for p, m in nl.modules()}
        assert kinds == {"m": "top", "m/SW_c": "sw_node",
                         "m/SW_c/TASK_a": "task", "m/SW_c/TASK_b": "task",
                         "m/HW_fir": "hw_node", "m/HW_fir/f": "ip"}
        # cross-node link SW_c -> HW_fir yields exactly one net
        between = [n for n in nl.nets
                   if any("TASK_b" in e for e in n.endpoints)
                   and any("HW_fir" in e for e in n.endpoints)]
        assert len(between) == 1

    def test_port_directions_preserved(self):
        nl = emit_netlist(mini_tlm())
        top = nl.top
        assert port_of(top, "bitstream").direction == "in"
        assert port_of(top, "audio").direction == "out"

    def test_structurally_valid(self):
        nl = emit_netlist(mini_tlm())
        assert validate_netlist(nl) == []

    def test_round_trip(self):
        nl = emit_netlist(mini_tlm())
        assert parse_netlist_json(netlist_to_json(nl)) == nl

    def test_mini_codec_counts(self):
        nl = emit_netlist(mini_tlm())
        assert len(nl.modules()) == 15
        assert len(nl.nets) == 8


class TestPinnedTexts:
    GMA_TEXTS = \
        "f92524acd3b0b18bfbcb6912ce383f333e59fc0b13b01ba3d2845b1a8734017b"

    def test_pinned_gma_texts(self):
        """One SHA-256 over what ``fdmflow gma`` writes for each design: the
        netlist JSON with its parameters bound, the parameter files in
        module order and every unit's ``format_behavior`` listing.  The
        designs are mini_codec, the fixed models of helpers.py and the
        ``rand_partitioned_model`` seeds 0-29 with and without
        ``add_loose_ports``; a design the partition rejects adds nothing."""
        models = [mini_tlm().base] + [parse_model(text) for text in (
            FEEDBACK_FDM, MIX2_FDM, LOOSE_FDM, OUTLINK_FDM, PIPEDELAY_FDM,
            ACCLOOP_FDM, FANOUT_FDM, NESTED_HW_FDM, ELEMENTS_FDM)]
        for loose in (False, True):
            for seed in range(30):
                rng = random.Random(seed)
                g = rand_partitioned_model(rng)
                if loose:
                    add_loose_ports(rng, g)
                models.append(g)
        h = hashlib.sha256()
        for g in models:
            try:
                md = generate_macro(g)
            except FlowError:
                continue
            h.update(netlist_to_json(md.netlist).encode())
            for name, text in param_files(md.params).items():
                h.update(f"{name}\0{text}\0".encode())
            for u in sorted(md.behaviors):
                h.update(format_behavior(md.behaviors[u]).encode())
        assert h.hexdigest() == self.GMA_TEXTS


class TestParams:
    def test_template_shape(self):
        nl = emit_netlist(mini_tlm())
        ps = emit_param_templates(nl)
        total_ports = sum(len(m.ports) for _, m in nl.modules())
        entries = sum(1 + len(mp.ports) for mp in ps.entries.values())
        assert entries == total_ports + len(nl.modules())

    def test_template_deterministic(self):
        nl = emit_netlist(mini_tlm())
        assert param_files(emit_param_templates(nl)) == \
            param_files(emit_param_templates(nl))

    def test_attach_defaults_never_errors(self):
        nl = emit_netlist(mini_tlm())
        bound = attach_params(nl, emit_param_templates(nl))
        assert bound.module_at("mini_codec/HW_post").params["cost_cycles"] == 0

    def test_missing_key(self):
        nl = emit_netlist(mini_tlm())
        ps = emit_param_templates(nl)
        del ps.entries["mini_codec/HW_post"].module["cost_cycles"]
        with pytest.raises(ParamError, match="mini_codec/HW_post"):
            attach_params(nl, ps)

    def test_unknown_key(self):
        nl = emit_netlist(mini_tlm())
        ps = emit_param_templates(nl)
        ps.entries["mini_codec/HW_post"].module["foo"] = 1
        with pytest.raises(ParamError, match="foo"):
            attach_params(nl, ps)

    def test_type_mismatch(self):
        nl = emit_netlist(mini_tlm())
        ps = emit_param_templates(nl)
        ps.entries["mini_codec/HW_post"].module["cost_cycles"] = "lots"
        with pytest.raises(ParamError, match="integer"):
            attach_params(nl, ps)

    def test_file_round_trip(self):
        nl = emit_netlist(mini_tlm())
        ps = emit_param_templates(nl)
        ps2 = load_param_files(param_files(ps))
        assert attach_params(nl, ps2) == attach_params(nl, ps)


class TestBehaviorModes:
    def test_direct_user(self):
        t = mini_tlm()
        b = gen_task_behavior(t, "SW_cpu/TASK_unpack")
        assert b.mode == "direct_user"
        kinds = [type(s).__name__ for s in b.body]
        assert kinds == ["Recv", "Call", "Send"]
        assert b.body[1].name == "huff"

    def test_library_instance_call_names_kind(self):
        t = mini_tlm()
        b = gen_task_behavior(t, "SW_cpu/TASK_mix")
        assert b.mode == "library_instance"
        call = next(s for s in b.body if isinstance(s, Call))
        assert call.name == "gain"

    def test_merged_topological_order_and_state(self):
        t = mini_tlm()
        b = gen_task_behavior(t, "SW_cpu/TASK_dequant")
        assert b.mode == "merged"
        names = [s.name for s in b.body if isinstance(s, Call)]
        assert names.index("gain") < names.index("quant") < names.index("sub")
        assert b.states == {"hist": (0,)}
        # delay emit before anything uses it, push at the end
        assert names[0] == "__delay_emit__" and names[-1] == "__delay_push__"

    def test_unknown_task(self):
        from fdmflow.gma.behavior import BehaviorError
        with pytest.raises(BehaviorError):
            gen_task_behavior(mini_tlm(), "SW_cpu/TASK_missing")


class TestMergedPreservesSemantics:
    def test_random_tasks_match_level0(self):
        # oracle: level-0 simulation of the task's own block set
        for seed in range(30):
            rng = random.Random(1000 + seed)
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
            b = gen_task_behavior(t, f"SW_n/{sub.id}")
            fsm = build_task_fsm(b)
            xs = [rng.randint(-500, 500) for _ in range(40)]
            got = run_task(fsm, {"in": xs})["out"]
            ref_g = ModelGraph("ref", blocks=sub.blocks,
                               links=sub.links, inputs=["in"], outputs=["out"])
            ref = level0(ref_g).run(Stimulus({"in": xs}, 40), 40)
            assert got == ref.values("out"), f"seed {seed}"
