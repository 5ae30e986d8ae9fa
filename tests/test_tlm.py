import hashlib
import importlib.resources as ir
import random

from fdmflow import cli
from fdmflow.flow import FlowError, generate_macro
from fdmflow.model.graph import Block, Endpoint, Link, ModelGraph, Subsystem
from fdmflow.model.parser import parse_model
from fdmflow.tlm import recognize_partition, validate_partition

import helpers
from helpers import ACCLOOP_FDM, ELEMENTS_FDM, FANOUT_FDM, FEEDBACK_FDM, \
    LOOSE_FDM, MIX2_FDM, NESTED_HW_FDM, OUTLINK_FDM, PIPEDELAY_FDM, \
    add_loose_ports, rand_loopy_model, rand_partitioned_model


def mini_codec():
    text = (ir.files("fdmflow") / "models" / "mini_codec.fdm").read_text()
    return parse_model(text)


class TestRecognition:
    def test_mini_codec_partition(self):
        t = recognize_partition(mini_codec())
        assert set(t.nodes) == {"SW_cpu", "HW_filter", "HW_post"}
        assert t.nodes["SW_cpu"].role == "software"
        tasks = [u for u in t.units.values() if u.kind == "task"]
        assert [u.name for u in tasks] == [
            "SW_cpu/TASK_unpack", "SW_cpu/TASK_dequant", "SW_cpu/TASK_mix"]
        assert t.testbench == ["reader", "writer"]

    def test_mini_codec_channels(self):
        t = recognize_partition(mini_codec())
        assert len(t.channels) == 8
        feed = next(c for c in t.channels if c.id == "CHAN_feed")
        assert feed.explicit and feed.fifo_depth == 2
        assert feed.topology == "point_to_point"
        assert [str(p) for p in feed.producers] == ["SW_cpu/TASK_dequant.out"]
        assert [str(c) for c in feed.consumers] == ["HW_filter.in"]
        implicit = [c for c in t.channels if not c.explicit]
        assert all(c.fifo_depth == 1 for c in implicit)

    def test_direct_sw_block_becomes_task(self):
        g = ModelGraph("m", inputs=["x"], outputs=["y"])
        sw = Subsystem("SW_a", inputs=["i"], outputs=["o"],
                       blocks=[Block("k", "gain", (2,))],
                       links=[Link(Endpoint("self", "i"), Endpoint("k", "in")),
                              Link(Endpoint("k", "out"), Endpoint("self", "o"))])
        g.subsystems.append(sw)
        g.links += [Link(Endpoint("self", "x"), Endpoint("SW_a", "i")),
                    Link(Endpoint("SW_a", "o"), Endpoint("self", "y"))]
        t = recognize_partition(g)
        assert t.units["SW_a/k"].kind == "task"
        assert t.units["SW_a/k"].block is not None

    def test_multipoint_consumer_set(self):
        g = ModelGraph("m", inputs=["x"], outputs=["y1", "y2"])
        hw = Subsystem("HW_a", inputs=["in"], outputs=["out"],
                       blocks=[Block("k", "gain", (2,))],
                       links=[Link(Endpoint("self", "in"), Endpoint("k", "in")),
                              Link(Endpoint("k", "out"), Endpoint("self", "out"))])
        g.subsystems.append(hw)
        g.links += [Link(Endpoint("self", "x"), Endpoint("HW_a", "in")),
                    Link(Endpoint("HW_a", "out"), Endpoint("self", "y1")),
                    Link(Endpoint("HW_a", "out"), Endpoint("self", "y2"))]
        t = recognize_partition(g)
        ch = next(c for c in t.channels if c.producers[0].unit == "HW_a")
        assert ch.topology == "multipoint"
        assert len(ch.consumers) == 2


class TestPartitionValidation:
    def test_mini_codec_clean(self):
        t = recognize_partition(mini_codec())
        assert validate_partition(t).ok

    def test_task_outside_sw_node(self):
        g = ModelGraph("m")
        g.subsystems.append(Subsystem("TASK_oops"))
        t = recognize_partition(g)
        rep = validate_partition(t)
        assert any("TASK_" in d.message for d in rep.errors())

    def test_hw_nested_in_sw(self):
        sw = Subsystem("SW_a", subsystems=[Subsystem("HW_bad")])
        g = ModelGraph("m", subsystems=[sw])
        rep = validate_partition(recognize_partition(g))
        assert not rep.ok

    def test_p2p_arity(self):
        # point_to_point channel, set or by default, with two consumers is
        # illegal
        for params in ({"topology": "point_to_point", "depth": 1}, {}):
            g = ModelGraph("m", inputs=["x"], outputs=["y1", "y2"])
            hw = Subsystem("HW_a", inputs=["in"], outputs=["out"],
                           blocks=[Block("k", "gain", (2,))],
                           links=[Link(Endpoint("self", "in"), Endpoint("k", "in")),
                                  Link(Endpoint("k", "out"), Endpoint("self", "out"))])
            chan = Subsystem("CHAN_c", inputs=["in"], outputs=["out"],
                             params=params)
            g.subsystems += [hw, chan]
            g.links += [Link(Endpoint("self", "x"), Endpoint("HW_a", "in")),
                        Link(Endpoint("HW_a", "out"), Endpoint("CHAN_c", "in")),
                        Link(Endpoint("CHAN_c", "out"), Endpoint("self", "y1")),
                        Link(Endpoint("CHAN_c", "out"), Endpoint("self", "y2"))]
            t = recognize_partition(g)
            rep = validate_partition(t)
            assert [d.message for d in rep.errors()] == [
                "point_to_point channel must have exactly one producer and "
                "one consumer (has 1/2)"], params

    def test_unknown_topology(self):
        g = ModelGraph("m", inputs=["x"], outputs=["y"])
        chan = Subsystem("CHAN_c", inputs=["in"], outputs=["out"],
                         params={"topology": "rings", "depth": 1})
        g.subsystems.append(chan)
        g.links += [Link(Endpoint("self", "x"), Endpoint("CHAN_c", "in")),
                    Link(Endpoint("CHAN_c", "out"), Endpoint("self", "y"))]
        rep = validate_partition(recognize_partition(g))
        assert any("topology" in d.message for d in rep.errors())

    def test_hw_user_without_rtl_entry_warns(self):
        hw = Subsystem("HW_a", inputs=["in"], outputs=["out"],
                       blocks=[Block("u", "user", ("huff",))],
                       links=[Link(Endpoint("self", "in"), Endpoint("u", "in")),
                              Link(Endpoint("u", "out"), Endpoint("self", "out"))])
        g = ModelGraph("m", inputs=["x"], outputs=["y"], subsystems=[hw],
                       links=[Link(Endpoint("self", "x"), Endpoint("HW_a", "in")),
                              Link(Endpoint("HW_a", "out"), Endpoint("self", "y"))])
        rep = validate_partition(recognize_partition(g))
        assert rep.ok  # warning only
        assert any(d.severity == "warning" for d in rep.diagnostics)


class TestPinned:
    PARTITIONS = \
        "334b8a9c847140a2d9ba84901808da04c5e7e0064b81519a7ee026c37b39977b"

    def test_pinned_partitions(self):
        """One SHA-256 over a canonical text of ``recognize_partition``: the
        nodes with their units, every unit's kind, source and ports, the
        testbench, and each channel's id, topology, producers, consumers,
        depth, explicit flag and chain pins in order.  The designs are
        those of ``test_gma.py``'s ``test_pinned_gma_texts`` plus the
        ``rand_loopy_model`` seeds 0-29."""
        models = [mini_codec()] + [parse_model(text) for text in (
            FEEDBACK_FDM, MIX2_FDM, LOOSE_FDM, OUTLINK_FDM, PIPEDELAY_FDM,
            ACCLOOP_FDM, FANOUT_FDM, NESTED_HW_FDM, ELEMENTS_FDM)]
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
            t = recognize_partition(g)
            lines = [f"model {g.name}"]
            lines += [f"node {n.name} {n.role} {n.units}"
                      for n in t.nodes.values()]
            lines += [f"unit {u.name} {u.kind} "
                      f"{(u.subsystem or u.block).id} {u.in_ports} {u.out_ports}"
                      for u in t.units.values()]
            lines.append(f"testbench {t.testbench}")
            lines += [f"channel {c.id} {c.topology} {list(map(str, c.producers))} "
                      f"{list(map(str, c.consumers))} {c.fifo_depth!r} "
                      f"{c.explicit} {c.chain}" for c in t.channels]
            h.update(("\n".join(lines) + "\n").encode())
        assert h.hexdigest() == self.PARTITIONS


def _gate_designs():
    """``mini_codec``, the ``*_FDM`` helpers and the random designs of
    seeds 0-59: loopy, partitioned, and partitioned with loose ports."""
    yield "mini_codec", mini_codec()
    for name, text in sorted(vars(helpers).items()):
        if name.endswith("_FDM"):
            yield name, parse_model(text)
    for seed in range(60):
        yield f"loopy{seed}", rand_loopy_model(random.Random(seed))
        for loose in (False, True):
            rng = random.Random(seed)
            g = rand_partitioned_model(rng)
            if loose:
                add_loose_ports(rng, g)
            yield f"rand{seed}{'-loose' * loose}", g


def test_check_and_flow_stop_at_one_gate(monkeypatch, capsys):
    """On each design, ``check`` exits 1 exactly when ``generate_macro``
    stops at ``[validate]`` or ``[partition]``, and the first ``error:``
    line of ``check`` ends with the location and message ``flow`` prints
    after its stage tag (the location only at ``[partition]``)."""
    stops = {"validate": 0, "partition": 0, None: 0}
    for name, g in _gate_designs():
        monkeypatch.setattr(cli, "load_model_file", lambda path, g=g: g)
        rc = cli.main(["check", "--model", name])
        errors = [ln for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("error: ")]
        stage = text = None
        try:
            generate_macro(g)
        except FlowError as e:
            tag, _, text = str(e).partition("] ")
            stage = tag[1:] if tag in ("[validate", "[partition") else None
        assert rc == (1 if stage else 0), name
        if stage:
            assert errors[0].endswith(f": {text}"), name
        stops[stage] += 1
    assert all(stops.values()), stops
