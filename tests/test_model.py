import random

import pytest
from hypothesis import given, strategies as st

from fdmflow.model.blocks import port_names
from fdmflow.model.graph import Block, Endpoint, Link, ModelGraph, \
    flatten, topo_order
from fdmflow.model.parser import ParseError, parse_model
from fdmflow.model.validate import validate_model
from fdmflow.sim.trace import Stimulus

from helpers import level0, rand_loopy_model, reference_step, wrap32


def _mk(text):
    return parse_model(text)


class TestWrap32:
    def test_identity_in_range(self):
        assert wrap32(5) == 5
        assert wrap32(-5) == -5

    def test_wraps(self):
        assert wrap32(2**31) == -(2**31)
        assert wrap32(-(2**31) - 1) == 2**31 - 1

    @given(st.integers(-2**40, 2**40))
    def test_range_and_congruence(self, x):
        w = wrap32(x)
        assert -(2**31) <= w <= 2**31 - 1
        assert (w - x) % 2**32 == 0


class TestStepBlock:
    def test_quant_truncates_toward_zero(self):
        assert reference_step("quant", (3,), (7,), None)[0] == (6,)
        assert reference_step("quant", (3,), (-7,), None)[0] == (-6,)

    def test_delay_queue(self):
        st_ = (0, 0)
        outs = []
        for x in [1, 2, 3, 4]:
            (y,), st_ = reference_step("delay", (2,), (x,), st_)
            outs.append(y)
        assert outs == [0, 0, 1, 2]

    def test_fir(self):
        st_ = (0, 0)
        outs = []
        for x in [1, 2, 3]:
            (y,), st_ = reference_step("fir", (1, 2, 1), (x,), st_)
            outs.append(y)
        # y[n] = x[n] + 2 x[n-1] + x[n-2]
        assert outs == [1, 4, 8]

    def test_mux_demux(self):
        assert reference_step("mux", (3,), (1, 10, 20, 30), None)[0] == (20,)
        assert reference_step("demux", (2,), (1, 7), None)[0] == (0, 7)

    def test_if_else(self):
        assert reference_step("if_else", (), (1, 5, 9), None)[0] == (5,)
        assert reference_step("if_else", (), (0, 5, 9), None)[0] == (9,)

    def test_for_loop(self):
        assert reference_step("for_loop", (3, "inc"), (10,), None)[0] == (13,)

    def test_port_names_variadic(self):
        assert port_names("mux", (2,)) == (("sel", "in0", "in1"), ("out",))
        assert port_names("demux", (2,)) == (("sel", "in"),
                                                  ("out0", "out1"))


class TestParser:
    def test_round_counts(self):
        g = _mk("""
        model m {
          input a; output b;
          block k : gain(3);
          link self.a -> k.in;
          link k.out -> self.b;
        }
        """)
        assert g.name == "m"
        assert (len(g.blocks), len(g.subsystems), len(g.links)) == (1, 0, 2)

    def test_subsystem_and_params(self):
        g = _mk("""
        model m {
          subsystem CHAN_x { param depth = 2; param topology = "multipoint";
                             input in; output out; }
        }
        """)
        assert g.subsystems[0].params == {"depth": 2, "topology": "multipoint"}

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            _mk("model m { block b : warp(1); }")

    def test_duplicate_id(self):
        with pytest.raises(ParseError):
            _mk("model m { block b : add; block b : add; }")

    def test_reports_line(self):
        with pytest.raises(ParseError) as e:
            _mk("model m {\n  block b add;\n}")
        assert "2" in str(e.value)


class TestValidate:
    def test_clean_model(self):
        g = _mk("""
        model m { input a; output b;
          block d : delay(1);
          link self.a -> d.in; link d.out -> self.b; }
        """)
        assert validate_model(g).ok

    def test_bad_params(self):
        g = _mk("model m { block d : delay(0); block q : quant(0); }")
        msgs = [d.message for d in validate_model(g).errors()]
        assert any("delay" in m for m in msgs)
        assert any("quant" in m for m in msgs)

    def test_unregistered_user_fn(self):
        g = _mk("""
        model m { input a; output b; block u : user(nope);
          link self.a -> u.in; link u.out -> self.b; }
        """)
        assert not validate_model(g).ok

    def test_loop_body_takes_one_input(self):
        g = _mk("""
        model m { input a; output b; block f : for_loop(2, mix2);
          link self.a -> f.in; link f.out -> self.b; }
        """)
        msgs = [d.message for d in validate_model(g).errors()]
        assert msgs == ["loop body function 'mix2' must have one input "
                        "and one output"]

    def test_algebraic_loop_has_cycle_path(self):
        g = _mk("""
        model m { input x; output y;
          block a : add; block b : gain(2);
          link self.x -> a.in1; link b.out -> a.in2;
          link a.out -> b.in; link a.out -> self.y; }
        """)
        rep = validate_model(g)
        assert not rep.ok
        loops = [d for d in rep.errors() if d.cycle]
        assert loops and set(loops[0].cycle) == {"a", "b"}

    def test_delay_breaks_loop(self):
        g = _mk("""
        model m { input x; output y;
          block a : add; block b : delay(1);
          link self.x -> a.in1; link b.out -> a.in2;
          link a.out -> b.in; link a.out -> self.y; }
        """)
        assert validate_model(g).ok


class TestLoopDetectorOracle:
    def test_matches_simple_cycle_enumeration(self):
        # independent oracle: enumerate cycles of the combinational graph
        import networkx as nx
        from fdmflow.model.blocks import port_names as pn
        for seed in range(40):
            rng = random.Random(seed)
            g = rand_loopy_model(rng, max_blocks=8)
            flat = flatten(g)
            if flat.issues:
                continue
            G = nx.DiGraph()
            G.add_nodes_from(flat.blocks)
            for (dst, _p), src in flat.drivers.items():
                if src[0] == "block" and \
                        flat.blocks[src[1]].kind != "delay":
                    G.add_edge(src[1], dst)
            has_cycle = any(True for _ in nx.simple_cycles(G))
            rep = validate_model(g)
            loop_diags = [d for d in rep.errors() if d.cycle]
            assert bool(loop_diags) == has_cycle, f"seed {seed}"


class TestLevel0:
    def test_gain_example(self):
        g = _mk("""
        model m { input a; output b; block k : gain(3);
          link self.a -> k.in; link k.out -> self.b; }
        """)
        tr = level0(g).run(Stimulus({"a": [1, 2, 3]}, 3), 3)
        assert tr.ports["b"] == [(0, 3), (1, 6), (2, 9)]

    def test_feedback_accumulator(self):
        g = _mk("""
        model m { input x; output y;
          block a : add; block d : delay(1);
          link self.x -> a.in1; link d.out -> a.in2;
          link a.out -> d.in; link a.out -> self.y; }
        """)
        tr = level0(g).run(Stimulus({"x": [1, 1, 1, 1]}, 4), 4)
        assert tr.values("y") == [1, 2, 3, 4]

    def test_stimulus_pad(self):
        g = _mk("""
        model m { input a; output b; block k : gain(2);
          link self.a -> k.in; link k.out -> self.b; }
        """)
        tr = level0(g).run(Stimulus({"a": [5]}, 1), 3)
        assert tr.values("b") == [10, 0, 0]

    def test_topo_order_is_declaration_stable(self):
        g = _mk("""
        model m { input a; output b;
          block p : gain(1); block q : gain(1);
          link self.a -> p.in; link self.a -> q.in;
          link p.out -> self.b; }
        """)
        flat = flatten(g)
        assert topo_order(flat) == ["p", "q"]


class TestTraceFiles:
    def test_stimulus_round_trip(self, tmp_path):
        s = Stimulus({"a": [1, -2, 3], "b": [9, 9, 9]}, 3)
        p = tmp_path / "s.csv"
        s.save(p)
        s2 = Stimulus.load(p)
        assert s2.values == s.values and s2.length == 3

    def test_trace_round_trip(self, tmp_path):
        from fdmflow.sim.trace import Trace
        t = Trace({"y": [(0, 1), (5, -7)]}, level=3, design="d")
        p = tmp_path / "t.trace"
        t.save(p)
        t2 = Trace.load(p)
        assert t2.ports == t.ports and t2.level == 3
