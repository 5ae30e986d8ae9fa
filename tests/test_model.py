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

    def test_loop_rules_in_order(self):
        """A for_loop's count rule reports before its body-function rule."""
        g = _mk("""
        model m { input a; output b; block f : for_loop(0, nope);
          link self.a -> f.in; link f.out -> self.b; }
        """)
        msgs = [d.message for d in validate_model(g).errors()]
        assert msgs == ["for_loop count must be >= 1",
                        "unknown loop body function 'nope'"]

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

    def test_drivers_reuse_block_path_strings(self):
        # a driver's source path is the very string that keys ``blocks``,
        # so a flat graph holds one copy of each path
        g = _mk("""
        model m { input a; output b;
          subsystem s { input i; output o;
            subsystem t { input i; output o; block p : gain(1);
              block q : gain(2); link self.i -> p.in; link p.out -> q.in;
              link q.out -> self.o; }
            link self.i -> t.i; link t.o -> self.o; }
          block r : gain(3);
          link self.a -> s.i; link s.o -> r.in; link r.out -> self.b; }
        """)
        flat = flatten(g)
        key = {p: p for p in flat.blocks}
        srcs = [s for s in [*flat.drivers.values(), *flat.top_outputs.values()]
                if s[0] == "block"]
        assert {s[1] for s in srcs} == {"s/t/p", "s/t/q", "r"}
        assert all(s[1] is key[s[1]] for s in srcs)


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


def _frozen_trace_load(path):
    """A trace reader that strips every line, then classifies it: the
    reference ``Trace.load``, which tries the record form first, is
    fuzzed against."""
    from fdmflow.sim.trace import Trace
    tr = Trace({})
    empty = True
    with open(path, encoding="utf-8") as f:
        for i, ln in enumerate(f, 1):
            ln = ln.strip()
            if not ln:
                continue
            empty = False
            try:
                if ln.startswith("#"):
                    parts = ln[1:].split()
                    if parts[0] == "level":
                        tr.level = int(parts[1])
                    elif parts[0] == "design":
                        tr.design = parts[1] if len(parts) > 1 else ""
                    continue
                t, port, v = ln.split(",")
                rec = (int(t), int(v))
            except (ValueError, IndexError):
                raise ValueError(f"{path}:{i}: malformed trace line {ln!r}; "
                                 "expected time,port,value") from None
            recs = tr.ports.setdefault(port, [])
            if recs and rec[0] <= recs[-1][0]:
                raise ValueError(f"{path}:{i}: time {rec[0]} on port "
                                 f"{port!r} does not increase")
            recs.append(rec)
    if empty:
        raise ValueError(f"{path}: empty trace file")
    return tr


def _load_outcome(load, path):
    """(ports, level, design), or (exception name, message) with the path
    written ``{path}``."""
    try:
        tr = load(path)
    except ValueError as e:
        return type(e).__name__, str(e).replace(str(path), "{path}")
    return tr.ports, tr.level, tr.design


def _bad(n, line):
    return ("ValueError", f"{{path}}:{n}: malformed trace line {line!r}; "
            "expected time,port,value")


def _late(n, t, port):
    return ("ValueError", f"{{path}}:{n}: time {t} on port {port!r} does not "
            "increase")


# (file contents, outcome): each outcome is the one the frozen reader gives
TRACE_FILES = [
    ("# level 3\r\n# design d\r\n0,y,1\r\n1,y,2\r\n",
     ({"y": [(0, 1), (1, 2)]}, 3, "d")),
    ("# level 2\r0,y,1\r1,y,2\r", ({"y": [(0, 1), (1, 2)]}, 2, "")),
    ("\n\n0,y,1\n\n1,y,2\n\n", ({"y": [(0, 1), (1, 2)]}, 0, "")),
    (" \n\t\n0,y,1\n \t \x0b\x0c\n1,y,2\n   ",
     ({"y": [(0, 1), (1, 2)]}, 0, "")),
    ("  0,y,1  \n\t1,y,2\t\n", ({"y": [(0, 1), (1, 2)]}, 0, "")),
    ("0 , y , 1\n", ({" y ": [(0, 1)]}, 0, "")),
    ("\xa00,y,1\xa0\n\xa01,\xa0y,2\n",
     ({"y": [(0, 1)], "\xa0y": [(1, 2)]}, 0, "")),
    # int does not skip \x1c-\x1f, strip does: the stripped retry reads it
    ("\x1c0,y,1\x1c\n", ({"y": [(0, 1)]}, 0, "")),
    ("\x1f0,y,1\x1e\n\x1d1,y,2\n", ({"y": [(0, 1), (1, 2)]}, 0, "")),
    ("0\x1c,y,1\n", _bad(1, "0\x1c,y,1")),
    ("\u20280,y,1\u2028\n\u2028 1,y,2\n", ({"y": [(0, 1), (1, 2)]}, 0, "")),
    ("+5,y,+7\n", ({"y": [(5, 7)]}, 0, "")),
    ("1_0,y,2_000\n", ({"y": [(10, 2000)]}, 0, "")),
    ("1__0,y,2\n", _bad(1, "1__0,y,2")),
    ("٣,y,٣١\n", ({"y": [(3, 31)]}, 0, "")),
    ("-3,y,-4\n", ({"y": [(-3, -4)]}, 0, "")),
    ("99999999999999999999999,y,-1\n",
     ({"y": [(99999999999999999999999, -1)]}, 0, "")),
    ("0,y,1\n#\n", _bad(2, "#")),
    ("0,y,1\n#   \n", _bad(2, "#")),
    ("# level x\n", _bad(1, "# level x")),
    ("# level\n", _bad(1, "# level")),
    ("#level 4\n0,y,1\n", ({"y": [(0, 1)]}, 4, "")),
    ("# level 4 5\n0,y,1\n", ({"y": [(0, 1)]}, 4, "")),
    ("# level +6\n0,y,1\n", ({"y": [(0, 1)]}, 6, "")),
    ("# note anything, at all\n0,y,1\n", ({"y": [(0, 1)]}, 0, "")),
    # a header that splits into three fields creates no port "b"
    ("# design a,b,c\n0,y,1\n", ({"y": [(0, 1)]}, 0, "a,b,c")),
    ("# design a,b,c\n", ({}, 0, "a,b,c")),
    ("# design a b\n0,y,1\n", ({"y": [(0, 1)]}, 0, "a")),
    ("# design\n0,y,1\n", ({"y": [(0, 1)]}, 0, "")),
    ("0,y,1\n# level 1\n# design p\n1,y,2\n",
     ({"y": [(0, 1), (1, 2)]}, 1, "p")),
    ("# level 1\n# design p\n0,y,1\n# level 2\n# design q\n1,y,2\n"
     "# level 3\n", ({"y": [(0, 1), (1, 2)]}, 3, "q")),
    ("# level 3\n", ({}, 3, "")),
    ("0,y,1\n0,z,5\n1,y,2\n1,z,6\n2,y,3\n",
     ({"y": [(0, 1), (1, 2), (2, 3)], "z": [(0, 5), (1, 6)]}, 0, "")),
    ("0,y,1\n# level 2\n0,z,5\n1,y,2\n",
     ({"y": [(0, 1), (1, 2)], "z": [(0, 5)]}, 2, "")),
    ("0,,1\n1,,2\n", ({"": [(0, 1), (1, 2)]}, 0, "")),
    ("5,y,1\n3,y,2\n5,y,3\n", _late(2, 3, "y")),
    ("0,y,1\n1,y\n", _bad(2, "1,y")),
    ("0,y,1\n1,y,2,3\n", _bad(2, "1,y,2,3")),
    ("7\n", _bad(1, "7")),
    (",y,1\n", _bad(1, ",y,1")),
    ("  ,y,1\n", _bad(1, ",y,1")),
    ("0,y,\n", _bad(1, "0,y,")),
    ("0,y,1.5\n", _bad(1, "0,y,1.5")),
    ("0,y,1\x00\n", _bad(1, "0,y,1\x00")),
    ("\ufeff# level 3\n0,y,1\n", _bad(1, "\ufeff# level 3")),
    ("0,y,1\n\n  \nbad\n", _bad(4, "bad")),
    ("# level 1\n0,y,1\n1,y,2", ({"y": [(0, 1), (1, 2)]}, 1, "")),
    ("\n\n  \n\t\n", ("ValueError", "{path}: empty trace file")),
    ("", ("ValueError", "{path}: empty trace file")),
    (b"0,y,1\n\xff,y,2\n", ("UnicodeDecodeError", "'utf-8' codec can't "
                             "decode byte 0xff in position 6: invalid "
                             "start byte")),
    # a port's times increase (the 5, 3, 5 row above): between interleaved
    # ports and on a line read stripped; an equal time does not increase
    ("0,y,1\n4,z,5\n1,y,2\n2,z,6\n", _late(4, 2, "z")),
    ("0,y,1\n7,z,5\n1,y,2\n8,z,6\n0,y,3\n", _late(5, 0, "y")),
    ("0,y,1\n0,y,2\n", _late(2, 0, "y")),
    ("3,y,1\n\x1c 3,y,2\n", _late(2, 3, "y")),
    ("0,,1\n-1,,2\n", _late(2, -1, "")),
]

# the pieces the fuzz builds lines from
_BLANKS = ["", "", " ", "\t", "\xa0", "\x1c", "\x1f", "\u2028", "\x0b"]
_INTS = ["0", "7", "-3", "+5", "1_0", "٣", "12", "", "x", "1.5", "#"]
_PORTS = ["y", "z", "", " y", "a b", "#"]
_HEADERS = ["#", "# level 2", "# level x", "#level 5", "# design d",
            "# design a,b,c", "# design", "# note", "# level"]


class TestTraceLoad:
    @pytest.mark.parametrize("data,outcome", TRACE_FILES)
    def test_table(self, tmp_path, data, outcome):
        from fdmflow.sim.trace import Trace
        p = tmp_path / "t.trace"
        p.write_bytes(data if isinstance(data, bytes) else data.encode())
        assert _load_outcome(_frozen_trace_load, p) == outcome
        assert _load_outcome(Trace.load, p) == outcome

    def test_fuzz_against_frozen_reader(self, tmp_path):
        from fdmflow.sim.trace import Trace
        rng = random.Random(30)
        p = tmp_path / "t.trace"
        for _ in range(600):
            lines = []
            for _ in range(rng.randrange(0, 7)):
                r = rng.random()
                if r < 0.2:
                    ln = rng.choice(_HEADERS)
                elif r < 0.3:
                    ln = rng.choice(_BLANKS)
                else:
                    fields = [rng.choice(_INTS), rng.choice(_PORTS),
                              rng.choice(_INTS)]
                    del fields[3:rng.choice([2, 3, 3, 3, 4])]
                    if len(fields) == 3 and rng.random() < 0.1:
                        fields.append(rng.choice(_INTS))
                    ln = ",".join(rng.choice(_BLANKS) + f + rng.choice(_BLANKS)
                                  for f in fields)
                lines.append(ln + rng.choice(["\n", "\n", "\r\n", "\r"]))
            text = "".join(lines)
            if text and rng.random() < 0.2:
                text = text.rstrip("\r\n")
            p.write_bytes(text.encode())
            assert _load_outcome(Trace.load, p) == \
                _load_outcome(_frozen_trace_load, p), repr(text)

    def test_save_load_round_trip_every_level(self, tmp_path):
        import importlib.resources as ir
        from fdmflow.flow import compile_design, default_stimulus, simulate
        from fdmflow.sim.trace import Trace
        cd = compile_design(parse_model(
            (ir.files("fdmflow") / "models" / "mini_codec.fdm").read_text()))
        stim = default_stimulus(cd.model, 64, seed=5)
        for level in range(4):
            tr = simulate(level, cd, stim, 64)
            p = tmp_path / f"level{level}.trace"
            tr.save(p)
            back = Trace.load(p)
            assert (back.ports, back.level, back.design) == \
                (tr.ports, level, "mini_codec")
