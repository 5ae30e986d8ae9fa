import hashlib
import importlib.resources as ir
import json
import os
import subprocess
import sys

import pytest

from fdmflow.cli import main
from fdmflow.sim.trace import Trace

from helpers import FEEDBACK_FDM, LOOSE_FDM, MIX2_FDM, NESTED_HW_FDM, \
    parse_netlist_json, validate_netlist


@pytest.fixture
def mini_path(tmp_path):
    text = (ir.files("fdmflow") / "models" / "mini_codec.fdm").read_text()
    p = tmp_path / "mini_codec.fdm"
    p.write_text(text)
    return str(p)


@pytest.fixture
def loopy_path(tmp_path):
    p = tmp_path / "loopy.fdm"
    p.write_text("""
    model loopy {
      input x; output y;
      block a : add; block b : gain(2);
      link self.x -> a.in1; link b.out -> a.in2;
      link a.out -> b.in; link a.out -> self.y;
    }
    """)
    return str(p)


# every one of the 100 loop iterations takes a level-3 scheduler slot
LOOP100_FDM = """
model loop100 {
  input x; output y;
  subsystem SW_cpu {
    input a; output out;
    subsystem TASK_l {
      input a; output out;
      block f : for_loop(100, inc);
      link self.a -> f.in; link f.out -> self.out;
    }
    link self.a -> TASK_l.a; link TASK_l.out -> self.out;
  }
  link self.x -> SW_cpu.a; link SW_cpu.out -> self.y;
}
"""


# a task, a HW_ node and a testbench subsystem each declare an output that
# no link inside drives and nothing outside reads
UNDRIVEN_FDM = """
model undriven {
  input x; output y;
  subsystem SW_cpu {
    input a; output out;
    subsystem TASK_t {
      input a; output out; output dangling;
      block g : gain(3);
      link self.a -> g.in; link g.out -> self.out;
    }
    link self.a -> TASK_t.a; link TASK_t.out -> self.out;
  }
  subsystem HW_h {
    input in; output out; output idle;
    block g : gain(2);
    link self.in -> g.in; link g.out -> self.out;
  }
  subsystem bench {
    input in; output out; output spare;
    block g : gain(5);
    link self.in -> g.in; link g.out -> self.out;
  }
  link self.x -> SW_cpu.a; link SW_cpu.out -> HW_h.in;
  link HW_h.out -> bench.in; link bench.out -> self.y;
}
"""


# two outputs of one HW_ node feed one multipoint channel: two producers
TWO_PRODUCERS_FDM = """
model two {
  input x; output y;
  subsystem HW_two {
    input in; output o1; output o2;
    block g2 : gain(2); block g3 : gain(3);
    link self.in -> g2.in; link self.in -> g3.in;
    link g2.out -> self.o1; link g3.out -> self.o2;
  }
  subsystem CHAN_c {
    param topology = "multipoint"; param depth = 1;
    input i1; input i2; output out;
  }
  link self.x -> HW_two.in;
  link HW_two.o1 -> CHAN_c.i1; link HW_two.o2 -> CHAN_c.i2;
  link CHAN_c.out -> self.y;
}
"""


QUOTED_DEPTH_FDM = """
model quoted {
  input x; output y;
  subsystem CHAN_c { input i; output o; param depth = "abc"; }
  link self.x -> CHAN_c.i; link CHAN_c.o -> self.y;
}
"""


def chan_model(chans: str, links: str, outputs: str = "output y;") -> str:
    """A model whose HW_a doubles its input into the given CHAN_s."""
    return f"""
model m {{
  input a; {outputs}
  subsystem HW_a {{
    input in; output out;
    block k : gain(2);
    link self.in -> k.in; link k.out -> self.out;
  }}
  {chans}
  link self.a -> HW_a.in;
  {links}
}}
"""


# a task that multiplies by 0: its output is 0 at every tick
FLAT_FDM = """
model flat {
  input x; output y;
  subsystem SW_cpu {
    input a; output out;
    subsystem TASK_t {
      input a; output out;
      block g : gain(0);
      link self.a -> g.in; link g.out -> self.out;
    }
    link self.a -> TASK_t.a; link TASK_t.out -> self.out;
  }
  link self.x -> SW_cpu.a; link SW_cpu.out -> self.y;
}
"""


def _set_cost(params_file, cost: int) -> None:
    text = params_file.read_text()
    assert text.count("cost_cycles = 0\n") == 1
    params_file.write_text(text.replace("cost_cycles = 0",
                                        f"cost_cycles = {cost}"))


def _verdicts(printed: str) -> list[str]:
    return [ln for ln in printed.splitlines() if "-vs-" in ln]


_TO_Y = "link HW_a.out -> self.y;"

# one model per validation rule and parser error, with the stage that
# rejects it ("validate", "partition", or None for the parser), the
# location and the message
RULES = [pytest.param(*case[1:], id=case[0]) for case in [
    ("multiple_drivers", chan_model("", _TO_Y + " link self.a -> self.y;"),
     "validate", "m", "multiple drivers for self.y"),
    ("mux_0", chan_model("block t : mux(0);", _TO_Y),
     "validate", "t", "mux way count must be >= 1"),
    ("demux_0", chan_model("block t : demux(0);", _TO_Y),
     "validate", "t", "demux way count must be >= 1"),
    ("delay_0", chan_model("block t : delay(0);", _TO_Y),
     "validate", "t", "delay parameter k must be >= 1"),
    ("quant_0", chan_model("block t : quant(0);", _TO_Y),
     "validate", "t", "quant step must be non-zero"),
    ("user_function", chan_model("block t : user(nope);", _TO_Y),
     "validate", "t", "unknown user function 'nope'"),
    ("for_loop_0", chan_model("block t : for_loop(0, inc);", _TO_Y),
     "validate", "t", "for_loop count must be >= 1"),
    ("loop_function", chan_model("block t : for_loop(2, nope);", _TO_Y),
     "validate", "t", "unknown loop body function 'nope'"),
    ("chan_depth_0", chan_model(
        "subsystem CHAN_c { param depth = 0; input in; output out; }",
        "link HW_a.out -> CHAN_c.in; link CHAN_c.out -> self.y;"),
     "partition", "CHAN_c", "fifo depth must be >= 1"),
    ("task_in_hw", """model m { input a; output y;
  subsystem HW_a { input in; output out;
    subsystem TASK_t { input in; output out; block k : gain(2);
      link self.in -> k.in; link k.out -> self.out; }
    link self.in -> TASK_t.in; link TASK_t.out -> self.out; }
  link self.a -> HW_a.in; link HW_a.out -> self.y; }""",
     "partition", "HW_a/TASK_t", "TASK_ subsystem outside a software node"),
    ("undeclared_id", chan_model("", "link nope.out -> self.y;"),
     "validate", "m", "link references undeclared id 'nope'"),
    ("self_port", chan_model("", _TO_Y + " link HW_a.out -> self.z;"),
     "validate", "m", "unknown port 'z' on enclosing scope"),
    ("block_input", chan_model("block t : gain(1);",
                               _TO_Y + " link HW_a.out -> t.nope;"),
     "validate", "m", "block 't' (gain) has no input port 'nope'"),
    ("wiring_cycle", chan_model(
        "subsystem P { input i; output o; link self.i -> self.o; }",
        "link P.o -> P.i; link P.o -> self.y;"),
     "validate", "P", "port wiring cycle while resolving model output y"),
    ("character", "model m { input a; output y; @ }",
     None, None, "1:30: unexpected character '@'"),
    ("model_param", "model m { param depth = 1; }",
     None, None, "1:11: param is only allowed inside a subsystem"),
    ("block_argument", "model m { block g : gain(;); }",
     None, None, "1:26: bad block argument ';'"),
    ("one_integer", "model m { block g : gain(); }",
     None, None, "1:21: gain: expected one integer parameter"),
    ("fir_taps", "model m { block g : fir(); }",
     None, None, "1:21: fir: expected one or more integer taps"),
    ("for_loop_args", "model m { block g : for_loop(2); }",
     None, None, "1:21: for_loop: expected (count, body-function)"),
    ("user_args", "model m { block g : user(3); }",
     None, None, "1:21: user: expected a function name"),
    ("no_args", "model m { block g : add(1); }",
     None, None, "1:21: add: takes no parameters"),
    ("param_value", "model m { subsystem CHAN_c { param depth = x; } }",
     None, None, "1:44: param value must be an integer or string"),
    ("name", "model m { block 3 : gain(2); }",
     None, None, "1:17: expected identifier, found 3"),
]]


class TestCheck:
    def test_clean_model(self, mini_path, capsys):
        assert main(["check", "--model", mini_path]) == 0

    def test_python_m_entry(self, mini_path):
        """``python -m fdmflow`` runs the same command line."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        r = subprocess.run([sys.executable, "-m", "fdmflow", "check",
                            "--model", mini_path], capture_output=True,
                           text=True, env=env)
        assert (r.returncode, r.stderr) == (0, "")

    def test_algebraic_loop(self, loopy_path, capsys):
        assert main(["check", "--model", loopy_path]) == 1
        out = capsys.readouterr().out
        assert "error" in out
        assert "cycle:" in out and "a" in out and "b" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", "--model", str(tmp_path / "nope.fdm")]) == 2

    def test_parse_error(self, tmp_path, capsys):
        p = tmp_path / "bad.fdm"
        p.write_text("model m { block b gain; }")
        assert main(["check", "--model", str(p)]) == 1

    @pytest.mark.parametrize("cmd", ["check", "flow"])
    def test_model_not_utf8(self, cmd, tmp_path, capsys):
        p = tmp_path / "latin1.fdm"
        p.write_bytes("model m { # caf\xe9\n }".encode("latin-1"))
        rc = main([cmd, "--model", str(p), "--out", str(tmp_path / "o")]
                  if cmd == "flow" else [cmd, "--model", str(p)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "cannot read model" in err

    def test_hw_user_function_needs_cost(self, tmp_path, capsys):
        p = tmp_path / "mix.fdm"
        p.write_text(MIX2_FDM)
        assert main(["check", "--model", str(p)]) == 0
        out = capsys.readouterr().out
        assert "warning: HW_mix/h:" in out and "cost_cycles" in out
        # the flow at the default params stops where the warning says
        assert main(["flow", "--model", str(p),
                     "--out", str(tmp_path / "out")]) == 1
        assert "cost_cycles" in capsys.readouterr().err

    def test_gma_writes_the_cost_template(self, tmp_path, capsys):
        """gma stops before hardware synthesis, so a model that needs a
        cost_cycles gets the parameter file to set it in."""
        p = tmp_path / "mix.fdm"
        p.write_text(MIX2_FDM)
        g = tmp_path / "g"
        assert main(["gma", "--model", str(p), "--out", str(g)]) == 0
        _set_cost(g / "params" / "module.mix.HW_mix.h.params", 3)
        capsys.readouterr()
        assert main(["flow", "--model", str(p), "--params", str(g / "params"),
                     "--out", str(tmp_path / "out"), "--ticks", "32"]) == 0
        verdicts = _verdicts(capsys.readouterr().out)
        assert len(verdicts) == 3 and all("PASS" in v for v in verdicts)

    def test_nested_hw_user_block_cost(self, tmp_path, capsys):
        """check, flow and the parameter files name a user block nested in
        a subsystem of a HW_ node by its path in the node's flat graph."""
        p = tmp_path / "nest.fdm"
        p.write_text(NESTED_HW_FDM)
        assert main(["check", "--model", str(p)]) == 0
        assert "warning: HW_n/inner/u:" in capsys.readouterr().out
        assert main(["flow", "--model", str(p),
                     "--out", str(tmp_path / "out")]) == 1
        assert "[hwsynth] HW_n/inner/u:" in capsys.readouterr().err
        g = tmp_path / "g"
        assert main(["gma", "--model", str(p), "--out", str(g)]) == 0
        _set_cost(g / "params" / "module.nest.HW_n.inner.u.params", 2)
        capsys.readouterr()
        assert main(["flow", "--model", str(p), "--params", str(g / "params"),
                     "--out", str(tmp_path / "out"), "--ticks", "32"]) == 0
        verdicts = _verdicts(capsys.readouterr().out)
        assert len(verdicts) == 3 and all("PASS" in v for v in verdicts)

    @pytest.mark.parametrize("cmd", ["check", "flow", "simulate"])
    def test_undriven_output(self, cmd, tmp_path, capsys):
        p = tmp_path / "undriven.fdm"
        p.write_text(UNDRIVEN_FDM)
        args = [cmd, "--model", str(p)]
        assert main(args if cmd == "check"
                    else args + ["--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        if cmd == "check":
            assert captured.out.splitlines() == [
                f"error: {unit}: output {port!r} is not driven by any link"
                for unit, port in (("SW_cpu/TASK_t", "dangling"),
                                   ("HW_h", "idle"), ("bench", "spare"))]
        else:
            assert captured.err == "[partition] SW_cpu/TASK_t: output " \
                "'dangling' is not driven by any link\n"

    def test_ports_on_no_channel(self, tmp_path, capsys):
        p = tmp_path / "loose.fdm"
        p.write_text(LOOSE_FDM)
        assert main(["check", "--model", str(p)]) == 0
        assert main(["flow", "--model", str(p),
                     "--out", str(tmp_path / "o")]) == 0
        printed = capsys.readouterr().out
        assert [ln.split(": ")[1] for ln in printed.splitlines()[:3]] == \
            ["PASS [exact] k=0"] * 2 + ["PASS [modulo_latency] k=0"]

    @pytest.mark.parametrize("cmd", ["check", "flow"])
    def test_channel_with_two_producers(self, cmd, tmp_path, capsys):
        """A channel takes one producer, whatever its topology: levels 0
        and 1 would disagree on a merge, and level 3 overfilled it."""
        p = tmp_path / "two.fdm"
        p.write_text(TWO_PRODUCERS_FDM)
        args = [cmd, "--model", str(p)]
        assert main(args if cmd == "check"
                    else args + ["--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        msg = "CHAN_c: channel has 2 producers (HW_two.o1, HW_two.o2); " \
            "a channel takes one\n"
        if cmd == "check":
            assert captured.out == "error: " + msg
        else:
            assert captured.err == "[partition] " + msg

    @pytest.mark.parametrize("cmd", ["check", "flow"])
    def test_channel_depth_not_an_integer(self, cmd, tmp_path, capsys):
        p = tmp_path / "quoted.fdm"
        p.write_text(QUOTED_DEPTH_FDM)
        args = [cmd, "--model", str(p)]
        assert main(args if cmd == "check"
                    else args + ["--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        msg = "CHAN_c: fifo depth must be an integer, got 'abc'\n"
        if cmd == "check":
            assert captured.out == "error: " + msg
        else:
            assert captured.err == "[partition] " + msg

    def test_chan_ports_are_declared_ones(self, tmp_path, capsys):
        """A CHAN_ is a subsystem: its links name its declared ports, and
        its adapter module has them."""
        p = tmp_path / "chan.fdm"
        p.write_text(chan_model(
            "subsystem CHAN_c { input in; output out1; output out2; "
            'param topology = "multipoint"; }',
            "link HW_a.out -> CHAN_c.in; link CHAN_c.out1 -> self.y1; "
            "link CHAN_c.out2 -> self.y2;", "output y1; output y2;"))
        out = tmp_path / "o"
        assert main(["flow", "--model", str(p), "--out", str(out),
                     "--ticks", "32"]) == 0
        nl = parse_netlist_json((out / "netlist.colif.json").read_text())
        assert validate_netlist(nl) == []
        adapter = next(m for m in nl.top.children if m.name == "CHAN_c")
        assert [(q.name, q.direction) for q in adapter.ports] == \
            [("in", "in"), ("out1", "out"), ("out2", "out")]

    def test_link_to_undeclared_chan_port(self, tmp_path, capsys):
        p = tmp_path / "chan.fdm"
        p.write_text(chan_model("subsystem CHAN_c { input in; output out; }",
                                "link HW_a.out -> CHAN_c.in; "
                                "link CHAN_c.o -> self.y;"))
        assert main(["check", "--model", str(p)]) == 1
        assert "error: m: subsystem 'CHAN_c' has no port 'o'" in \
            capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("cmd", ["check", "flow"])
    def test_reversed_chan_ports(self, cmd, tmp_path, capsys):
        """Data enters a CHAN_ by an input and leaves it by an output; a
        link the other way round would make a net that enters the adapter
        by its output."""
        p = tmp_path / "rev.fdm"
        p.write_text(chan_model("subsystem CHAN_c { input in; output out; }",
                                "link HW_a.out -> CHAN_c.out; "
                                "link CHAN_c.in -> self.y;"))
        args = [cmd, "--model", str(p)]
        assert main(args if cmd == "check"
                    else args + ["--out", str(tmp_path / "o")]) == 1
        # the cause comes first, before its consequence, the undriven y
        out = capsys.readouterr()
        if cmd == "check":
            lines = out.out.splitlines()
            assert lines[0] == "error: m: subsystem 'CHAN_c' port 'in' is " \
                "an input, not a link source"
            assert "error: m: subsystem 'CHAN_c' port 'out' is an output, " \
                "not a link destination" in lines
            assert lines[-1] == \
                "error: m: model output y is not driven by any link"
        else:
            assert out.err.splitlines()[0] == "[validate] subsystem 'CHAN_c' " \
                "port 'in' is an input, not a link source"

    @pytest.mark.parametrize("cmd", ["check", "flow"])
    def test_connection_through_two_chans(self, cmd, tmp_path, capsys):
        """The net would name CHAN_one's adapter, which the netlist lacks,
        and the channel would take CHAN_two's depth and drop CHAN_one's."""
        p = tmp_path / "two.fdm"
        p.write_text(chan_model(
            "subsystem CHAN_one { input in; output out; param depth = 2; }\n"
            "  subsystem CHAN_two { input in; output out; param depth = 3; }",
            "link HW_a.out -> CHAN_one.in; link CHAN_one.out -> CHAN_two.in; "
            "link CHAN_two.out -> self.y;"))
        args = [cmd, "--model", str(p)]
        assert main(args if cmd == "check"
                    else args + ["--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        msg = "CHAN_two: connection passes through CHAN_one and CHAN_two; " \
            "a connection takes one CHAN_\n"
        if cmd == "check":
            assert captured.out == "error: " + msg
        else:
            assert captured.err == "[partition] " + msg

    @pytest.mark.parametrize("text,stage,loc,msg", RULES)
    def test_rule_first_message(self, text, stage, loc, msg, tmp_path,
                                capsys):
        """``check`` and ``flow`` exit 1 on each rule: ``check`` lists its
        diagnostic first, and ``flow`` prints it as its one line."""
        p = tmp_path / "m.fdm"
        p.write_text(text)
        assert main(["check", "--model", str(p)]) == 1
        out = capsys.readouterr()
        first = (out.out if stage else out.err).splitlines()[0]
        assert first == (f"error: {loc}: {msg}" if stage else msg)
        assert main(["flow", "--model", str(p),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == {
            "validate": f"[validate] {msg}\n",
            "partition": f"[partition] {loc}: {msg}\n",
            None: f"{msg}\n"}[stage]


class TestFlow:
    def test_task_cost_cycles(self, mini_path, tmp_path, capsys):
        """A task's cost_cycles charges each transition it fires that many
        cycles instead of one.  TASK_dequant fires 3 transitions a tick, so
        at cost 3 a 64-tick flow's last level-3 sample comes 64 * 3 * 2
        cycles later, and every verdict still passes."""
        g = tmp_path / "g"
        assert main(["gma", "--model", mini_path, "--out", str(g)]) == 0
        params = g / "params"
        _set_cost(params / "module.mini_codec.SW_cpu.TASK_dequant.params", 3)
        last = []
        for extra in ([], ["--params", str(params)]):
            out = tmp_path / f"out{len(extra)}"
            capsys.readouterr()
            assert main(["flow", "--model", mini_path, "--out", str(out),
                         "--ticks", "64", *extra]) == 0
            verdicts = _verdicts(capsys.readouterr().out)
            assert len(verdicts) == 3 and all("PASS" in v for v in verdicts)
            tr = Trace.load(out / "traces" / "level3.trace")
            last.append(max(t for recs in tr.ports.values() for t, _ in recs))
        assert last == [2306, 2690]

    def test_full_flow_artifacts(self, mini_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["flow", "--model", mini_path, "--out", str(out),
                     "--ticks", "64"]) == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed and "FAIL" not in printed
        assert (out / "netlist.colif.json").is_file()
        assert (out / "address_map.txt").is_file()
        assert (out / "verdicts.txt").is_file()
        assert (out / "timings.json").is_file()
        assert (out / "stimulus.csv").is_file()
        for level in range(4):
            assert (out / "traces" / f"level{level}.trace").is_file()
        assert list((out / "params").glob("*.params"))
        assert list((out / "fsm").glob("*.fsm.txt"))
        assert list((out / "hw").glob("*.rtl.txt"))

    ARTIFACTS = \
        "6c4b14e2f8f403922d8a0ddcd0d0c0c9861f2c65268c7503c2e8387b5b46c2a1"

    def test_pinned_artifact_digest(self, mini_path, tmp_path, capsys):
        """One SHA-256 over every file `fdmflow flow` writes for mini_codec
        at the CLI defaults, timings.json excluded: each file's relative
        path, a NUL, its bytes and a NUL, in path order.  Any byte that
        moves in any artifact shows.  The level-3 time model change
        (ROADMAP item 1) re-pins it once, together with the level-3 trace
        digests in test_sim.py."""
        out = tmp_path / "out"
        assert main(["flow", "--model", mini_path, "--out", str(out)]) == 0
        h = hashlib.sha256()
        for p in sorted(out.rglob("*")):
            if p.is_file() and p.name != "timings.json":
                h.update(p.relative_to(out).as_posix().encode() + b"\0")
                h.update(p.read_bytes() + b"\0")
        assert h.hexdigest() == self.ARTIFACTS

    # each case edits one file of the parameter files `fdmflow gma` writes:
    # a byte string replaces the file, a pair (old, new) replaces one line
    @pytest.mark.parametrize("name, content, rc, msg", [
        ("module.mini_codec.params", b"port.in = 3\n", 1,
         "module.mini_codec.params:1"),
        ("module.mini_codec.params", b"name = caf\xe9\n", 2,
         "cannot read params"),
        ("module.x.params", None, 2, "cannot read params"),
        ("module.mini_codec.HW_post.sat.params",
         ("cost_cycles = 0", "cost_cycles = -5"), 1,
         "mini_codec/HW_post/sat: cost_cycles must be >= 0, got -5"),
        ("module.mini_codec.HW_post.params",
         ("port.in.width = 1", "port.in.width = 0"), 1,
         "mini_codec/HW_post.in: width must be >= 1, got 0"),
        # an integer is ASCII decimal, as in a model
        ("module.mini_codec.HW_post.sat.params",
         ("cost_cycles = 0", "cost_cycles = 1_0"), 1,
         "mini_codec/HW_post/sat: cost_cycles must be an integer, got '1_0'"),
    ], ids=["port-without-key", "not-utf8", "directory", "negative-cost",
            "zero-width", "underscore-int"])
    def test_bad_params(self, name, content, rc, msg, mini_path, tmp_path,
                        capsys):
        assert main(["gma", "--model", mini_path,
                     "--out", str(tmp_path / "g")]) == 0
        pdir = tmp_path / "g" / "params"
        if content is None:
            (pdir / name).mkdir()
        elif isinstance(content, tuple):
            text = (pdir / name).read_text()
            assert text.count(content[0] + "\n") == 1
            (pdir / name).write_text(text.replace(*content))
        else:
            (pdir / name).write_bytes(content)
        capsys.readouterr()
        assert main(["flow", "--model", mini_path, "--params", str(pdir),
                     "--out", str(tmp_path / "out")]) == rc
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and msg in err

    def test_no_out_dir(self, mini_path, monkeypatch, capsys):
        monkeypatch.delenv("FLOW_OUT", raising=False)
        assert main(["flow", "--model", mini_path]) == 2

    def test_env_out_dir(self, mini_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FLOW_OUT", str(tmp_path / "envout"))
        assert main(["flow", "--model", mini_path, "--ticks", "32",
                     "--level", "0,2"]) == 0
        assert (tmp_path / "envout" / "verdicts.txt").is_file()

    def test_long_task_loop(self, tmp_path, capsys):
        p = tmp_path / "loop100.fdm"
        p.write_text(LOOP100_FDM)
        assert main(["flow", "--model", str(p), "--out", str(tmp_path / "o"),
                     "--ticks", "300"]) == 0
        printed = capsys.readouterr().out
        assert "level2-vs-level3: PASS" in printed

    def test_no_output_is_rejected(self, tmp_path, capsys):
        """A model with no output has nothing to compare: ``check`` rejects
        it in one line, and ``flow`` stops at validation before any level
        runs."""
        p = tmp_path / "noout.fdm"
        p.write_text("model m {\n  input a;\n  subsystem HW_c { input in; "
                     "block k : sink; link self.in -> k.in; }\n"
                     "  link self.a -> HW_c.in;\n}\n")
        assert main(["check", "--model", str(p)]) == 1
        assert capsys.readouterr().out == \
            "error: m: model has no output, so no level can be compared\n"
        assert main(["flow", "--model", str(p), "--out", str(tmp_path / "o"),
                     "--ticks", "16"]) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err == \
            "[validate] model has no output, so no level can be compared\n"
        assert not (tmp_path / "o" / "verdicts.txt").exists()

    @pytest.mark.parametrize("flat", [True, False], ids=["flat", "mini"])
    def test_constant_output_warning(self, flat, mini_path, tmp_path,
                                     capsys):
        """An output with one value over the run is named on stderr; the
        exit code stays 0."""
        p = tmp_path / "flat.fdm"
        p.write_text(FLAT_FDM)
        assert main(["flow", "--model", str(p) if flat else mini_path,
                     "--out", str(tmp_path / "o"), "--ticks", "32"]) == 0
        assert capsys.readouterr().err == (
            "warning: output y is constant over 32 ticks; its verdicts "
            "compare constants\n" if flat else "")

    def test_bad_level(self, mini_path, tmp_path, capsys):
        assert main(["flow", "--model", mini_path,
                     "--out", str(tmp_path / "o"), "--level", "9"]) == 2

    # no tick count below one runs: an empty trace would pass a verdict
    @pytest.mark.parametrize("ticks", ["0", "-5"])
    @pytest.mark.parametrize("cmd", ["flow", "simulate"])
    def test_bad_ticks(self, cmd, ticks, mini_path, tmp_path, capsys):
        rc = main([cmd, "--model", mini_path, "--out", str(tmp_path / "o"),
                   f"--ticks={ticks}"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--ticks" in captured.err


class TestStageCommands:
    def test_gma(self, mini_path, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["gma", "--model", mini_path, "--out", str(out)]) == 0
        nl = json.loads((out / "netlist.colif.json").read_text())
        assert nl["top"]["name"] == "mini_codec"
        assert list((out / "behaviors").glob("*.behavior.txt"))

    def test_synth_sw(self, mini_path, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["synth-sw", "--model", mini_path, "--out", str(out)]) == 0
        fsms = list(out.glob("*.fsm.txt"))
        assert len(fsms) == 6  # three tasks, macro + micro each
        amap = (out / "address_map.txt").read_text()
        assert "0x1000" in amap

    def test_synth_hw(self, mini_path, tmp_path, capsys):
        out = tmp_path / "h"
        assert main(["synth-hw", "--model", mini_path, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "HW_filter" in printed and "HW_post" in printed
        assert (out / "HW_filter.rtl.txt").is_file()

    def test_synth_hw_loop_engine(self, tmp_path, capsys):
        """A for_loop in a HW_ node maps to the multicycle loop engine of
        latency = its count, so a controller sequences the node, and the
        flow still agrees at every level."""
        p = tmp_path / "lp.fdm"
        p.write_text(chan_model("", "link HW_a.out -> self.y;").replace(
            "block k : gain(2);", "block k : for_loop(3, inc);"))
        out = tmp_path / "h"
        assert main(["synth-hw", "--model", str(p), "--out", str(out)]) == 0
        assert capsys.readouterr().out == \
            "HW_a: controller, latency/interval 3\n"
        rtl = (out / "HW_a.rtl.txt").read_text()
        assert "controller II=3\ninst k : loop_engine latency=3\n" in rtl
        assert main(["flow", "--model", str(p), "--out", str(tmp_path / "o"),
                     "--ticks", "32"]) == 0
        verdicts = _verdicts(capsys.readouterr().out)
        assert len(verdicts) == 3 and all("PASS" in v for v in verdicts)

    def test_simulate_with_stimulus_file(self, mini_path, tmp_path, capsys):
        out = tmp_path / "sim"
        out.mkdir()
        from fdmflow.sim.trace import Stimulus
        Stimulus({"bitstream": list(range(10))}, 10).save(out / "s.csv")
        assert main(["simulate", "--model", mini_path, "--out", str(out),
                     "--level", "0,3", "--ticks", "10",
                     "--stimulus", str(out / "s.csv")]) == 0
        assert (out / "level0.trace").is_file()
        assert (out / "level3.trace").is_file()

    def test_short_stimulus_and_unread_input(self, tmp_path, capsys):
        """Level 0 reads the columns of the inputs its blocks read, in
        their order, padded with 0 past the end of the file, as level 1
        does: the header's order is u, b, a, and u feeds nothing."""
        p = tmp_path / "order.fdm"
        p.write_text("""
        model order {
          input u; input b; input a; output y;
          subsystem SW_cpu {
            input p; input q; output out;
            subsystem TASK_d {
              input p; input q; output out;
              block d : sub;
              link self.p -> d.in1; link self.q -> d.in2;
              link d.out -> self.out;
            }
            link self.p -> TASK_d.p; link self.q -> TASK_d.q;
            link TASK_d.out -> self.out;
          }
          link self.a -> SW_cpu.p; link self.b -> SW_cpu.q;
          link SW_cpu.out -> self.y;
        }
        """)
        stim = tmp_path / "s.csv"
        stim.write_text("u,b,a\n9,1,5\n9,2,7\n9,3,9\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--model", str(p), "--out", str(out),
                     "--level", "0,1", "--ticks", "8",
                     "--stimulus", str(stim)]) == 0
        t0, t1 = (Trace.load(out / f"level{lv}.trace") for lv in (0, 1))
        assert t0.values("y") == [4, 5, 6, 0, 0, 0, 0, 0]
        assert t1.ports == t0.ports

    def test_stimulus_round_trip_without_inputs(self, tmp_path, capsys):
        """The stimulus flow writes for a model with no input reads back,
        and simulating from it writes the flow's traces again; a 0-byte
        file is still refused."""
        p = tmp_path / "k.fdm"
        p.write_text("model k { output y; block c : const(3); "
                     "block g : gain(2); link c.out -> g.in; "
                     "link g.out -> self.y; }")
        flow, sim = tmp_path / "flow", tmp_path / "sim"
        assert main(["flow", "--model", str(p), "--out", str(flow),
                     "--ticks", "8"]) == 0
        assert (flow / "stimulus.csv").read_text() == "\n" * 9
        assert main(["simulate", "--model", str(p), "--out", str(sim),
                     "--level", "0,3", "--ticks", "8", "--stimulus",
                     str(flow / "stimulus.csv")]) == 0
        for lv in (0, 3):
            assert (sim / f"level{lv}.trace").read_bytes() == \
                (flow / "traces" / f"level{lv}.trace").read_bytes()
        (flow / "stimulus.csv").write_text("")
        capsys.readouterr()
        assert main(["simulate", "--model", str(p), "--out", str(sim),
                     "--stimulus", str(flow / "stimulus.csv")]) == 2
        assert "empty stimulus file" in capsys.readouterr().err

    def test_level_tag_without_nodes(self, tmp_path):
        """A design with no SW_ or HW_ node is tagged with the level asked
        for, by simulate and by flow; no unit charges a cycle, so its
        times are the sample indices."""
        p = tmp_path / "k.fdm"
        p.write_text("model k { output y; block c : const(3); "
                     "block g : gain(2); link c.out -> g.in; "
                     "link g.out -> self.y; }")
        sim, flow = tmp_path / "sim", tmp_path / "flow"
        assert main(["simulate", "--model", str(p), "--out", str(sim),
                     "--level", "0,3", "--ticks", "4"]) == 0
        assert main(["flow", "--model", str(p), "--out", str(flow),
                     "--ticks", "4"]) == 0
        body = "# design k\n" + "".join(f"{t},y,6\n" for t in range(4))
        for lv in (0, 3):
            assert (sim / f"level{lv}.trace").read_text() == \
                f"# level {lv}\n" + body
        for lv in (0, 1, 2, 3):
            assert (flow / "traces" / f"level{lv}.trace").read_text() == \
                f"# level {lv}\n" + body

    def test_empty_stimulus_file(self, mini_path, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["simulate", "--model", mini_path, "--out",
                     str(tmp_path / "sim"), "--stimulus", str(empty)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "empty.csv" in err

    def test_stimulus_port_named_twice(self, mini_path, tmp_path, capsys):
        stim = tmp_path / "dup.csv"
        stim.write_text("bitstream,bitstream\n1,2\n")
        assert main(["simulate", "--model", mini_path, "--out",
                     str(tmp_path / "sim"), "--stimulus", str(stim)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'bitstream' named twice" in err

    def test_stimulus_missing_input(self, mini_path, tmp_path, capsys):
        stim = tmp_path / "foo.csv"
        stim.write_text("foo\n1\n2\n")
        assert main(["simulate", "--model", mini_path, "--out",
                     str(tmp_path / "sim"), "--stimulus", str(stim)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bitstream" in err


class TestCompare:
    def test_pass_and_fail(self, mini_path, tmp_path, capsys):
        out = tmp_path / "c"
        main(["simulate", "--model", mini_path, "--out", str(out),
              "--level", "0,2,3", "--ticks", "32"])
        a = str(out / "level0.trace")
        b = str(out / "level2.trace")
        c = str(out / "level3.trace")
        assert main(["compare", "--a", a, "--b", b]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["compare", "--a", a, "--b", c]) == 1  # exact: cycle times
        assert main(["compare", "--a", a, "--b", c,
                     "--compare", "values_only"]) == 0

    def test_one_sample_overlap_fails(self, mini_path, tmp_path, capsys):
        # a copy of the trace that is all zeros but its last sample, which
        # equals the first reference sample, overlaps it only at k=255
        out = tmp_path / "c"
        main(["simulate", "--model", mini_path, "--out", str(out),
              "--level", "2", "--ticks", "256"])
        ref = Trace.load(out / "level2.trace")
        late = Trace({p: [(t, 0) for t, _ in recs[:-1]]
                      + [(recs[-1][0], recs[0][1])]
                      for p, recs in ref.ports.items()},
                     ref.level, ref.design)
        late.save(out / "late.trace")
        capsys.readouterr()
        assert main(["compare", "--a", str(out / "level2.trace"),
                     "--b", str(out / "late.trace"),
                     "--compare", "modulo_latency"]) == 1
        assert capsys.readouterr().out.startswith("FAIL [modulo_latency]")

    @pytest.mark.parametrize("mode", ["exact", "values_only",
                                      "modulo_latency"])
    def test_header_only_traces_fail(self, mode, tmp_path, capsys):
        empty = tmp_path / "empty.trace"
        empty.write_text("# level 0\n# design m\n")
        assert main(["compare", "--a", str(empty), "--b", str(empty),
                     "--compare", mode]) == 1
        assert capsys.readouterr().out == \
            f"FAIL [{mode}] the reference holds no sample\n"

    def test_missing_trace(self, tmp_path, capsys):
        assert main(["compare", "--a", str(tmp_path / "x"),
                     "--b", str(tmp_path / "y")]) == 2

    def test_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("garbage\n")
        assert main(["compare", "--a", str(bad), "--b", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad.trace:1" in err


class TestReport:
    def test_report_after_flow(self, mini_path, tmp_path, capsys):
        out = tmp_path / "r"
        main(["flow", "--model", mini_path, "--out", str(out),
              "--ticks", "64"])
        capsys.readouterr()
        rc = main(["report", "--out", str(out)])
        printed = capsys.readouterr().out
        assert "| level |" in printed
        assert "machine-specific" in printed
        assert rc in (0, 1)  # short runs may not be ordered in wall-clock

    @pytest.mark.parametrize("runs, rc", [
        ({"0": 0.1, "1": 0.5, "2": 0.4, "3": 0.9}, 0),
        ({"0": 0.1, "1": 0.3, "2": 0.9, "3": 0.5}, 1),
        ({"0": 0.6, "2": 0.4, "3": 0.9}, 1),
    ], ids=["l2-beats-l1", "l3-beats-l2", "l2-beats-l0"])
    def test_report_checks_criterion_8_order(self, tmp_path, capsys,
                                             runs, rc):
        """Only t0 < t2 < t3 is checked: levels 1 and 2 run the same
        code, so their order is noise.  Build seconds are not ordered."""
        timings = {lv: {"build": 1.0 - t, "run": t} for lv, t in runs.items()}
        (tmp_path / "timings.json").write_text(json.dumps(timings))
        assert main(["report", "--out", str(tmp_path)]) == rc
        out = capsys.readouterr().out
        assert ("t0 < t2 < t3" in out) == bool(rc)

    def test_report_csv(self, mini_path, tmp_path, capsys):
        out = tmp_path / "r2"
        main(["flow", "--model", mini_path, "--out", str(out),
              "--ticks", "64"])
        capsys.readouterr()
        main(["report", "--out", str(out), "--report", "csv"])
        printed = capsys.readouterr().out
        assert printed.startswith("level,simulated,wall_seconds")

    def test_report_units(self, mini_path, tmp_path, capsys):
        # every level counts samples; level 3 adds its last clock cycle
        out = tmp_path / "r4"
        main(["flow", "--model", mini_path, "--out", str(out),
              "--ticks", "64"])
        capsys.readouterr()
        main(["report", "--out", str(out), "--report", "csv"])
        rows = capsys.readouterr().out.splitlines()[1:5]
        end = Trace.load(out / "traces" / "level3.trace").ports["audio"][-1][0]
        assert end > 64
        assert [r.split(",")[1] for r in rows] == \
            ["64 samples"] * 3 + [f"64 samples in {end} cycles"]

    def test_report_without_flow(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "empty")]) == 2
        assert not (tmp_path / "empty").exists()  # report only reads

    @pytest.mark.parametrize("text", ['{"0": "abc"}', "not json"],
                             ids=["bad-value", "not-json"])
    def test_corrupt_timings(self, text, tmp_path, capsys):
        out = tmp_path / "r3"
        out.mkdir()
        (out / "timings.json").write_text(text)
        assert main(["report", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "timings.json" in captured.err


class TestSimulationErrors:
    # the feedback loop needs its HW delay to emit before it receives,
    # which the cycle-stepped hardware model at level 3 cannot do
    @pytest.mark.parametrize("cmd", ["flow", "simulate"])
    def test_deadlock_is_one_line(self, cmd, tmp_path, capsys):
        p = tmp_path / "feedback.fdm"
        p.write_text(FEEDBACK_FDM)
        rc = main([cmd, "--model", str(p), "--out", str(tmp_path / "out"),
                   "--level", "3", "--ticks", "8"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and "deadlock" in err

    def test_deadlock_names_who_waits(self, tmp_path, capsys):
        p = tmp_path / "feedback.fdm"
        p.write_text(FEEDBACK_FDM)
        rc = main(["simulate", "--model", str(p), "--out",
                   str(tmp_path / "out"), "--level", "3", "--ticks", "8"])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1
        # the HW node waits on its empty input, the task on the HW output
        assert "HW_reg.in on ch_SW_cpu_TASK_sum_out (0/1)" in err
        assert "SW_cpu/TASK_sum.b on ch_HW_reg_out (0/1)" in err



_TWO_LEVELS = '{"0": {"run": 0.1, "build": 0}, "1": {"run": 0.2, "build": 0}}'
_HW_POST = "g/params/module.mini_codec.HW_post.params"
_SIM = "simulate --model {d}/mini_codec.fdm --out {d}/o"
_FLOW_P = "flow --model {d}/mini_codec.fdm --params {d}/g/params --out {d}/o"

# one failure a user can trigger per case: the files to write in the test
# directory {d} before the run (None deletes one), the command line, the
# exit code, and the one line it prints to stderr, or to stdout when the
# line starts with FAIL; {d} also holds mini_codec.fdm and the parameter
# files gma wrote to g/params
FAILURES = [pytest.param(*case[1:], id=case[0]) for case in [
    ("params-dir-missing", {},
     "flow --model {d}/mini_codec.fdm --params {d}/nope --out {d}/o",
     2, "params directory not found: {d}/nope"),
    ("compare-empty-trace", {"e.trace": ""},
     "compare --a {d}/e.trace --b {d}/e.trace",
     2, "cannot read trace: {d}/e.trace: empty trace file"),
    ("report-malformed-trace",
     {"r/timings.json": _TWO_LEVELS, "r/traces/level0.trace": "garbage\n"},
     "report --out {d}/r", 2,
     "cannot read trace: {d}/r/traces/level0.trace:1: malformed trace line "
     "'garbage'; expected time,port,value"),
    ("stimulus-non-integer", {"s.csv": "bitstream\n1\nx\n"},
     _SIM + " --stimulus {d}/s.csv",
     2, "cannot read stimulus: {d}/s.csv:3: non-integer cell in 'x'"),
    ("stimulus-cell-count", {"s.csv": "bitstream\n1,2\n"},
     _SIM + " --stimulus {d}/s.csv",
     2, "cannot read stimulus: {d}/s.csv:2: 2 cells for 1 ports"),
    ("level-not-a-number", {}, _SIM + " --level a",
     2, "bad --level value 'a'"),
    ("params-unknown-module",
     {"g/params/module.mini_codec.nope.params": "cost_cycles = 0\n"},
     _FLOW_P, 1,
     "[attach_params] parameters name unknown module mini_codec/nope"),
    ("params-module-missing", {_HW_POST: None}, _FLOW_P, 1,
     "[attach_params] mini_codec/HW_post: missing parameter entry"),
    ("params-unknown-port",
     {_HW_POST: "cost_cycles = 0\nport.nope.width = 1\n"}, _FLOW_P, 1,
     "[attach_params] mini_codec/HW_post: parameters name unknown port nope"),
    ("params-line-without-equals", {_HW_POST: "cost_cycles 0\n"}, _FLOW_P,
     1, "module.mini_codec.HW_post.params:1: expected key = value"),
    ("params-file-name", {"g/params/extra.params": ""}, _FLOW_P,
     1, "unrecognized parameter file name extra.params"),
    ("report-one-level", {"r/timings.json": '{"0": {"run": 0.1, "build": 0}}'},
     "report --out {d}/r", 1, "need at least two timed levels"),
    ("compare-port-sets",
     {"a.trace": "# level 0\n0,x,1\n", "b.trace": "# level 0\n0,y,1\n"},
     "compare --a {d}/a.trace --b {d}/b.trace",
     1, "FAIL [exact] port sets differ: ['x'] vs ['y']"),
]]


@pytest.mark.parametrize("files,cmd,rc,msg", FAILURES)
def test_user_failure_is_one_line(files, cmd, rc, msg, mini_path, tmp_path,
                                  capsys):
    """Each failure exits with its code and prints its message as one
    line, never a traceback."""
    assert main(["gma", "--model", mini_path, "--out", str(tmp_path / "g")]) \
        == 0
    for name, text in files.items():
        path = tmp_path / name
        if text is None:
            path.unlink()
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    capsys.readouterr()
    d = str(tmp_path)
    assert main(cmd.format(d=d).split()) == rc
    captured = capsys.readouterr()
    line = msg.format(d=d) + "\n"
    assert (captured.out, captured.err) == \
        ((line, "") if msg.startswith("FAIL") else ("", line))
