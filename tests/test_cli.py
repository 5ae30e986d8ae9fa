import importlib.resources as ir
import json

import pytest

from fdmflow.cli import main

from helpers import FEEDBACK_FDM


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


class TestCheck:
    def test_clean_model(self, mini_path, capsys):
        assert main(["check", "--model", mini_path]) == 0

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


class TestFlow:
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

    def test_no_out_dir(self, mini_path, monkeypatch, capsys):
        monkeypatch.delenv("FLOW_OUT", raising=False)
        assert main(["flow", "--model", mini_path]) == 2

    def test_env_out_dir(self, mini_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FLOW_OUT", str(tmp_path / "envout"))
        assert main(["flow", "--model", mini_path, "--ticks", "32",
                     "--level", "0,2"]) == 0
        assert (tmp_path / "envout" / "verdicts.txt").is_file()

    def test_bad_level(self, mini_path, tmp_path, capsys):
        assert main(["flow", "--model", mini_path,
                     "--out", str(tmp_path / "o"), "--level", "9"]) == 2


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

    def test_missing_trace(self, tmp_path, capsys):
        assert main(["compare", "--a", str(tmp_path / "x"),
                     "--b", str(tmp_path / "y")]) == 2


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
        assert rc in (0, 1)  # short runs may not be monotone in wall-clock

    def test_report_csv(self, mini_path, tmp_path, capsys):
        out = tmp_path / "r2"
        main(["flow", "--model", mini_path, "--out", str(out),
              "--ticks", "64"])
        capsys.readouterr()
        main(["report", "--out", str(out), "--report", "csv"])
        printed = capsys.readouterr().out
        assert printed.startswith("level,simulated,wall_seconds")

    def test_report_without_flow(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "empty")]) == 2


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
