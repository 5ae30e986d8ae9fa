import hashlib
import importlib.resources as ir
import random

import pytest

from fdmflow.flow import FlowError, compile_design, default_stimulus, simulate
from fdmflow.model.parser import parse_model
from fdmflow.sim.channels import ChannelRt
from fdmflow.sim.engine import cosimulate_mixed, simulate_partitioned
from fdmflow.sim.interp import SimError
from fdmflow.sim.trace import PortSetMismatch, Stimulus, Trace, compare_traces
from fdmflow.tlm import ChannelSpec, PortRef

from helpers import FEEDBACK_FDM, rand_loopy_model, rand_partitioned_model


def mini_compiled():
    text = (ir.files("fdmflow") / "models" / "mini_codec.fdm").read_text()
    return compile_design(parse_model(text))


class TestChannelRt:
    def _spec(self, depth=1, consumers=("c1",)):
        return ChannelSpec("ch", "multipoint", [PortRef("p", "out")],
                           [PortRef(c, "in") for c in consumers],
                           fifo_depth=depth)

    def test_depth_bound(self):
        ch = ChannelRt(self._spec(depth=2))
        assert ch.can_push()
        ch.push(1)
        ch.push(2)
        assert not ch.can_push()
        assert ch.pop(("c1", "in")) == 1
        assert ch.can_push()

    def test_broadcast(self):
        ch = ChannelRt(self._spec(consumers=("c1", "c2")))
        ch.push(7)
        assert not ch.can_push()  # both queues must drain
        assert ch.pop(("c1", "in")) == 7
        assert not ch.can_push()
        assert ch.pop(("c2", "in")) == 7
        assert ch.can_push()

    def test_status_bits(self):
        ch = ChannelRt(self._spec(depth=1))
        key = ("c1", "in")
        assert ch.status(key) == 2  # empty, room available
        ch.push(5)
        assert ch.status(key) == 1  # full, data available
        assert ch.status(None) == 0  # producer view of a full channel

    def test_push_into_full_channel_raises(self):
        ch = ChannelRt(self._spec(depth=1))
        ch.push(5)
        with pytest.raises(SimError, match="full"):
            ch.push(6)


class TestCompareTraces:
    def _t(self, vals, times=None, level=0):
        times = times or list(range(len(vals)))
        return Trace({"y": list(zip(times, vals))}, level=level, design="d")

    def test_exact(self):
        assert compare_traces(self._t([1, 2]), self._t([1, 2])).passed
        v = compare_traces(self._t([1, 2]), self._t([1, 3]))
        assert not v.passed and v.mismatch == ("y", 1, (1, 2), (1, 3))

    def test_exact_times_matter(self):
        v = compare_traces(self._t([1, 2]), self._t([1, 2], times=[0, 5]))
        assert not v.passed

    def test_values_only_ignores_times(self):
        v = compare_traces(self._t([1, 2]), self._t([1, 2], times=[4, 9]),
                           mode="values_only")
        assert v.passed

    def test_values_only_length_strict(self):
        v = compare_traces(self._t([1, 2]), self._t([1, 2, 3]),
                           mode="values_only")
        assert not v.passed

    def test_modulo_latency_finds_smallest_k(self):
        a = self._t([5, 6, 7, 8])
        b = self._t([0, 0, 5, 6, 7, 8])
        v = compare_traces(a, b, mode="modulo_latency")
        assert v.passed and v.k == 2

    def test_modulo_latency_expected_k(self):
        a = self._t([5, 6, 7])
        b = self._t([0, 5, 6, 7])
        assert compare_traces(a, b, mode="modulo_latency", expected_k=1).passed
        assert not compare_traces(a, b, mode="modulo_latency",
                                  expected_k=2).passed

    def test_modulo_latency_shared_shift(self):
        # the shift must be one constant across ports
        a = Trace({"y": [(0, 1), (1, 2)], "z": [(0, 3), (1, 4)]}, 0, "d")
        b = Trace({"y": [(0, 0), (1, 1), (2, 2)],
                   "z": [(0, 3), (1, 4), (2, 0)]}, 0, "d")
        v = compare_traces(a, b, mode="modulo_latency")
        assert not v.passed

    def test_port_set_mismatch(self):
        with pytest.raises(PortSetMismatch):
            compare_traces(self._t([1]), Trace({"z": [(0, 1)]}, 0, "d"))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            compare_traces(self._t([1]), self._t([1]), mode="fuzzy")


class TestLevels:
    def test_mini_codec_levels_agree(self):
        cd = mini_compiled()
        ticks = 200
        stim = default_stimulus(cd.model, ticks, seed=3)
        t0 = simulate(0, cd, stim, ticks)
        t1 = simulate(1, cd, stim, ticks)
        t2 = simulate(2, cd, stim, ticks)
        t3 = simulate(3, cd, stim, ticks)
        assert compare_traces(t0, t1).passed
        assert compare_traces(t1, t2).passed
        v = compare_traces(t2, t3, mode="modulo_latency")
        assert v.passed and v.k == 0
        assert compare_traces(t2, t3, mode="values_only").passed

    def test_level2_timestamps_advance_with_cost(self):
        cd = mini_compiled()
        stim = default_stimulus(cd.model, 16, seed=0)
        t2 = simulate(2, cd, stim, 16)
        # sample-indexed times at the macro level
        assert [t for t, _ in t2.ports["audio"]] == list(range(16))

    def test_level3_times_are_cycles(self):
        cd = mini_compiled()
        stim = default_stimulus(cd.model, 16, seed=0)
        t3 = simulate(3, cd, stim, 16)
        times = [t for t, _ in t3.ports["audio"]]
        assert times == sorted(times)
        assert times[-1] > 16  # bus polling costs cycles

    def test_determinism(self):
        cd = mini_compiled()
        stim = default_stimulus(cd.model, 64, seed=1)
        a = simulate(3, cd, stim, 64)
        b = simulate(3, cd, stim, 64)
        assert a.ports == b.ports

    # SHA-256 of the saved trace files, sample times included, so an
    # engine change cannot move a value or a level-3 cycle unnoticed.
    PINNED = {
        1: "e13943e1fd2e91a554bc76f088182380d2bed1d3ddc11dffc4440a82091ae58e",
        2: "a4a9adc48919f6d86cd188c553934806a173697716b4e6a6da8a412b10bc102a",
        3: "3c4f7c0266da744ed9abeb4f95b942ece6f6273997787badb86cc41c88c47415",
    }

    def test_pinned_trace_digests(self, tmp_path):
        cd = mini_compiled()
        ticks = 2000
        stim = default_stimulus(cd.model, ticks, seed=7)
        for level, digest in self.PINNED.items():
            path = tmp_path / f"level{level}.trace"
            simulate(level, cd, stim, ticks).save(path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, \
                f"level {level}"


class TestLoops:
    """Delays on loops that cross unit boundaries emit before they receive
    at every macro level, whichever kind of unit holds them."""

    def test_feedback_through_hw_delay(self):
        g = parse_model(FEEDBACK_FDM)
        cd = compile_design(g)
        ticks = 60
        stim = default_stimulus(g, ticks, seed=2)
        t0 = simulate(0, cd, stim, ticks)
        assert len(t0.ports["y"]) == ticks
        for level in (1, 2):
            v = compare_traces(t0, simulate(level, cd, stim, ticks))
            assert v.passed, f"level {level}: {v}"

    def test_random_loopy_testbenches(self):
        compiled = []
        for seed in range(40):
            g = rand_loopy_model(random.Random(seed))
            try:
                cd = compile_design(g)
            except FlowError:
                continue  # combinational cycle without a delay
            compiled.append(seed)
            ticks = 50
            stim = default_stimulus(g, ticks, seed=seed)
            t0 = simulate(0, cd, stim, ticks)
            for level in (1, 2):
                v = compare_traces(t0, simulate(level, cd, stim, ticks))
                assert v.passed, f"seed {seed} level {level}: {v}"
            t3 = simulate(3, cd, stim, ticks)
            v = compare_traces(t0, t3, mode="modulo_latency")
            assert v.passed and v.k == 0, f"seed {seed} level 3: {v}"
            assert compare_traces(t0, t3, mode="values_only").passed
        # the seeds whose testbench delays sit on a loop are among these
        assert compiled == [7, 14, 18, 20, 32, 33, 35, 36]


class TestMixed:
    def test_one_mixed_assignment(self):
        cd = mini_compiled()
        ticks = 100
        stim = default_stimulus(cd.model, ticks, seed=5)
        sd = cd.sim_design
        pure = simulate_partitioned(sd, 3, stim, ticks)
        mixed = cosimulate_mixed(
            sd, {"SW_cpu": 2, "HW_filter": 3, "HW_post": 2}, stim, ticks)
        assert compare_traces(pure, mixed, mode="values_only").passed

    def test_bad_assignment_rejected(self):
        cd = mini_compiled()
        stim = default_stimulus(cd.model, 8, seed=0)
        from fdmflow.sim.engine import SimError
        with pytest.raises((SimError, KeyError, ValueError)):
            cosimulate_mixed(cd.sim_design, {"SW_cpu": 7}, stim, 8)

    def test_random_design_levels(self):
        for seed in range(8):
            rng = random.Random(seed)
            g = rand_partitioned_model(rng)
            cd = compile_design(g)
            ticks = 40
            stim = default_stimulus(g, ticks, seed=seed)
            t0 = simulate(0, cd, stim, ticks)
            t2 = simulate(2, cd, stim, ticks)
            t3 = simulate(3, cd, stim, ticks)
            assert compare_traces(t0, t2).passed, f"seed {seed}"
            assert compare_traces(t2, t3, mode="values_only").passed, \
                f"seed {seed}"
