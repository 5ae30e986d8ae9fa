"""Block templates: every simulator that splices them agrees bit for bit
with an oracle written apart from them, and a parameter value never
enters a generated text."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import fdmflow.sim.engine as engine
import fdmflow.sim.sweep as sweep
from fdmflow.flow import compile_design, default_stimulus, simulate
from fdmflow.gma.behavior import DELAY_EMIT, DELAY_PUSH, Call, Recv, Send, \
    TaskBehavior
from fdmflow.model.blocks import KINDS, USER_FUNCTIONS, init_state, \
    port_names
from fdmflow.model.parser import parse_model
from fdmflow.sim.interp import FsmRunner, behavior_coroutine
from fdmflow.swsynth import build_task_fsm, lower_api

from helpers import REFERENCE_FUNCTIONS, bind_queues, bus_counter, \
    gen_wide, rand_partitioned_model, reference_step, sent, \
    standalone_address_map

EDGES = [0, 1, -1, 2, -2, 2**31 - 1, -2**31, 2**31, -2**31 - 1, 2**30,
         2**16 + 3, 2**20, 2**20 - 1, -2**20, -2**20 - 1]
VALUES = st.one_of(st.sampled_from(EDGES), st.integers(-2**31, 2**31 - 1))
SIZES = st.integers(1, 4)
UNARY = sorted(f for f, (ins, _, _) in USER_FUNCTIONS.items() if len(ins) == 1)
PARAMS = {
    "const": st.tuples(st.one_of(VALUES, st.integers(-2**40, 2**40))),
    "add": st.just(()), "sub": st.just(()), "mul": st.just(()),
    "gain": st.tuples(VALUES),
    "quant": st.tuples(VALUES.filter(bool)),
    "if_else": st.just(()),
    "delay": st.tuples(SIZES),
    "fir": st.lists(VALUES, min_size=1, max_size=6).map(tuple),
    "for_loop": st.tuples(st.integers(0, 4), st.sampled_from(UNARY)),
    "mux": st.tuples(SIZES), "demux": st.tuples(SIZES),
    "user": st.tuples(st.sampled_from(sorted(USER_FUNCTIONS))),
    "sink": st.just(()),
}
# the one use of a brace in a template or a user function's expression
FIELD = re.compile(r"\{[kiosx]\d+\}")


@st.composite
def firings(draw):
    """A block and the inputs of 1 to 8 consecutive ticks."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    params = draw(PARAMS[kind])
    n_in = len(port_names(kind, params)[0])
    ticks = draw(st.lists(st.tuples(*[VALUES] * n_in), min_size=1,
                          max_size=8))
    return kind, params, ticks


def _stepped(kind, params, ticks):
    state, outs = init_state(kind, params), []
    for xs in ticks:
        ys, state = reference_step(kind, params, xs, state)
        outs.append(ys)
    return outs


def _one_op(kind, params) -> sweep.Sweep:
    ins, outs = port_names(kind, params)
    sw = sweep.Sweep()
    sw.inputs = {p: sw.slot(p) for p in ins}
    sw.outputs = {p: sw.slot(("out", p)) for p in outs}
    sw.op(kind, params, sw.inputs.values(), sw.outputs.values())
    return sw


def _swept(kind, params, ticks):
    sw = _one_op(kind, params)
    sw.build()
    return [sw.tick(*xs) for xs in ticks]


def _streamed(kind, params, ticks):
    """The block through the stream driver, its state cells loop locals."""
    sw = _one_op(kind, params)
    sw.stream()
    cols = sw.run([list(col) for col in zip(*ticks)], len(ticks))
    return list(zip(*cols)) or [()] * len(ticks)


def _behavior(kind, params) -> TaskBehavior:
    """The block as one unit's behavior, as ``gen_task_behavior`` writes a
    single block: a delay is an emit and a push."""
    ins, outs = port_names(kind, params)
    xs, ys = tuple(f"x_{p}" for p in ins), tuple(f"y_{p}" for p in outs)
    init = init_state(kind, params)
    if kind == "delay":
        calls = [Call(DELAY_EMIT, kind, params, (), ys, "b"),
                 Call(DELAY_PUSH, kind, params, xs, (), "b")]
    else:
        name = params[0] if kind == "user" else kind
        calls = [Call(name, kind, params, xs, ys,
                      "b" if init is not None else None)]
    return TaskBehavior("t", "library_instance", ins, outs,
                        [Recv(p, x) for p, x in zip(ins, xs)] + calls +
                        [Send(p, y) for p, y in zip(outs, ys)],
                        {"b": init} if init is not None else {})


def _coroutine(b: TaskBehavior, ticks):
    """One body iteration per tick, on channels holding every input."""
    cons, prod = bind_queues(b, dict(zip(b.in_ports, zip(*ticks))))
    gen = behavior_coroutine(b, cons, prod)
    for _ in ticks:
        assert next(gen) is True
    return list(zip(*sent(prod).values())) or [()] * len(ticks)


def _fsm(fsm, ticks):
    """Step the task FSM until it blocks on its exhausted inputs, or has
    sent every tick's outputs when it has no input."""
    cons, prod = bind_queues(fsm, dict(zip(fsm.in_ports, zip(*ticks))))
    runner = FsmRunner(fsm, cons, prod, bus_counter())
    while (fsm.in_ports or prod[fsm.out_ports[0]].pushed < len(ticks)) \
            and runner.step():
        pass
    return list(zip(*sent(prod).values())) or [()] * len(ticks)


def _assert_generators(kind, params, ticks, want):
    """The block sweep, stepped and streamed, the behavior and both task
    FSMs give ``want``."""
    assert _swept(kind, params, ticks) == want
    assert _streamed(kind, params, ticks) == want
    b = _behavior(kind, params)
    assert _coroutine(b, ticks) == want
    macro = build_task_fsm(b)
    assert _fsm(macro, ticks) == want
    micro = lower_api(macro, standalone_address_map(macro, "u"), "u")
    assert _fsm(micro, ticks) == want


class TestTemplates:
    def test_every_kind_has_a_strategy(self):
        assert set(PARAMS) == set(KINDS)
        assert set(REFERENCE_FUNCTIONS) == set(USER_FUNCTIONS)

    @settings(max_examples=300, deadline=None)
    @given(firings())
    def test_generators_match_reference(self, firing):
        kind, params, ticks = firing
        _assert_generators(kind, params, ticks,
                           _stepped(kind, params, ticks))

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_braces_only_in_fields(self, kind, data):
        """A template's braces are its fields' only: its lines are filled
        positionally, which would misread a dict or set literal."""
        t = KINDS[kind].template
        params = data.draw(PARAMS[kind])
        for ln in [t] if isinstance(t, str) else t(params):
            assert not set(FIELD.sub("", ln)) & set("{}"), (params, ln)

    def test_user_function_braces_only_in_fields(self):
        for name, (_, _, exprs) in USER_FUNCTIONS.items():
            for e in exprs:
                assert not set(FIELD.sub("", e)) & set("{}"), (name, e)

    def test_reference_edges(self):
        """Edges the property draws, spelled out."""
        assert reference_step("gain", (2,), (2**30,), None)[0] == (-2**31,)
        assert reference_step("quant", (-7,), (-20,), None)[0] == (-14,)
        assert reference_step("quant", (-7,), (20,), None)[0] == (14,)
        assert reference_step("mux", (3,), (-1, 10, 20, 30), None)[0] == (30,)
        assert reference_step("demux", (3,), (-2, 7), None)[0] == (0, 7, 0)
        assert reference_step("fir", (4,), (5,), ())[0] == (20,)
        # the clip rails and the 32-bit wrap of the user functions, checked
        # against every generator too
        for kind, params, x, y in [
                ("user", ("clip",), 2**20, 2**20 - 1),
                ("user", ("clip",), 2**20 - 1, 2**20 - 1),
                ("user", ("clip",), -2**20, -2**20),
                ("user", ("clip",), -2**20 - 1, -2**20),
                ("user", ("inc",), 2**31 - 1, -2**31),
                ("user", ("dbl",), 2**30, -2**31),
                ("user", ("dbl",), -2**31, 0),
                ("user", ("huff",), 2**28, -2**31 + 2**26 + 0x2B),
                ("for_loop", (2, "inc"), 2**31 - 1, -2**31 + 1)]:
            assert reference_step(kind, params, (x,), None)[0] == (y,)
            _assert_generators(kind, params, [(x,)], [(y,)])


SHARED_FDM = """
model share {
  input x; output y;
  block tg : gain(G1);
  subsystem SW_cpu {
    input a; output out;
    subsystem TASK_t {
      input a; output out;
      block g : gain(G2); block q : quant(Q1); block f : fir(F1);
      link self.a -> g.in; link g.out -> q.in; link q.out -> f.in;
      link f.out -> self.out;
    }
    link self.a -> TASK_t.a; link TASK_t.out -> self.out;
  }
  subsystem HW_h {
    input in; output out;
    block g : gain(G3); block q : quant(Q2); block f : fir(F2);
    link self.in -> g.in; link g.out -> q.in; link q.out -> f.in;
    link f.out -> self.out;
  }
  link self.x -> tg.in; link tg.out -> SW_cpu.a;
  link SW_cpu.out -> HW_h.in; link HW_h.out -> self.y;
}
"""


def _texts(monkeypatch, g, ticks=8) -> dict:
    """level -> every source text generated to simulate ``g`` at it; the
    engine's chunks are generated afresh, not taken from its cache."""
    seen: list = []
    code = sweep._code

    def record(src):
        seen.append(src)
        return code(src)
    monkeypatch.setattr(sweep, "_code", record)
    cd = compile_design(g)
    stim = default_stimulus(cd.model, ticks, seed=0)
    texts = {}
    for level in (0, 1, 2, 3):
        seen.clear()
        engine._chunk_binder.cache_clear()
        simulate(level, cd, stim, ticks)
        texts[level] = list(seen)
    return texts


def _wide_design(size: int):
    """The compiled benchmark design of ``size`` tasks and HW nodes."""
    return compile_design(parse_model(gen_wide().generate(0, size)))


class TestSharedTexts:
    def _model(self, values: dict):
        text = SHARED_FDM
        for k, v in values.items():
            text = text.replace(k, v)
        return parse_model(text)

    def test_parameter_values_share_texts(self, monkeypatch):
        a = _texts(monkeypatch, self._model(
            {"G1": "3", "G2": "3", "G3": "3", "Q1": "2", "Q2": "2",
             "F1": "1, 2, 1", "F2": "1, 2"}))
        b = _texts(monkeypatch, self._model(
            {"G1": "5", "G2": "-4", "G3": "7", "Q1": "-7", "Q2": "-7",
             "F1": "4, -3, 9", "F2": "-6, 11"}))
        assert all(a[level] for level in a)
        assert a == b

    def test_unit_names_share_texts(self, monkeypatch):
        """Unit names are parameters of every generated text, the run
        loop's and its unit chunks' included."""
        values = {"G1": "3", "G2": "3", "G3": "3", "Q1": "2", "Q2": "2",
                  "F1": "1, 2, 1", "F2": "1, 2"}
        a = _texts(monkeypatch, self._model(values))
        b = _texts(monkeypatch, self._model(values | {
            "SW_cpu": "SW_dsp", "TASK_t": "TASK_run", "HW_h": "HW_acc",
            "tg": "pre"}))
        for level, fns in ((1, ["loop(e)", "macro(clk)"]),
                           (3, ["loop(e)", "tasks(clk)", "hw(clk)"])):
            for fn in fns:
                assert any(f"    def {fn}:" in t for t in a[level]), fn
        assert a == b

    def test_wide_design_texts_fit_the_cache(self):
        """The 50-task, 50-node benchmark design compiles at most 103
        distinct texts over every level: same-sized chunks of the run loop
        share one text, so the count grows far slower than the number of
        units (63, 103 and 142 texts at 10, 50 and 200 units)."""
        sweep._code.cache_clear()
        engine._chunk_binder.cache_clear()
        cd = _wide_design(50)
        stim = default_stimulus(cd.model, 10, seed=0)
        for level in (0, 1, 2, 3):
            simulate(level, cd, stim, 10)
        info = sweep._code.cache_info()
        assert info.currsize <= 103, info

    def test_large_design_texts_stay_compiled(self):
        """The 200-task, 200-node design (about 1.3k blocks) simulated
        again at every level compiles nothing again."""
        sweep._code.cache_clear()
        engine._chunk_binder.cache_clear()
        cd = _wide_design(200)
        stim = default_stimulus(cd.model, 10, seed=0)
        for level in (0, 1, 2, 3):
            simulate(level, cd, stim, 10)
        misses = sweep._code.cache_info().misses
        for level in (0, 1, 2, 3):
            simulate(level, cd, stim, 10)
        assert sweep._code.cache_info().misses == misses

    def test_distinct_texts_fit_the_cache(self, monkeypatch):
        maxsize = sweep._code.cache_info().maxsize
        g = rand_partitioned_model(random.Random(0), max_tasks=8, max_hw=8)
        texts = _texts(monkeypatch, g)
        assert len(set().union(*texts.values())) < maxsize
