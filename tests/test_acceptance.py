"""Acceptance gate: one test per top-level criterion, each printing a
single pass/fail line and enforcing its runtime budget."""

import importlib.resources as ir
import itertools
import json
import random
import time
from contextlib import contextmanager

from fdmflow.cli import main
from fdmflow.flow import compile_design, default_stimulus, run_flow, simulate
from fdmflow.gma import emit_netlist, gen_task_behavior, netlist_to_json
from fdmflow.hwsynth import ControllerSim, RtlCycleSim, delay_correct, \
    fsm_controller
from fdmflow.model.blocks import port_names
from fdmflow.model.graph import Endpoint, Link, ModelGraph, Subsystem
from fdmflow.model.parser import parse_model
from fdmflow.model.validate import validate_model
from fdmflow.sim.engine import Engine
from fdmflow.sim.trace import Stimulus, Trace, compare_traces
from fdmflow.swsynth import build_task_fsm, lower_api
from fdmflow.tlm import recognize_partition

from helpers import hw_stream, level0, map_node, parse_netlist_json, \
    rand_loopy_model, rand_partitioned_model, rand_pipeline_node, \
    rand_task_subsystem, run_task, standalone_address_map, total_registers

_CACHE: dict = {}


@contextmanager
def criterion(n: int, limit: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL")
        raise
    dt = time.perf_counter() - t0
    ok = dt < limit
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} "
          f"({dt:.1f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {n} exceeded its {limit:.0f}s budget ({dt:.1f}s)"


def mini_model():
    text = (ir.files("fdmflow") / "models" / "mini_codec.fdm").read_text()
    return parse_model(text)


def _task_wrapper(sub: Subsystem) -> ModelGraph:
    sw = Subsystem("SW_n", inputs=["i"], outputs=["o"], subsystems=[sub],
                   links=[Link(Endpoint("self", "i"), Endpoint(sub.id, "in")),
                          Link(Endpoint(sub.id, "out"), Endpoint("self", "o"))])
    return ModelGraph("m", inputs=["x"], outputs=["y"], subsystems=[sw],
                      links=[Link(Endpoint("self", "x"), Endpoint("SW_n", "i")),
                             Link(Endpoint("SW_n", "o"), Endpoint("self", "y"))])


def test_criterion_1_end_to_end_refinement(tmp_path_factory):
    with criterion(1, 10.0):
        out = tmp_path_factory.mktemp("flow1k")
        res = run_flow(mini_model(), out, ticks=1024, seed=0)
        labels = dict(res.verdicts)
        v01 = labels["level0-vs-level1"]
        v12 = labels["level1-vs-level2"]
        v23 = labels["level2-vs-level3"]
        assert v01.passed and v01.mode == "exact"
        assert v12.passed and v12.mode == "exact"
        assert v23.passed and v23.mode == "modulo_latency"
        # level 3 must align under exactly the latency the flow reported
        recheck = compare_traces(res.traces[2], res.traces[3],
                                 mode="modulo_latency", expected_k=v23.k)
        assert recheck.passed
        _CACHE["flow1k_out"] = out


def _longest_path_oracle(sub: Subsystem, costs: dict):
    """Independent DP: levels, output latency k, and total edge slack."""
    lat = {b.id: costs[b.id] for b in sub.blocks}
    preds: dict[str, list[str]] = {b.id: [] for b in sub.blocks}
    out_srcs = []
    for ln in sub.links:
        src, dst = ln.src.block, ln.dst.block
        if dst == "self":
            out_srcs.append(src)
        else:
            preds[dst].append(src)
    level = {}
    for b in sub.blocks:  # declaration order is topological here
        base = max((level[p] for p in preds[b.id] if p != "self"), default=0)
        level[b.id] = base + lat[b.id]
    k = max((level[s] if s != "self" else 0 for s in out_srcs), default=0)
    slack = 0
    for ln in sub.links:
        src, dst = ln.src.block, ln.dst.block
        sl = 0 if src == "self" else level[src]
        if dst == "self":
            slack += k - sl
        else:
            slack += (level[dst] - lat[dst]) - sl
    return level, k, slack


def test_criterion_2_delay_correction_suite():
    with criterion(2, 30.0):
        for seed in range(200):
            rng = random.Random(20000 + seed)
            sub, costs = rand_pipeline_node(rng, max_blocks=12)
            impl = delay_correct(map_node(sub, costs))
            k = impl.latency
            _, k_oracle, slack_oracle = _longest_path_oracle(sub, costs)
            assert k == k_oracle, f"seed {seed}: k {k} != {k_oracle}"
            assert total_registers(impl) == slack_oracle, f"seed {seed}"
            n = 24
            xs = [rng.randint(-200, 200) for _ in range(n)]
            stim = Stimulus({"in": xs}, n)
            cyc = hw_stream(RtlCycleSim(impl).step, stim, n + k)
            wrapper = ModelGraph(sub.id, blocks=sub.blocks, links=sub.links,
                                 inputs=["in"], outputs=["out"])
            ref = level0(wrapper).run(stim, n)
            v = compare_traces(ref, cyc, mode="modulo_latency", expected_k=k)
            assert v.passed, f"seed {seed}: {v.message}"


def test_criterion_3_fsm_controller_suite():
    with criterion(3, 30.0):
        for seed in range(100):
            rng = random.Random(30000 + seed)
            sub, costs = rand_pipeline_node(rng, max_blocks=8)
            ctrl = fsm_controller(map_node(sub, costs))
            ii_oracle = sum(costs[b.id] for b in sub.blocks) or 1
            assert ctrl.latency == ii_oracle, f"seed {seed}"
            n = 16
            xs = [rng.randint(-200, 200) for _ in range(n)]
            stim = Stimulus({"in": xs}, n)
            got = hw_stream(ControllerSim(ctrl).fire, stim, n)
            wrapper = ModelGraph(sub.id, blocks=sub.blocks, links=sub.links,
                                 inputs=["in"], outputs=["out"])
            ref = level0(wrapper).run(stim, n)
            assert got.values("out") == ref.values("out"), f"seed {seed}"


def test_criterion_4_loop_detector_equivalence():
    with criterion(4, 5.0):
        import networkx as nx
        from fdmflow.model.graph import flatten
        for seed in range(120):
            rng = random.Random(40000 + seed)
            g = rand_loopy_model(rng, max_blocks=10)
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
            loop_diags = [d for d in validate_model(g).errors()
                          if d.cycle]
            assert bool(loop_diags) == has_cycle, f"seed {seed}"


def _structural_counts_oracle(g: ModelGraph):
    """Module/port/net counts derived from the model alone."""
    modules = 1
    ports = len(g.inputs) + len(g.outputs)
    n_chan = 0
    for s in g.subsystems:
        if s.id.startswith("CHAN_"):
            n_chan += 1
            modules += 1
            ports += len(s.inputs) + len(s.outputs)
        elif s.id.startswith(("SW_", "HW_")):
            modules += 1
            ports += len(s.inputs) + len(s.outputs)
            if s.id.startswith("SW_"):
                for t in s.subsystems:  # one task module per member
                    modules += 1
                    ports += len(t.inputs) + len(t.outputs)
                for b in s.blocks:
                    modules += 1
                    ins, outs = port_names(b.kind, b.params)
                    ports += len(ins) + len(outs)
            else:
                for b in s.blocks:  # one ip module per member block
                    modules += 1
                    ins, outs = port_names(b.kind, b.params)
                    ports += len(ins) + len(outs)
    for b in g.blocks:  # unowned top-level blocks form the testbench
        modules += 1
        ins, outs = port_names(b.kind, b.params)
        ports += len(ins) + len(outs)
    # one net per channel; a CHAN_ subsystem merges its two hops into one,
    # and each task-to-task link inside a software node is its own channel
    sources = {(ln.src.block, ln.src.port) for ln in g.links}
    nets = len(sources) - n_chan
    for s in g.subsystems:
        if s.id.startswith("SW_"):
            nets += sum(1 for ln in s.links
                        if ln.src.block != "self" and ln.dst.block != "self")
    return modules, ports, nets


def test_criterion_5_gma_bijection_round_trip():
    with criterion(5, 10.0):
        for seed in range(50):
            rng = random.Random(50000 + seed)
            g = rand_partitioned_model(rng, name=f"d{seed}")
            nl = emit_netlist(recognize_partition(g))
            m_exp, p_exp, n_exp = _structural_counts_oracle(g)
            mods = nl.modules()
            assert len(mods) == m_exp, f"seed {seed}"
            assert sum(len(m.ports) for _, m in mods) == p_exp, f"seed {seed}"
            assert len(nl.nets) == n_exp, f"seed {seed}"
            assert parse_netlist_json(netlist_to_json(nl)) == nl, f"seed {seed}"


def test_criterion_6_lowering_soundness():
    with criterion(6, 30.0):
        for seed in range(100):
            rng = random.Random(60000 + seed)
            sub = rand_task_subsystem(rng, "x")
            t = recognize_partition(_task_wrapper(sub))
            macro = build_task_fsm(gen_task_behavior(t, f"SW_n/{sub.id}"))
            micro = lower_api(macro, standalone_address_map(macro, "u"), "u")
            xs = [rng.randint(-400, 400) for _ in range(30)]
            a = run_task(macro, {"in": xs})
            b = run_task(micro, {"in": xs})
            ta = Trace({p: list(enumerate(v)) for p, v in a.items()}, 2, "t")
            tb = Trace({p: list(enumerate(v)) for p, v in b.items()}, 3, "t")
            v = compare_traces(ta, tb, mode="values_only")
            assert v.passed, f"seed {seed}: {v.message}"


def _check_all_assignments(model: ModelGraph, ticks: int, seed: int):
    cd = compile_design(model)
    stim = default_stimulus(model, ticks, seed=seed)
    pure = simulate(3, cd, stim, ticks)
    nodes = sorted(cd.tlm.nodes)
    for combo in itertools.product((2, 3), repeat=len(nodes)):
        assignment = dict(zip(nodes, combo))
        mixed = Engine(cd, assignment, stim, ticks).run()
        v = compare_traces(pure, mixed, mode="values_only")
        assert v.passed, f"{model.name} {assignment}: {v.message}"


def test_criterion_7_mixed_cosimulation():
    with criterion(7, 60.0):
        _check_all_assignments(mini_model(), ticks=64, seed=7)
        for seed in range(20):
            rng = random.Random(70000 + seed)
            _check_all_assignments(rand_partitioned_model(rng, f"mix{seed}"),
                                   ticks=40, seed=seed)


def test_criterion_8_simulation_speed_ordering(tmp_path_factory, capsys):
    with criterion(8, 300.0):
        out = tmp_path_factory.mktemp("flow100k")
        res = run_flow(mini_model(), out, levels=(0, 2, 3),
                       ticks=100_000, seed=0)
        assert res.ok
        _CACHE["flow100k_out"] = out
        t = {int(k): v["run"] for k, v in
             json.loads((out / "timings.json").read_text()).items()}
        assert t[0] < t[2] < t[3], f"not ordered: {t}"
        rc = main(["report", "--out", str(out)])
        printed = capsys.readouterr().out
        assert "| level |" in printed
        assert rc == 0  # the report's own monotonicity assertion
    print(f"speed ordering: t0={t[0]:.2f}s < t2={t[2]:.2f}s < t3={t[3]:.2f}s")


def _tree_bytes(root, exclude=("timings.json",)):
    files = sorted(p.relative_to(root) for p in root.rglob("*")
                   if p.is_file() and p.name not in exclude)
    return {str(p): (root / p).read_bytes() for p in files}


def test_criterion_9_determinism(tmp_path_factory):
    with criterion(9, 300.0):
        again1 = tmp_path_factory.mktemp("flow1k_again")
        run_flow(mini_model(), again1, ticks=1024, seed=0)
        assert _tree_bytes(_CACHE["flow1k_out"]) == _tree_bytes(again1)
        again8 = tmp_path_factory.mktemp("flow100k_again")
        run_flow(mini_model(), again8, levels=(0, 2, 3),
                 ticks=100_000, seed=0)
        assert _tree_bytes(_CACHE["flow100k_out"]) == _tree_bytes(again8)
