"""End-to-end refinement flow.

compile_design runs every synthesis stage once and bundles the results;
simulate dispatches to the right engine for a level; run_flow writes all
artifacts to disk and checks cross-level equivalence.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .gma import ParamSet, attach_params, build_tree, emit_netlist, \
    emit_param_templates, gen_task_behavior, netlist_to_json, param_files
from .gma.behavior import TaskBehavior, format_behavior
from .gma.netlist import ColifNetlist
from .gma.tree import DesignTree
from .hwsynth import all_pipelined, delay_correct, emit_rtl_text, \
    fsm_controller, map_rtl_library
from .model.blocks import FunctionRegistry, default_registry
from .model.graph import ModelGraph
from .model.parser import parse_model
from .model.validate import validate_model
from .sim.engine import CostModel, SimDesign, cosimulate_mixed, \
    simulate_partitioned
from .sim.level0 import simulate_level0
from .sim.trace import Stimulus, Trace, Verdict, compare_traces
from .swsynth import AddressMap, TaskFsm, allocate_address_map, \
    build_task_fsm, format_address_map, format_fsm, lower_api
from .tlm import TlmModel, recognize_partition, validate_partition


class FlowError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class CompiledDesign:
    model: ModelGraph
    registry: FunctionRegistry
    tlm: TlmModel
    tree: DesignTree
    netlist: ColifNetlist  # with bound params
    params: ParamSet
    behaviors: dict  # unit -> TaskBehavior, for every unit
    macro_fsms: dict  # task unit -> TaskFsm
    address_map: AddressMap
    micro_fsms: dict  # task unit -> TaskFsm (micro level)
    hw_impl: dict  # node -> impl tuple
    hw_latency: dict  # node -> k (pipelined) or initiation interval
    sim_design: SimDesign


def compile_design(model: ModelGraph, params: ParamSet | None = None,
                   registry: FunctionRegistry | None = None,
                   bus_latency: int = 2) -> CompiledDesign:
    registry = registry or default_registry()
    report = validate_model(model, registry)
    if not report.ok:
        raise FlowError("validate", report.errors()[0].message)
    tlm = recognize_partition(model, registry)
    prep = validate_partition(tlm)
    if not prep.ok:
        raise FlowError("partition", prep.errors()[0].message)
    tree = build_tree(tlm, registry)
    netlist = emit_netlist(tree)
    template = emit_param_templates(netlist)
    try:
        bound = attach_params(netlist, params if params is not None else template)
    except Exception as e:
        raise FlowError("attach_params", str(e)) from None
    used = params if params is not None else template

    behaviors = {}
    macro_fsms = {}
    for name, u in tlm.units.items():
        try:
            behaviors[name] = gen_task_behavior(tree, name, registry)
            if u.kind == "task":
                macro_fsms[name] = build_task_fsm(behaviors[name])
        except Exception as e:
            raise FlowError("swsynth", str(e)) from None

    address_map = allocate_address_map(bound)
    root = netlist.top.name
    micro_fsms = {}
    for name, f in macro_fsms.items():
        micro_fsms[name] = lower_api(f, address_map, f"{root}/{name}")

    hw_impl = {}
    hw_latency = {}
    for info in tlm.nodes.values():
        if info.role != "hardware":
            continue
        costs = {}
        for blk in info.subsystem.blocks:
            m = bound.module_at(f"{root}/{info.name}/{blk.id}")
            c = m.params.get("cost_cycles", 0) if m else 0
            if c > 0:
                costs[blk.id] = c
        try:
            rg = map_rtl_library(info.subsystem, costs, registry)
            if all_pipelined(rg):
                dc, k = delay_correct(rg)
                hw_impl[info.name] = ("pipelined", dc, k)
                hw_latency[info.name] = k
            else:
                ctrl = fsm_controller(rg)
                hw_impl[info.name] = ("controller", ctrl)
                hw_latency[info.name] = ctrl.ii
        except Exception as e:
            raise FlowError("hwsynth", str(e)) from None

    unit_costs = {}
    for name in tlm.units:
        m = bound.module_at(f"{root}/{name}")
        if m is not None:
            c = m.params.get("cost_cycles", 0)
            if c > 0:
                unit_costs[name] = c
    sd = SimDesign(tlm, behaviors, micro_fsms, hw_impl,
                   CostModel(unit_costs, bus_latency), registry)
    return CompiledDesign(model, registry, tlm, tree, netlist=bound,
                          params=used, behaviors=behaviors,
                          macro_fsms=macro_fsms, address_map=address_map,
                          micro_fsms=micro_fsms, hw_impl=hw_impl,
                          hw_latency=hw_latency, sim_design=sd)


def simulate(level: int, cd: CompiledDesign, stim: Stimulus,
             ticks: int) -> Trace:
    if level == 0:
        return simulate_level0(cd.model, stim, ticks, cd.registry)
    return simulate_partitioned(cd.sim_design, level, stim, ticks)


def default_stimulus(model: ModelGraph, ticks: int, seed: int = 0) -> Stimulus:
    """Deterministic pseudo-random input streams for flow runs."""
    import random
    rng = random.Random(seed)
    values = {p: [rng.randrange(-1024, 1024) for _ in range(ticks)]
              for p in model.inputs}
    return Stimulus(values, ticks)


@dataclass
class FlowResult:
    out_dir: Path
    traces: dict  # level -> Trace
    verdicts: list  # (label, Verdict)
    hw_latency: dict
    timings: dict  # level -> seconds

    @property
    def ok(self) -> bool:
        return all(v.passed for _, v in self.verdicts)


def _safe(name: str) -> str:
    return name.replace("/", ".")


def run_flow(model: ModelGraph, out_dir, *, params: ParamSet | None = None,
             levels=(0, 1, 2, 3), ticks: int = 256, seed: int = 0,
             compare_mode: str | None = None,
             stim: Stimulus | None = None,
             registry: FunctionRegistry | None = None) -> FlowResult:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cd = compile_design(model, params, registry)

    (out / "netlist.colif.json").write_text(netlist_to_json(cd.netlist))
    pdir = out / "params"
    pdir.mkdir(exist_ok=True)
    for fname, text in sorted(param_files(cd.params).items()):
        (pdir / fname).write_text(text)
    fdir = out / "fsm"
    fdir.mkdir(exist_ok=True)
    for name in sorted(cd.macro_fsms):
        (fdir / f"{_safe(name)}.behavior.txt").write_text(
            format_behavior(cd.behaviors[name]))
        (fdir / f"{_safe(name)}.fsm.txt").write_text(
            format_fsm(cd.macro_fsms[name]))
        (fdir / f"{_safe(name)}.micro.fsm.txt").write_text(
            format_fsm(cd.micro_fsms[name]))
    (out / "address_map.txt").write_text(format_address_map(cd.address_map))
    hdir = out / "hw"
    hdir.mkdir(exist_ok=True)
    for node in sorted(cd.hw_impl):
        impl = cd.hw_impl[node]
        obj = impl[1]
        (hdir / f"{_safe(node)}.rtl.txt").write_text(emit_rtl_text(obj))

    if stim is None:
        stim = default_stimulus(model, ticks, seed)
    stim.save(out / "stimulus.csv")
    traces: dict[int, Trace] = {}
    timings: dict[int, float] = {}
    tdir = out / "traces"
    tdir.mkdir(exist_ok=True)
    for level in levels:
        t0 = time.perf_counter()
        tr = simulate(level, cd, stim, ticks)
        timings[level] = time.perf_counter() - t0
        traces[level] = tr
        tr.save(tdir / f"level{level}.trace")

    verdicts: list[tuple[str, Verdict]] = []
    run_levels = sorted(traces)
    for a, b in zip(run_levels, run_levels[1:]):
        if compare_mode is not None:
            mode = compare_mode
        else:
            mode = "exact" if b <= 2 else "modulo_latency"
        verdicts.append((f"level{a}-vs-level{b}",
                         compare_traces(traces[a], traces[b], mode)))
    lines = []
    for label, v in verdicts:
        lines.append(f"{label}: {v}")
    for node in sorted(cd.hw_latency):
        lines.append(f"hw {node}: latency/interval {cd.hw_latency[node]}")
    (out / "verdicts.txt").write_text("\n".join(lines) + "\n")
    # wall-clock timings are machine-specific; kept out of determinism checks
    (out / "timings.json").write_text(json.dumps(
        {str(k): round(v, 6) for k, v in timings.items()}, indent=2) + "\n")
    return FlowResult(out, traces, verdicts, dict(cd.hw_latency), timings)


def load_model_file(path) -> ModelGraph:
    return parse_model(Path(path).read_text())
