"""End-to-end refinement flow.

generate_macro runs the stages up to the behaviors into a MacroDesign;
compile_design runs every synthesis stage once and bundles the results
in one CompiledDesign, which the engine also runs from; simulator builds
the right engine for a level and simulate runs it; the write_* functions
are the one writer of each artifact, and run_flow writes them all to disk,
runs the levels on the default stimulus, timing each build apart from its
run, and checks cross-level equivalence.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .gma import ParamSet, attach_params, emit_netlist, \
    emit_param_templates, gen_task_behavior, netlist_to_json, param_files
from .gma.behavior import format_behavior
from .gma.netlist import ColifNetlist
from .hwsynth import delay_correct, emit_rtl_text, fsm_controller, \
    map_rtl_library, pipelineable
from .model.graph import FlatGraph, ModelGraph
from .model.parser import parse_model
from .sim.engine import Engine
from .sim.level0 import Level0Sim
from .sim.trace import Stimulus, Trace, Verdict, compare_traces
from .swsynth import AddressMap, allocate_address_map, \
    build_task_fsm, format_address_map, format_fsm, lower_api
from .tlm import TlmModel, gate


class FlowError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")


@dataclass
class MacroDesign:
    """The macro architecture: the stages ``fdmflow gma`` writes, which
    every later stage reads."""

    model: ModelGraph
    flat: FlatGraph  # the model flattened by the gate, which level 0 runs
    tlm: TlmModel
    netlist: ColifNetlist  # with bound params
    params: ParamSet
    behaviors: dict  # unit -> TaskBehavior, for every unit


@dataclass
class CompiledDesign(MacroDesign):
    macro_fsms: dict  # task unit -> TaskFsm
    address_map: AddressMap
    micro_fsms: dict  # task unit -> TaskFsm (micro level)
    hw_impl: dict  # node -> HwImpl
    unit_costs: dict  # task unit -> cycles per fired transition, if > 0


def generate_macro(model: ModelGraph,
                   params: ParamSet | None = None) -> MacroDesign:
    """Validation, partition, netlist, parameters and behaviors; the
    first error of ``gate`` stops the flow."""
    diags, tlm, flat = gate(model)
    err = next((d for d in diags if d.severity == "error"), None)
    if err is not None:
        raise FlowError("validate", err.message) if tlm is None else \
            FlowError("partition", f"{err.location}: {err.message}")
    netlist = emit_netlist(tlm)
    used = params if params is not None else emit_param_templates(netlist)
    try:
        bound = attach_params(netlist, used)
    except Exception as e:
        raise FlowError("attach_params", str(e)) from None
    behaviors = {}
    for name in tlm.units:
        try:
            behaviors[name] = gen_task_behavior(tlm, name)
        except Exception as e:
            raise FlowError("swsynth", str(e)) from None
    return MacroDesign(model, flat, tlm, bound, used, behaviors)


def compile_design(model: ModelGraph,
                   params: ParamSet | None = None) -> CompiledDesign:
    md = generate_macro(model, params)
    tlm = md.tlm
    macro_fsms = {}
    for name, u in tlm.units.items():
        if u.kind == "task":
            try:
                macro_fsms[name] = build_task_fsm(md.behaviors[name])
            except Exception as e:
                raise FlowError("swsynth", str(e)) from None

    address_map = allocate_address_map(md.netlist)
    root = md.netlist.top.name
    modules = dict(md.netlist.modules())
    micro_fsms = {}
    for name, f in macro_fsms.items():
        micro_fsms[name] = lower_api(f, address_map, f"{root}/{name}")

    hw_impl = {}
    for info in tlm.nodes.values():
        if info.role != "hardware":
            continue
        costs = {}
        for path in tlm.flats[info.name].blocks:
            m = modules.get(f"{root}/{info.name}/{path}")
            c = m.params.get("cost_cycles", 0) if m else 0
            if c > 0:
                costs[path] = c
        try:
            rg = map_rtl_library(info.name, tlm.flats[info.name], costs)
            hw_impl[info.name] = delay_correct(rg) if pipelineable(rg) \
                else fsm_controller(rg)
        except Exception as e:
            raise FlowError("hwsynth", str(e)) from None

    unit_costs = {}
    for name in tlm.units:
        m = modules.get(f"{root}/{name}")
        if m is not None:
            c = m.params.get("cost_cycles", 0)
            if c > 0:
                unit_costs[name] = c
    return CompiledDesign(**vars(md), macro_fsms=macro_fsms,
                          address_map=address_map, micro_fsms=micro_fsms,
                          hw_impl=hw_impl, unit_costs=unit_costs)


def simulator(level: int, cd: CompiledDesign, stim: Stimulus, ticks: int):
    """The level's simulator, built; calling it runs the simulation and
    returns a trace tagged ``level``, also for a design with no node."""
    if level == 0:
        return partial(Level0Sim(cd.flat, cd.model.name).run, stim, ticks)
    engine = Engine(cd, dict.fromkeys(cd.tlm.nodes, level), stim, ticks)
    # the tag only: with no node, no unit charges a cycle, so the times
    # stay sample indices
    engine.trace.level = level
    return engine.run


def simulate(level: int, cd: CompiledDesign, stim: Stimulus,
             ticks: int) -> Trace:
    return simulator(level, cd, stim, ticks)()


def default_stimulus(model: ModelGraph, ticks: int, seed: int = 0) -> Stimulus:
    """Deterministic pseudo-random input streams for flow runs."""
    import random
    rng = random.Random(seed)
    values = {p: [rng.randrange(-1024, 1024) for _ in range(ticks)]
              for p in model.inputs}
    return Stimulus(values, ticks)


@dataclass
class FlowResult:
    traces: dict  # level -> Trace
    verdicts: list  # (label, Verdict)
    hw_latency: dict

    @property
    def ok(self) -> bool:
        return all(v.passed for _, v in self.verdicts)


def _safe(name: str) -> str:
    return name.replace("/", ".")


def _dir(path) -> Path:
    d = Path(path)
    d.mkdir(parents=True, exist_ok=True)
    return d


def write_netlist(cd: MacroDesign, out: Path) -> None:
    """netlist.colif.json, and one parameter file per module in params/."""
    (_dir(out) / "netlist.colif.json").write_text(netlist_to_json(cd.netlist))
    pdir = _dir(out / "params")
    for fname, text in sorted(param_files(cd.params).items()):
        (pdir / fname).write_text(text)


def write_behaviors(cd: MacroDesign, out: Path, units) -> None:
    d = _dir(out)
    for name in sorted(units):
        (d / f"{_safe(name)}.behavior.txt").write_text(
            format_behavior(cd.behaviors[name]))


def write_fsms(cd: CompiledDesign, out: Path) -> None:
    """Each task's macro-level and micro-level FSM."""
    d = _dir(out)
    for name in sorted(cd.macro_fsms):
        (d / f"{_safe(name)}.fsm.txt").write_text(
            format_fsm(cd.macro_fsms[name]))
        (d / f"{_safe(name)}.micro.fsm.txt").write_text(
            format_fsm(cd.micro_fsms[name]))


def write_address_map(cd: CompiledDesign, out: Path) -> None:
    (_dir(out) / "address_map.txt").write_text(
        format_address_map(cd.address_map))


def write_rtl(cd: CompiledDesign, out: Path) -> None:
    """Each hardware node's structural RTL text."""
    d = _dir(out)
    for node in sorted(cd.hw_impl):
        (d / f"{_safe(node)}.rtl.txt").write_text(
            emit_rtl_text(cd.hw_impl[node]))


def run_flow(model: ModelGraph, out_dir, *, params: ParamSet | None = None,
             levels=(0, 1, 2, 3), ticks: int = 256,
             seed: int = 0) -> FlowResult:
    out = _dir(out_dir)
    cd = compile_design(model, params)
    write_netlist(cd, out)
    write_behaviors(cd, out / "fsm", cd.macro_fsms)
    write_fsms(cd, out / "fsm")
    write_address_map(cd, out)
    write_rtl(cd, out / "hw")

    stim = default_stimulus(model, ticks, seed)
    stim.save(out / "stimulus.csv")
    traces: dict[int, Trace] = {}
    timings: dict[int, dict] = {}  # level -> build and run seconds
    tdir = _dir(out / "traces")
    for level in levels:
        t0 = time.perf_counter()
        sim = simulator(level, cd, stim, ticks)
        t1 = time.perf_counter()
        tr = sim()
        del sim  # freed before the next level builds, as simulate frees it
        timings[level] = {"build": round(t1 - t0, 6),
                          "run": round(time.perf_counter() - t1, 6)}
        traces[level] = tr
        tr.save(tdir / f"level{level}.trace")

    verdicts: list[tuple[str, Verdict]] = []
    run_levels = sorted(traces)
    for a, b in zip(run_levels, run_levels[1:]):
        # exact up to level 2; valid gating hands level 3 the same stream,
        # so any shift other than 0 would pass it on a partial overlap
        mode, k = ("exact", None) if b <= 2 else ("modulo_latency", 0)
        verdicts.append((f"level{a}-vs-level{b}",
                         compare_traces(traces[a], traces[b], mode, k)))
    lines = []
    for label, v in verdicts:
        lines.append(f"{label}: {v}")
    hw_latency = {node: impl.latency for node, impl in cd.hw_impl.items()}
    for node in sorted(hw_latency):
        lines.append(f"hw {node}: latency/interval {hw_latency[node]}")
    (out / "verdicts.txt").write_text("\n".join(lines) + "\n")
    # wall-clock timings are machine-specific; kept out of determinism checks
    (out / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
    return FlowResult(traces, verdicts, hw_latency)


def load_model_file(path) -> ModelGraph:
    return parse_model(Path(path).read_text())
